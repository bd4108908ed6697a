"""Parser and serializer behavior, pinned against hand-checked values."""

import json
import random
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest

from tropnewton.corpus import SplitMix64, random_lifted_support, staircase_support
from tropnewton.errors import (
    DuplicateMonomialError,
    EmptySupportError,
    NegativeExponentError,
    ParseError,
    SchemaError,
    TropnewtonError,
)
from tropnewton.lattice import LatticePoint
from tropnewton.parsing import (
    LiftedSupport,
    SupportSet,
    germ_text,
    load_json,
    parse_germ,
    parse_json_obj,
    parse_puiseux_poly,
    serialize_json,
)


def points(s):
    return set(s.points)


def test_quintic_support():
    s = parse_germ("x^5+x^2*y^2+y^5")
    assert points(s) == {(5, 0), (2, 2), (0, 5)}


def test_cusp_support():
    s = parse_germ("x^2+y^3")
    assert points(s) == {(2, 0), (0, 3)}


def test_juxtaposed_and_spaced_forms_agree():
    forms = ["x^2y^3+x^4", "x^2 * y^3 + x^4", " x^2*y^3+x^4 ", "y^3x^2+x^4"]
    expect = {(2, 3), (4, 0)}
    for f in forms:
        assert points(parse_germ(f)) == expect, f


def test_coefficients_and_signs():
    s = parse_germ("-3x^2+2y-x^2")
    assert dict(s.terms)[(2, 0)] == (-4, 0)
    assert dict(s.terms)[(0, 1)] == (2, 0)


def test_gaussian_coefficients_cancel():
    s = parse_germ("i*x^2+3y-i*x^2+y")
    assert points(s) == {(0, 1)}
    assert dict(s.terms)[(0, 1)] == (4, 0)


def test_constant_and_unit_terms():
    s = parse_germ("1+x")
    assert points(s) == {(0, 0), (1, 0)}
    assert dict(parse_germ("5").terms)[(0, 0)] == (5, 0)
    assert dict(parse_germ("2i").terms)[(0, 0)] == (0, 2)


def test_full_cancellation_is_empty_support():
    with pytest.raises(EmptySupportError):
        parse_germ("x^2-x^2+y-y")


def test_exponent_one_may_be_written_explicitly():
    assert points(parse_germ("x^1y^1")) == {(1, 1)}


def test_repeated_variable_multiplies():
    assert points(parse_germ("x^2x^3")) == {(5, 0)}


def test_negative_exponent_is_its_own_error():
    with pytest.raises(NegativeExponentError) as e:
        parse_germ("x^-2+y")
    assert e.value.pos == 2


def test_parse_error_carries_position_and_caret():
    with pytest.raises(ParseError) as e:
        parse_germ("x^2 & y^3")
    assert e.value.pos == 4
    block = e.value.caret_block()
    lines = block.splitlines()
    assert lines[0] == "x^2 & y^3"
    assert lines[1] == "    ^"


def test_zero_coefficient_rejected():
    with pytest.raises(ParseError):
        parse_germ("0*x^2+y")


def test_dangling_star_rejected():
    with pytest.raises(ParseError):
        parse_germ("3*")
    with pytest.raises(ParseError):
        parse_germ("x^2*+y")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_germ("")
    with pytest.raises(ParseError):
        parse_germ("   ")


# --- lifted text ------------------------------------------------------------

CUSP_LIFTED = "1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3"


def test_cusp_lifted_polynomial():
    ls = parse_puiseux_poly(CUSP_LIFTED)
    assert ls.nu == {
        LatticePoint(0, 0): Fraction(0),
        LatticePoint(1, 0): Fraction(1),
        LatticePoint(0, 1): Fraction(1),
        LatticePoint(2, 0): Fraction(3),
        LatticePoint(1, 1): Fraction(2),
        LatticePoint(0, 2): Fraction(3),
        LatticePoint(0, 3): Fraction(6),
    }
    # one read-only mapping, built once
    assert ls.nu is ls.nu
    with pytest.raises(TypeError):
        ls.nu[LatticePoint(0, 0)] = Fraction(1)


def test_rational_and_negative_t_exponents():
    ls = parse_puiseux_poly("t^3/2z+t^(1/2)w+t^-2zw+z^3")
    d = ls.nu
    assert d[LatticePoint(1, 0)] == Fraction(3, 2)
    assert d[LatticePoint(0, 1)] == Fraction(1, 2)
    assert d[LatticePoint(1, 1)] == Fraction(-2)
    assert d[LatticePoint(3, 0)] == Fraction(0)


def test_explicit_stars_allowed():
    ls = parse_puiseux_poly("t^2*z^3*w + 1")
    assert ls.nu == {LatticePoint(3, 1): Fraction(2),
                            LatticePoint(0, 0): Fraction(0)}


def test_duplicate_monomial_rejected():
    with pytest.raises(DuplicateMonomialError):
        parse_puiseux_poly("tz+t^2z")


def test_lifted_negative_z_exponent():
    with pytest.raises(NegativeExponentError):
        parse_puiseux_poly("tz^-1")


def test_lifted_nonunit_coefficient_rejected():
    with pytest.raises(ParseError):
        parse_puiseux_poly("2z+w")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_puiseux_poly("t^1/0z")


def test_lifted_minus_sign_is_an_error_at_the_sign():
    # a '-' used to be dropped, so "1-tz-t^2w" read as "1+tz+t^2w"
    for text, pos in [("-tz+w", 0), (" - tz", 1), ("1-tz-t^2w", 1), ("1+tz -t^2w", 5)]:
        with pytest.raises(ParseError, match="coefficients are implicitly 1") as e:
            parse_puiseux_poly(text)
        assert e.value.pos == pos, text
    assert parse_puiseux_poly("+1+tz") == parse_puiseux_poly("1+tz")


def test_lifted_syntax_errors_carry_positions():
    for text, message, pos in [
        ("", "empty expression", 0),
        ("   ", "empty expression", 3),
        ("tz t", "expected '+' or '-', found 't'", 3),
        ("zw*", "expected '+' or '-', found '*'", 2),
        ("1+tz*w^2 & z", "expected '+' or '-', found '&'", 9),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)) as e:
            parse_puiseux_poly(text)
        assert e.value.pos == pos, text


def test_lifted_dangling_star_is_an_error_at_the_star():
    # a '*' must be followed by a factor; "1*", "t*" and "tz*" used to
    # parse, as the constant term, t and tz
    for text, pos in [("1*", 1), ("t*", 1), ("tz*", 2), ("w*", 1), ("zw*", 2),
                      ("t^2* ", 3), ("1*+tz", 1)]:
        with pytest.raises(ParseError, match=re.escape("expected '+' or '-', found '*'")) as e:
            parse_puiseux_poly(text)
        assert e.value.pos == pos, text
    assert parse_puiseux_poly("t*z") == parse_puiseux_poly("tz")
    assert parse_puiseux_poly("1*tz") == parse_puiseux_poly("tz")
    assert parse_puiseux_poly("1* t^2* w") == parse_puiseux_poly("t^2w")


def test_lifted_star_takes_whitespace_on_both_sides():
    # "t *z+1+w" and "1 *t+z+w" used to stop at the star; germ text
    # always took whitespace before a '*'
    for spaced, plain in [("t *z+1+w", "tz+1+w"), ("1 *t+z+w", "t+z+w"),
                          ("t* z+1+w", "tz+1+w"), ("t^2 * z * w+1", "t^2zw+1"),
                          ("1 * t^(1/2)  *z+w+1", "t^(1/2)z+w+1")]:
        assert parse_puiseux_poly(spaced) == parse_puiseux_poly(plain), spaced
    assert parse_germ("x *y+y^3+x^2") == parse_germ("x*y+y^3+x^2")
    assert parse_germ("2 *x^2+y^3") == parse_germ("2*x^2+y^3")
    # a dangling star still ends the term, and the error is at the star;
    # a factor out of order after a taken star is reported at the factor
    for text, found, pos in [("t *", "*", 2), ("1 *", "*", 2), ("t * +z", "*", 2),
                             ("w *t+1", "*", 2), ("t^3 *tz^2", "t", 5),
                             ("z * w *t", "*", 6)]:
        with pytest.raises(ParseError, match=re.escape(f"expected '+' or '-', found {found!r}")) as e:
            parse_puiseux_poly(text)
        assert e.value.pos == pos, text


def test_lifted_whitespace_before_caret_and_slash():
    # "t ^2z", "t^(1 /2)z" and "t^1 /2z" used to stop at the '^' or the
    # '/'; germ text always took whitespace before a '^'
    for spaced, plain in [("t ^2z+1+w", "t^2z+1+w"), ("z ^2+1+w", "z^2+1+w"),
                          ("t^(1 /2)z+1+w", "t^(1/2)z+1+w"), ("t^1 /2z+1+w", "t^1/2z+1+w"),
                          ("t^(1/ 2)z+1+w", "t^(1/2)z+1+w")]:
        assert parse_puiseux_poly(spaced) == parse_puiseux_poly(plain), spaced
    assert parse_germ("x ^ 2 + y ^ 3") == parse_germ("x^2+y^3")


_TOKEN = re.compile(r"\d+|[a-z]|[-+*^/()]")


def lifted_tokens(rng, lifting):
    """Tokens of a lifted text of ``lifting``: t exponents with and
    without parentheses, factors joined by '*' or juxtaposed."""
    tokens = []
    for p, h in lifting.entries:
        factors = []
        if h == 1:
            factors.append(["t"])
        elif h:
            num, den = str(h.numerator), str(h.denominator)
            if den == "1":
                factors.append(["t", "^", num])
            elif rng.below(2):
                factors.append(["t", "^", "(", num, "/", den, ")"])
            else:
                factors.append(["t", "^", num, "/", den])
        for var, e in (("z", p.i), ("w", p.j)):
            if e:
                factors.append([var] if e == 1 else [var, "^", str(e)])
        term = factors[0] if factors else ["1"]
        for f in factors[1:]:
            term = term + (["*"] if rng.below(2) else []) + f
        tokens += (["+"] if tokens else []) + term
    return tokens


def spaced_variants(rng, tokens):
    """A space at every token boundary, and one space at a drawn one
    (the ends included)."""
    k = rng.below(len(tokens) + 1)
    return [" ".join(tokens), "".join(tokens[:k]) + " " + "".join(tokens[k:])]


def test_one_space_at_any_token_boundary_changes_nothing():
    rng = SplitMix64(15)
    for _ in range(150):
        support = SupportSet.from_points(staircase_support(rng))
        tokens = _TOKEN.findall(germ_text(support))
        assert "".join(tokens) == germ_text(support)
        for text in spaced_variants(rng, tokens):
            assert parse_germ(text) == support, text
        lifting = random_lifted_support(rng)
        shift = rng.below(3)
        lifting = LiftedSupport(tuple((p, h - shift) for p, h in lifting.entries))
        for text in spaced_variants(rng, lifted_tokens(rng, lifting)):
            assert parse_puiseux_poly(text) == lifting, text


def test_space_before_i_changes_nothing():
    # juxtaposition is a product, so "2 i" reads as 2i, as "2 x" reads as 2x
    rng = SplitMix64(16)
    for _ in range(300):
        terms = {}
        for k, cell in enumerate(rng.sample(0, 35, rng.between(1, 6))):
            c = rng.between(1, 4) * (1 if rng.below(2) else -1)
            terms[divmod(cell, 6)] = (0, c) if not k or rng.below(2) else (c, 0)
        support = SupportSet(tuple(terms.items()))
        text = germ_text(support)
        assert "i" in text
        assert parse_germ(text.replace("i", " i")) == support, text
    assert parse_germ("2 i*x^2+y^3") == parse_germ("2i*x^2+y^3")
    assert parse_germ("x^2+2 \ti") == parse_germ("x^2+2i")


_GERM_CHUNKS = ["x", "y", "i", "^", "*", "+", "-", "0", "1", "2", "12", "x^", "y*", "2*"]
_LIFTED_CHUNKS = ["t", "z", "w", "^", "*", "+", "-", "/", "(", ")", "0", "1", "2",
                  "t^", "t^1/", "t^(", "z^", "w*"]


def test_a_blank_at_every_token_boundary_keeps_each_error_at_its_token():
    # an error used to point at the blank after a '*' ("x* +y") or a '/'
    # ("t^1/ 0z") instead of at the token it names
    rng = SplitMix64(23)
    for parse, chunks, moved in [(parse_germ, _GERM_CHUNKS, "expected a variable after '*'"),
                                 (parse_puiseux_poly, _LIFTED_CHUNKS, "zero denominator")]:
        messages = set()
        for _ in range(4000):
            text = "".join(chunks[rng.below(len(chunks))] for _ in range(rng.between(1, 8)))
            tokens = _TOKEN.findall(text)
            assert "".join(tokens) == text
            spaced = " " + " ".join(tokens) + " "
            # the offset of each token, and of the end, in both texts
            at, offsets = 0, {len(text): len(spaced)}
            for k, token in enumerate(tokens):
                offsets[at] = 1 + at + k
                at += len(token)
            try:
                expect = parse(text)
            except TropnewtonError as exc:
                with pytest.raises(type(exc)) as got:
                    parse(spaced)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc)), spaced
                if isinstance(exc, ParseError):
                    assert got.value.pos == offsets[exc.pos], (text, spaced)
                    messages.add(str(exc))
            else:
                assert parse(spaced) == expect, spaced
        assert moved in messages, parse


# --- fuzzing ----------------------------------------------------------------

def fuzz_string(rng, alphabet):
    return "".join(alphabet[rng.below(len(alphabet))] for _ in range(rng.below(13)))


_JSON_SCALARS = [None, True, False, 0, 1, 2, -1, 10 ** 30, 1.5, "", "1", "3/2", "-1/2",
                 "1/0", "x", "1/2/3", " 2"]
_JSON_KEYS = ["i", "j", "t", "coeff", "monomials", "x"]


def json_value(rng, depth=0):
    """A random decoded JSON value: scalars, lists and objects."""
    kind = rng.below(4 if depth < 3 else 1)
    if kind == 1:
        return [json_value(rng, depth + 1) for _ in range(rng.below(4))]
    if kind == 2:
        return {_JSON_KEYS[rng.below(len(_JSON_KEYS))]: json_value(rng, depth + 1)
                for _ in range(rng.below(4))}
    return _JSON_SCALARS[rng.below(len(_JSON_SCALARS))]


def json_monomial(rng):
    """Mostly well-formed entries with, now and then, a bad or extra field."""
    if not rng.below(10):
        return json_value(rng)
    entry = {}
    fields = {"i": lambda: rng.below(4), "j": lambda: rng.below(4),
              "t": lambda: f"{rng.between(-3, 3)}/{rng.between(1, 3)}",
              "coeff": lambda: rng.between(-2, 2)}
    for key, good in fields.items():
        if rng.below(4):
            entry[key] = good() if rng.below(5) else json_value(rng)
    if not rng.below(10):
        entry[_JSON_KEYS[rng.below(len(_JSON_KEYS))]] = json_value(rng)
    return entry


def json_object(rng):
    """Mostly a "monomials" list, now and then with an extra key; else
    any JSON value."""
    if not rng.below(10):
        return json_value(rng)
    obj = {"monomials": [json_monomial(rng) for _ in range(rng.below(6))]}
    if not rng.below(10):
        obj[_JSON_KEYS[rng.below(len(_JSON_KEYS))]] = json_value(rng)
    return obj


def test_parsers_raise_only_their_own_errors():
    # every input parses or raises a TropnewtonError, never another exception
    rng = SplitMix64(10)
    for parse, draw, count in [
            (parse_germ, lambda: fuzz_string(rng, "xxyyi0123456789+-*^  "), 5000),
            (parse_puiseux_poly, lambda: fuzz_string(rng, "ttzzww01123456789+-*^/()  "), 5000),
            (parse_json_obj, lambda: json_object(rng), 3000)]:
        parsed = 0
        for _ in range(count):
            try:
                parse(draw())
                parsed += 1
            except TropnewtonError:
                pass
        assert 0 < parsed < count, parse


# --- JSON -------------------------------------------------------------------

def test_json_plain_support():
    obj = {"monomials": [{"i": 5, "j": 0}, {"i": 2, "j": 2}, {"i": 0, "j": 5}]}
    s = parse_json_obj(obj)
    assert isinstance(s, SupportSet)
    assert points(s) == {(5, 0), (2, 2), (0, 5)}


def test_json_schema_errors_carry_pointers():
    cases = [
        ({}, "/monomials"),
        ({"monomials": []}, "/monomials"),
        ({"monomials": [{"i": 1}]}, "/monomials/0"),
        ({"monomials": [{"i": 1, "j": True}]}, "/monomials/0/j"),
        ({"monomials": [{"i": 1, "j": -1}]}, "/monomials/0/j"),
        ({"monomials": [{"i": 1, "j": 0, "coeff": 0}]}, "/monomials/0/coeff"),
        ({"monomials": [{"i": 1, "j": 0, "nu": "3"}]}, "/monomials/0/nu"),
        ({"monomials": [{"i": 1, "j": 0, "t": 3}]}, "/monomials/0/t"),
        ({"monomials": [{"i": 1, "j": 0, "t": "3/0"}]}, "/monomials/0/t"),
    ]
    for obj, pointer in cases:
        with pytest.raises(SchemaError) as e:
            parse_json_obj(obj)
        assert e.value.pointer == pointer, obj


class PairList(Mapping):
    """A mapping read from a list of pairs, which may name a point twice."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return dict(self.pairs)[key]

    def __iter__(self):
        return (key for key, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def test_lifted_mapping_rejects_non_lattice_keys():
    # (3/2, 1/2) used to be truncated onto (1, 0), and the later key won
    for bad in [{(Fraction(3, 2), Fraction(1, 2)): 5, (1, 0): 7},
                {(1, Fraction(1, 2)): 5, (0, 0): 1},
                {(1, 2, 3): 1}, {"ab": 1}, {LatticePoint(Fraction(3, 2), 0): 1}]:
        with pytest.raises(SchemaError, match="is not a lattice point"):
            LiftedSupport.from_mapping(bad)
    ls = LiftedSupport.from_mapping({(Fraction(2), 1): "3/2", LatticePoint(0, 0.0): 0})
    assert ls.entries == (((0, 0), 0), ((2, 1), Fraction(3, 2)))
    assert all(type(c) is int for p in ls.points for c in p)


def test_lifted_heights_that_are_not_rational_are_schema_errors():
    # NaN and "x" used to raise ValueError, infinity OverflowError
    for height in (float("nan"), float("inf"), "x", None, 1j):
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"height {height!r} of point (1, 0) is not a rational number") + "$"):
            LiftedSupport.from_mapping({(0, 0): 0, (1, 0): height})
    assert LiftedSupport.from_mapping({(1, 0): 0.1}).entries == (((1, 0), Fraction(0.1)),)


def test_support_points_reject_non_lattice_coordinates():
    # (3/2, 0) used to be truncated onto (1, 0), leaving two points
    with pytest.raises(SchemaError, match="is not a lattice point"):
        SupportSet.from_points([(Fraction(3, 2), 0), (1, 0), (0, 2)])
    s = SupportSet.from_points([(Fraction(2), 0), (0, 3.0)])
    assert s.points == ((0, 3), (2, 0))
    assert all(type(c) is int for p in s.points for c in p)


def test_hand_built_support_set_is_checked_like_from_points():
    P = LatticePoint
    # each of these used to be kept as given, and serialize_json crashed on it
    with pytest.raises(DuplicateMonomialError, match=re.escape("x^5 y^0 appears twice")):
        SupportSet(terms=(((5, 0), (1, 0)), ((5, 0), (3, 0)), ((0, 5), (1, 0))))
    with pytest.raises(SchemaError, match="is not a lattice point"):
        SupportSet(terms=(((5.5, 0), (1, 0)), ((0, 5), (1, 0))))
    message = "support must be nonempty with nonzero coefficients"
    for terms in [(), (((5, 0), (0, 0)), ((0, 5), (1, 0))), (((5, 0), 0), ((0, 5), 1))]:
        with pytest.raises(EmptySupportError, match=message):
            SupportSet(terms=terms)
    # plain-tuple points become LatticePoints, in point order
    s = SupportSet(terms=(((5, 0), (-2, 0)), ((0, 5), (1, 0)), ((2, 2), (3, 0))))
    assert s.terms == ((P(0, 5), (1, 0)), (P(2, 2), (3, 0)), (P(5, 0), (-2, 0)))
    assert all(type(p) is P for p in s.points)
    assert s == SupportSet(terms=(((0, 5), 1), ((2, 2), 3), ((5, 0), -2)))
    assert parse_json_obj(json.loads(serialize_json(s))) == s


def test_support_coefficients_are_ints_or_pairs_of_ints():
    # an int coefficient used to be kept bare, and serialize_json and
    # germ_text then raised TypeError on it
    s = SupportSet(terms=(((5, 0), 7), ((0, 5), (1, 0))))
    assert s.terms == ((LatticePoint(0, 5), (1, 0)), (LatticePoint(5, 0), (7, 0)))
    assert parse_json_obj(json.loads(serialize_json(s))) == s
    assert parse_germ(germ_text(s)) == s
    for bad in [1.5, (1.5, 0), True, (True, 0), "7", ("1", 0), (1, 0, 0)]:
        with pytest.raises(SchemaError, match=re.escape("support point (5, 0)")):
            SupportSet(terms=(((5, 0), bad), ((0, 5), (1, 0))))


def test_lifted_mapping_rejects_a_repeated_point():
    with pytest.raises(DuplicateMonomialError, match=re.escape("z^1 w^0 appears twice")):
        LiftedSupport.from_mapping(PairList([((1, 0), 7), ((0, 0), 1),
                                             ((Fraction(1), 0), 5)]))


def test_hand_built_lifted_support_is_checked_like_a_mapping():
    P = LatticePoint
    with pytest.raises(DuplicateMonomialError, match=re.escape("z^1 w^1 appears twice")):
        LiftedSupport(((P(1, 1), 5), (P(1, 1), -3), (P(0, 0), 0), (P(2, 0), 1)))
    with pytest.raises(SchemaError, match="is not a lattice point"):
        LiftedSupport((((Fraction(1, 2), 0), 1), ((0, 0), 0), ((0, 1), 2)))
    with pytest.raises(EmptySupportError):
        LiftedSupport(())
    # plain-tuple keys become LatticePoints, heights Fractions, in point order
    ls = LiftedSupport((((2, 0), 1), ((0, 0), 0), ((0, 2), "1/2")))
    assert ls.entries == ((P(0, 0), 0), (P(0, 2), Fraction(1, 2)), (P(2, 0), 1))
    assert all(type(p) is P and type(h) is Fraction for p, h in ls.entries)
    assert ls == LiftedSupport.from_mapping({(0, 2): "1/2", (2, 0): 1, (0, 0): 0})


def test_lifted_support_checks_each_key_once(monkeypatch):
    import tropnewton.parsing as parsing
    lattice_key, seen = parsing.lattice_key, []

    def counting(p, what="point"):
        seen.append(p)
        return lattice_key(p, what)

    monkeypatch.setattr(parsing, "lattice_key", counting)
    LiftedSupport.from_mapping({(0, 0): 0, (1, 0): 1, (0, 1): 2})
    assert seen == [(0, 0), (1, 0), (0, 1)]


def test_json_plain_coefficients_combine_and_cancel():
    obj = {"monomials": [{"i": 1, "j": 0, "coeff": 2},
                         {"i": 1, "j": 0, "coeff": -2},
                         {"i": 0, "j": 1}]}
    assert points(parse_json_obj(obj)) == {(0, 1)}
    obj["monomials"].pop()
    with pytest.raises(SchemaError):
        parse_json_obj(obj)


def test_json_file_round_trip(tmp_path):
    s = parse_germ("x^5+3x^2*y^2-y^5")
    text = serialize_json(s)
    path = tmp_path / "support.json"
    path.write_text(text)
    again = load_json(path)
    assert again == s


def test_invalid_json_text_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{monomials: [")
    with pytest.raises(SchemaError):
        load_json(path)


def test_serialized_form_is_canonical():
    a = serialize_json(parse_germ("y^5+x^5+x^2y^2"))
    b = serialize_json(parse_germ("x^5+x^2*y^2+y^5"))
    assert a == b


# --- canonical germ text ----------------------------------------------------

def test_germ_text_golden():
    assert germ_text(parse_germ("y^5+x^5+x^2y^2")) == "x^2*y^2+x^5+y^5"
    assert germ_text(parse_germ("x^2+y^3")) == "x^2+y^3"
    assert germ_text(parse_germ("1-x+2y-3x*y")) == "1-x+2y-3x*y"


def test_germ_text_parse_is_identity():
    rng = random.Random(20260814)
    for _ in range(200):
        terms = {}
        for _k in range(rng.randrange(1, 7)):
            p = (rng.randrange(0, 8), rng.randrange(0, 8))
            c = rng.choice([c for c in range(-5, 6) if c != 0])
            terms[p] = (c, 0)
        s = SupportSet(tuple(terms.items()))
        assert parse_germ(germ_text(s)) == s


def test_germ_text_round_trips_gaussian_coefficients():
    # a coefficient with both parts nonzero is written as two terms of its
    # monomial, which parse_germ sums back; the constant term included
    assert germ_text(parse_germ("2*x^2+3i*x^2+y^3")) == "2x^2+3ix^2+y^3"
    assert germ_text(parse_germ("-1-i+x")) == "-1-i+x"
    rng = SplitMix64(26)
    mixed = 0
    for _ in range(300):
        terms = {}
        for cell in rng.sample(0, 35, rng.between(1, 6)):
            c = (0, 0)
            while c == (0, 0):
                c = (rng.between(-3, 3), rng.between(-3, 3))
            terms[divmod(cell, 6)] = c
            mixed += all(c)
        s = SupportSet(tuple(terms.items()))
        assert parse_germ(germ_text(s)) == s, germ_text(s)
    assert mixed > 300
