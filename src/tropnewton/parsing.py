"""Parsers and serializers for supports and lifted supports.

Three input routes produce the two data shapes:

  * germ text like ``x^5+x^2*y^2+y^5``      -> SupportSet
  * JSON ``{"monomials": [...]}``           -> SupportSet
  * lifted text like ``1+tz+t^3z^2``        -> LiftedSupport

Both text routes share one signed-term loop and one scanner, whose
``peek`` alone steps over whitespace: blanks may stand between any two
tokens, never inside an integer.  Each data shape is checked in one
place, its constructor, so the text parsers only read syntax; the JSON
route keeps its SchemaErrors, which point at the bad entry of outside
input.

Coefficients only matter up to cancellation, so germ coefficients are
kept as Gaussian integers (re, im) and everything else about them is
forgotten.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import (
    DuplicateMonomialError,
    EmptySupportError,
    NegativeExponentError,
    ParseError,
    SchemaError,
    require,
)
from .lattice import LatticePoint, lattice_key, lattice_keys


@dataclass(frozen=True)
class SupportSet:
    """Finite set of exponent points with nonzero Gaussian coefficients."""

    terms: tuple[tuple[LatticePoint, tuple[int, int]], ...]

    def __post_init__(self):
        """Checked once, however the terms were built, and stored sorted
        with LatticePoint keys: terms that are not (point, coefficient)
        pairs, a non-lattice point or a coefficient not an int c (kept as
        (c, 0)) or a pair of ints is a SchemaError, a repeated point a
        DuplicateMonomialError, and no terms or a zero coefficient an
        EmptySupportError."""
        coeffs: dict[LatticePoint, tuple[int, int]] = {}
        try:
            for p, c in self.terms:
                point = lattice_key(p, "support point")
                if point in coeffs:
                    raise DuplicateMonomialError(f"monomial x^{point.i} y^{point.j} appears twice")
                coeffs[point] = _gaussian(c, point)
        except (TypeError, ValueError):  # the body raises only package errors
            raise SchemaError("support terms must be (point, coefficient) pairs") from None
        if not coeffs or any(c == (0, 0) for c in coeffs.values()):
            raise EmptySupportError("support must be nonempty with nonzero coefficients")
        object.__setattr__(self, "terms", tuple(sorted(coeffs.items())))

    @classmethod
    def from_points(cls, points, coeffs: Mapping | None = None) -> "SupportSet":
        """Terms from points, coefficient one unless ``coeffs`` names it;
        a point given twice is kept once."""
        return cls(tuple((p, (coeffs or {}).get(p, (1, 0)))
                         for p in lattice_keys(points, "support point")))

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        return tuple(p for p, _ in self.terms)


def _gaussian(c, point: LatticePoint) -> tuple[int, int]:
    pair = (c, 0) if isinstance(c, int) else c
    if not (isinstance(pair, tuple) and len(pair) == 2 and all(type(x) is int for x in pair)):
        raise SchemaError(f"coefficient {c!r} of support point {tuple(point)} "
                          "is neither an int nor a pair of ints")
    return pair


@dataclass(frozen=True)
class LiftedSupport:
    """Exponent points together with exact rational lifting values."""

    entries: tuple[tuple[LatticePoint, Fraction], ...]

    def __post_init__(self):
        """Checked once, however the entries were built, and stored sorted.

        Entries that are not (point, height) pairs, a key that is not a
        pair of integral numbers, or a height that is not a rational
        number, is a SchemaError; a point named by two entries is a
        DuplicateMonomialError.  Keys become LatticePoints and heights
        Fractions, so the hull code can trust both; a height that is a
        Fraction already is kept as it is.
        """
        heights: dict[LatticePoint, Fraction] = {}
        try:
            for p, v in self.entries:
                point = lattice_key(p, "lifted support key")
                if point in heights:
                    raise DuplicateMonomialError(f"monomial z^{point.i} w^{point.j} appears twice")
                try:
                    heights[point] = v if type(v) is Fraction else Fraction(v)
                except (TypeError, ValueError, OverflowError):
                    raise SchemaError(f"height {v!r} of point {tuple(point)} "
                                      "is not a rational number") from None
        except (TypeError, ValueError):  # the body raises only package errors
            raise SchemaError("lifted support entries must be (point, height) pairs") from None
        if not heights:
            raise EmptySupportError("lifted support must be nonempty")
        object.__setattr__(self, "entries", tuple(sorted(heights.items())))

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "LiftedSupport":
        """Entries from a ``{(i, j): height}`` mapping; two keys that name
        one point (distinct objects) are a DuplicateMonomialError, and
        anything but a mapping a SchemaError."""
        try:
            entries = tuple(mapping.items())
        except (AttributeError, TypeError):
            raise SchemaError(f"a lifting must be a mapping, not {type(mapping).__name__}") from None
        return cls(entries)

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        return tuple(p for p, _ in self.entries)

    @cached_property
    def nu(self) -> Mapping[LatticePoint, Fraction]:
        """The heights by point, read-only, built on first use."""
        return MappingProxyType(dict(self.entries))


class _Scanner:
    """Reads the tokens of ``text`` left to right.  Whitespace is stepped
    over in ``peek`` alone, so every read starts at the next token, and
    after a ``peek`` ``pos`` is that token's offset, or the end of the
    text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None, cls=ParseError):
        raise cls(message, self.text, self.pos if pos is None else pos)

    def peek(self) -> str:
        """The next token's first character, or "" at the end."""
        ch = self.text[self.pos:self.pos + 1]
        while ch.isspace():
            self.pos += 1
            ch = self.text[self.pos:self.pos + 1]
        return ch

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def accept(self, ch: str) -> bool:
        """Take the next character if it is ``ch``."""
        if self.peek() != ch:
            return False
        self.pos += 1
        return True

    def integer(self, zero: str = "") -> int:
        """A run of decimal digits, read from the raw text, so "1 2" is
        two integers; ``isdigit`` would also take digits like '²' that
        ``int`` refuses.  A zero is the error ``zero``, if one is named."""
        if not self.peek().isdecimal():
            self.error("expected an integer")
        start = self.pos
        while self.text[self.pos:self.pos + 1].isdecimal():
            self.pos += 1
        try:
            value = int(self.text[start:self.pos])
        except ValueError:  # longer than the int conversion limit
            self.error(_over_digit_limit(self.pos - start), pos=start)
        if zero and not value:
            self.error(zero, pos=start)
        return value

    def natural_exponent(self) -> int:
        """Integer after '^' where negatives are a distinct error."""
        if self.peek() == "-":
            self.error("exponent must be non-negative", cls=NegativeExponentError)
        return self.integer()


def _gauss_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] + b[0], a[1] + b[1])


def _signed_terms(text: str, parse_term):
    """The term loop of both text routes: an optional leading sign, then
    terms joined by '+' or '-', each read by ``parse_term(sc, negative)``
    right after its sign; the terms come back in text order."""
    require(isinstance(text, str), f"expression must be a str, not {type(text).__name__}")
    sc = _Scanner(text)
    if not sc.peek():
        sc.error("empty expression")
    terms = []
    while True:
        negative = sc.peek() == "-"
        if sc.peek() in "+-":
            sc.take()
        terms.append(parse_term(sc, negative))
        if not sc.peek():
            return terms
        if sc.peek() not in "+-":
            sc.error(f"expected '+' or '-', found {sc.peek()!r}")


def parse_germ(text: str) -> SupportSet:
    """Parse a polynomial germ in x, y and return its support.

    Terms are combined; a support that cancels to nothing raises
    EmptySupportError.  Coefficients may be integers, ``i``, or ``<int>i``.
    """
    acc: dict[LatticePoint, tuple[int, int]] = {}
    for point, coeff in _signed_terms(text, _parse_germ_term):
        acc[point] = _gauss_add(acc.get(point, (0, 0)), coeff)
    terms = {p: c for p, c in acc.items() if c != (0, 0)}
    if not terms:
        raise EmptySupportError("all terms cancelled")
    return SupportSet(tuple(terms.items()))


def _parse_germ_term(sc: _Scanner, negative: bool) -> tuple[LatticePoint, tuple[int, int]]:
    coeff: tuple[int, int] | None = None
    if sc.peek().isdecimal():
        n = sc.integer(zero="zero coefficient")
        coeff = (0, n) if sc.accept("i") else (n, 0)  # "2 i" is 2i, as "2 x" is 2x
    elif sc.accept("i"):
        coeff = (0, 1)
    star_after_coeff = coeff is not None and sc.accept("*")
    exps = {"x": 0, "y": 0}
    seen_var = False
    while sc.peek() in ("x", "y"):
        var = sc.take()
        exps[var] += sc.natural_exponent() if sc.accept("^") else 1
        seen_var = True
        if sc.accept("*") and sc.peek() not in ("x", "y"):
            sc.error("expected a variable after '*'")
    if star_after_coeff and not seen_var:
        sc.error("expected a monomial after '*'")
    if coeff is None and not seen_var:
        sc.error("expected a term")
    re_, im = coeff or (1, 0)
    return LatticePoint(exps["x"], exps["y"]), (-re_, -im) if negative else (re_, im)


def _rational_exponent(sc: _Scanner) -> Fraction:
    wrapped = sc.accept("(")
    neg = sc.accept("-")
    num = sc.integer()
    den = sc.integer(zero="zero denominator") if sc.accept("/") else 1
    if wrapped and not sc.accept(")"):
        sc.error("expected ')'")
    return Fraction(-num if neg else num, den)


def parse_puiseux_poly(text: str) -> LiftedSupport:
    """Parse ``t``-lifted terms in z, w like ``1+tz+t^3z^2+t^2zw``.

    Coefficients are implicitly one, so a '-' sign is a ParseError;
    factors appear in t, z, w order, and a '*' may join two of them but
    must be followed by one; a repeated (i, j) monomial is a
    DuplicateMonomialError.
    """
    return LiftedSupport(_signed_terms(text, _parse_lifted_term))


def _parse_lifted_term(sc: _Scanner, negative: bool) -> tuple[LatticePoint, Fraction]:
    if negative:
        sc.error("coefficients are implicitly 1", pos=sc.pos - 1)
    first = sc.peek()
    start = sc.pos
    if first.isdecimal():
        if sc.integer() != 1:
            sc.error("coefficients are implicitly 1", pos=start)
        _take_star(sc)
    powers = {"t": 0, "z": 0, "w": 0}
    for var in "tzw":
        if not sc.accept(var):
            continue
        powers[var] = 1
        if sc.accept("^"):
            powers[var] = _rational_exponent(sc) if var == "t" else sc.natural_exponent()
        if var != "w":  # '*' may follow each factor but the last
            _take_star(sc)
    if sc.pos == start:
        sc.error("expected a term (t, z, w or 1)")
    return LatticePoint(powers["z"], powers["w"]), Fraction(powers["t"])


def _take_star(sc: _Scanner) -> None:
    """Take a '*' only when a factor t, z or w follows it: a dangling '*'
    is put back, ending the term, and the term loop reports it."""
    if sc.accept("*"):
        star = sc.pos - 1
        if sc.peek() not in ("t", "z", "w"):
            sc.pos = star


# --- JSON route -------------------------------------------------------------

def _over_digit_limit(digits: int) -> str:
    return (f"an integer of {digits} digits is over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for int conversion")


class _LongLiteral:
    """A JSON integer literal that ``int`` refuses for its length, kept
    until ``parse_json_obj`` can name the entry it sits in."""

    def __init__(self, digits: int):
        self.digits = digits


def _read_json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongLiteral(len(text.lstrip("-")))


def _require_int(value, pointer: str, message: str) -> int:
    if isinstance(value, _LongLiteral):
        raise SchemaError(_over_digit_limit(value.digits), pointer)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(message, pointer)
    return value


def _require_nonneg_int(value, pointer: str) -> int:
    value = _require_int(value, pointer, "must be an integer")
    if value < 0:
        raise SchemaError("must be non-negative", pointer)
    return value


_ALLOWED_KEYS = {"i", "j", "coeff"}


def parse_json_obj(obj) -> SupportSet:
    """Validate a decoded JSON object and build its support."""
    if not isinstance(obj, dict) or "monomials" not in obj:
        raise SchemaError("top level must be an object with \"monomials\"", "/monomials")
    monomials = obj["monomials"]
    extra = set(obj) - {"monomials"}
    if extra:
        raise SchemaError(f"unknown key {sorted(extra)[0]!r}", "/" + sorted(extra)[0])
    if not isinstance(monomials, list) or not monomials:
        raise SchemaError("must be a non-empty list", "/monomials")

    support_acc: dict[LatticePoint, tuple[int, int]] = {}
    for k, entry in enumerate(monomials):
        ptr = f"/monomials/{k}"
        if not isinstance(entry, dict):
            raise SchemaError("must be an object", ptr)
        unknown = set(entry) - _ALLOWED_KEYS
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r}",
                              f"{ptr}/{sorted(unknown)[0]}")
        if "i" not in entry or "j" not in entry:
            raise SchemaError("needs both \"i\" and \"j\"", ptr)
        i = _require_nonneg_int(entry["i"], f"{ptr}/i")
        j = _require_nonneg_int(entry["j"], f"{ptr}/j")
        coeff = _require_int(entry.get("coeff", 1), f"{ptr}/coeff",
                             "coeff must be an integer")
        if coeff == 0:
            raise SchemaError("coeff must be nonzero", f"{ptr}/coeff")
        point = LatticePoint(i, j)
        support_acc[point] = _gauss_add(support_acc.get(point, (0, 0)), (coeff, 0))

    support_acc = {p: c for p, c in support_acc.items() if c != (0, 0)}
    if not support_acc:
        raise SchemaError("support is empty after combining terms", "/monomials")
    return SupportSet(tuple(support_acc.items()))


def load_json(path) -> SupportSet:
    """Read and validate a support file, UTF-8 as JSON requires.  IO
    errors propagate to the caller; bytes that are not UTF-8, bad or too
    deeply nested JSON and integers too long for ``int`` are
    SchemaErrors."""
    raw = Path(path).read_bytes()
    try:
        obj = json.loads(raw.decode("utf-8"), parse_int=_read_json_int)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid JSON: not UTF-8 ({exc.reason} at byte "
                          f"{exc.start})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return parse_json_obj(obj)


def serialize_json(support: SupportSet) -> str:
    """Canonical JSON text; parse_json_obj inverts it exactly.  The
    schema has no complex coefficient, so one is a SchemaError."""
    monomials = []
    for p, (re, im) in support.terms:
        if im != 0:
            raise SchemaError(f"coefficient {re}+{im}i at {p} has no JSON form")
        entry = {"i": p.i, "j": p.j}
        if re != 1:
            entry["coeff"] = re
        monomials.append(entry)
    return json.dumps({"monomials": monomials}, indent=2, sort_keys=True)


def _coeff_prefix(c: tuple[int, int], bare_point: bool) -> str:
    re, im = c
    if im == 0:
        body = "" if abs(re) == 1 and not bare_point else str(abs(re))
        return ("-" if re < 0 else "") + body
    body = ("" if abs(im) == 1 else str(abs(im))) + "i"
    return ("-" if im < 0 else "") + body


def germ_text(support: SupportSet) -> str:
    """Canonical germ string; parse_germ inverts it on its output.  A
    coefficient with both parts nonzero is written as two terms of its
    monomial, the real one first, as in ``2x^2+3ix^2``; parse_germ sums
    them back."""
    parts = []
    for p, (re, im) in sorted(support.terms, key=lambda t: (t[0].i + t[0].j, -t[0].i)):
        mono = []
        if p.i:
            mono.append("x" if p.i == 1 else f"x^{p.i}")
        if p.j:
            mono.append("y" if p.j == 1 else f"y^{p.j}")
        for c in ((re, 0), (0, im)) if re and im else ((re, im),):
            prefix = _coeff_prefix(c, bare_point=not mono)
            parts.append(prefix + "*".join(mono) if mono or prefix else "1")
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out
