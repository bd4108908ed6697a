"""Subcommand behavior, exit codes, and SVG output."""

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction

import pytest

from tropnewton import (
    LiftedSupport,
    NewtonDiagram,
    analyze,
    analyze_support,
    cli,
    dual_tropical_curve,
    lower_hull_subdivision,
    patchwork,
    restrict,
    separable_lifting,
    staircase_support,
    subdivide_diagram,
)
from tropnewton.cli import _build_parser, main
from tropnewton.corpus import SplitMix64, random_lifted_support, run_corpus
from tropnewton.errors import (
    InternalCheckError,
    ParityViolationError,
    ParseError,
    SchemaError,
    TropnewtonError,
)
from tropnewton.lattice import convex_hull, segment_lattice_points
from tropnewton.newton import crossed_square_count, triangle_square_count
from tropnewton.parsing import (
    SupportSet,
    germ_text,
    parse_germ,
    parse_puiseux_poly,
    serialize_json,
)
from tropnewton.svg import _fmt, render_svg

from oracles import deadline

QUINTIC = "x^5+x^2*y^2+y^5"
# SHA-256 of the figures `render GERM [FLAGS]` writes, pinned when the
# benchmark was introduced; the bytes must not drift.
SVG_DIGESTS = {
    (QUINTIC,): "dfcf98f32bd688fb5419f1de9022927a922f1427d6b5d6cc36c6a82cc384ac9e",
    (QUINTIC, "--region", "full"):
        "a83e5d55658b761014a318b5fd06fd896f74ec1e3a994620a10380c6373450a6",
    ("x^2+y^3",): "7bff95af2aa1b3319994e1b2b96bbd3afc465e506059bf06908b602785a3f8e6",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_prints_summary_and_exits_zero(capsys):
    code, out, err = run(capsys, "analyze", "x^5+x^2*y^2+y^5")
    assert code == 0
    assert "mu       = 11" in out
    assert "v        = 6" in out
    assert "r        = 5" in out
    assert "delta    = 6" in out
    assert "branches = 2" in out
    assert out.count("holds") == 3
    assert "FAILS" not in out


def test_analyze_json_to_stdout(capsys):
    code, out, err = run(capsys, "analyze", "x^2+y^3", "--json", "-")
    assert code == 0
    # stdout must be a single JSON document; the summary goes to stderr
    payload = json.loads(out)
    assert "mu " in err
    assert payload["mu"] == 2
    assert payload["identity_holds"] is True
    assert payload["gamma_lattice"] == [[0, 3], [2, 0]]


def test_analyze_json_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", "x^2+y^2", "--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert (payload["mu"], payload["v"], payload["r"]) == (1, 1, 0)


def test_analyze_exit_codes(capsys):
    assert run(capsys, "analyze", "x + y^2")[0] == 3
    assert run(capsys, "analyze", "x^2 + x*y")[0] == 3  # no y-axis point
    assert run(capsys, "analyze", "x^&")[0] == 2
    assert run(capsys, "analyze")[0] == 2  # no input at all


@pytest.mark.parametrize("field", ["identity_holds", "corollary_holds", "duality_ok"])
def test_one_failed_verdict_exits_one(monkeypatch, capsys, field):
    for command in ("analyze", "certify"):
        assert run(capsys, command, "x^2+y^3")[0] == 0
    real = cli.analyze
    monkeypatch.setattr(cli, "analyze",
                        lambda s: dataclasses.replace(real(s), **{field: False}))
    for command in ("analyze", "certify"):
        assert run(capsys, command, "x^2+y^3")[0] == 1


def test_parse_error_prints_a_caret(capsys):
    code, out, err = run(capsys, "analyze", "x^2 & y^3")
    assert code == 2
    assert out == ""
    assert err == "error: expected '+' or '-', found '&'\nx^2 & y^3\n    ^\n"


def test_a_long_bad_germ_gets_a_short_echo(capsys):
    # a window of the text around the error, '...' at each cut, and the
    # caret under the same character
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text in ("1" * 5000, "x^2+y^3+" + "x*" * 3000):
            code, out, err = run(capsys, "certify", text)
            assert (code, out) == (2, ""), text[:9]
            assert len(err.encode()) < 300, text[:9]
    finally:
        sys.set_int_max_str_digits(saved)
    text = "".join(chr(65 + k % 26) for k in range(200))
    for pos, cuts in [(0, (False, True)), (100, (True, True)), (199, (True, False)),
                      (200, (True, False))]:
        line, caret = ParseError("bad", text, pos).caret_block().split("\n")
        assert (line.startswith("..."), line.endswith("...")) == cuts, pos
        assert len(line) <= 86, pos
        assert caret.strip() == "^" and (text + " ")[pos] == (line + " ")[len(caret) - 1], pos


def test_certify_pass_lines(capsys):
    code, out, _ = run(capsys, "certify", "x^2+y^3")
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_emit_poly_golden(capsys):
    code, out, _ = run(capsys, "emit-poly", "x^2+y^3")
    assert code == 0
    assert out == "1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3\n"


def test_file_input_roundtrip(tmp_path, capsys):
    path = tmp_path / "germ.json"
    path.write_text(serialize_json(parse_germ("x^5+x^2*y^2+y^5")))
    code, out, _ = run(capsys, "analyze", "--file", str(path))
    assert code == 0
    assert "mu       = 11" in out
    assert run(capsys, "analyze", "x^2+y^3", "--file", str(path))[0] == 2
    assert run(capsys, "analyze", "--file", str(tmp_path / "nope.json"))[0] == 4


def test_lemma_command(capsys):
    code, out, _ = run(capsys, "lemma", "3", "2")
    assert code == 0
    assert out == "squares=1 I=4 PASS\n"
    code, out, _ = run(capsys, "lemma", "7", "1")
    assert code == 0
    assert out == "squares=0 I=7 PASS\n"
    assert run(capsys, "lemma", "4", "2")[0] == 3


def test_a_long_bad_t_value_gets_a_short_message(capsys, tmp_path):
    # the tool computes its own lifting, so a "t" height in a file is an
    # unknown key, short or past int's limit or not digits at all, and
    # the message never repeats the value
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        path = tmp_path / "t.json"
        for t in ("7", "1" * 5000, "1/" + "7" * 5000, "x" * 5000):
            path.write_text(json.dumps({"monomials": [{"i": 2, "j": 0, "t": t},
                                                      {"i": 0, "j": 3, "t": "5"}]}))
            for command in ("analyze", "certify", "emit-poly"):
                code, out, err = run(capsys, command, "--file", str(path))
                assert (code, out) == (2, ""), (command, t[:3])
                assert len(err.encode()) < 300, (command, t[:3])
                assert "/monomials/0/t: unknown key 't'" in err, (command, t[:3])
    finally:
        sys.set_int_max_str_digits(saved)


def test_lemma_on_legs_in_the_tens_of_thousands(capsys):
    # the square-by-square count would take minutes here
    code, out, _ = run(capsys, "lemma", "30001", "29999")
    assert (code, out) == (0, f"squares={30000 * 29998 // 2} I=59999 PASS\n")
    code, out, _ = run(capsys, "lemma", "10000", "99999")
    assert (code, out) == (0, f"squares={9999 * 99998 // 2} I=109998 PASS\n")


def test_lemma_on_thirty_digit_legs(capsys):
    # the floor sums take O(log P) steps; a count by columns would never end
    p, q = 10 ** 29 + 7, 10 ** 30 - 1
    code, out, _ = run(capsys, "lemma", str(p), str(q))
    assert (code, out) == (0, f"squares={(p - 1) * (q - 1) // 2} I={p + q - 1} PASS\n")
    code, out, _ = run(capsys, "lemma", "1000000000001", "1000000000000")
    assert (code, out) == (0, "squares=499999999999500000000000 I=2000000000000 PASS\n")


def test_lemma_counts_past_the_digit_limit_exit_3(capsys):
    # legs Python reads whose counts it will not print
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        leg = "1" + "0" * 2500
        code, out, err = run(capsys, "lemma", leg[:-1] + "1", leg)
        assert (code, out) == (3, "") and "4300 digits" in err
    finally:
        sys.set_int_max_str_digits(saved)


def test_corpus_command_reports_and_repeats(capsys):
    code, out1, _ = run(capsys, "corpus", "--seed", "9", "--count", "15")
    assert code == 0
    assert "15/15 identities hold" in out1
    _, out2, _ = run(capsys, "corpus", "--seed", "9", "--count", "15")
    assert out1 == out2


def test_corpus_rejects_zero_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--count", "0"])
    assert exc.value.code == 2


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "cusp.svg"
    code, _, _ = run(capsys, "render", "x^2+y^3", "--subdivision", "--curve",
                     "-o", str(target))
    assert code == 0
    svg = target.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count('class="cell') == 5
    assert svg.count('class="vertex"') == 5
    assert svg.count('class="ray"') == 6
    assert svg.count('class="seg"') == 5


def test_render_and_analyze_take_parse_germs_output():
    # a SupportSet or its points: the same figure and the same report
    for germ in ("x^2+y^3", QUINTIC, "3x^3-x*y+y^4",
                 "x^11+x^7*y^3+x^5*y^4+x^3*y^5+x*y^7+y^8"):
        support = parse_germ(germ)
        for region in ("gamma-minus", "full"):
            assert render_svg(support, region=region) == \
                render_svg(support.points, region=region), (germ, region)
        assert analyze(support).to_json() == analyze(support.points).to_json(), germ


def test_render_unwritable_path(capsys):
    code, _, err = run(capsys, "render", "x^2+y^3", "-o",
                       "/no-such-dir/fig.svg")
    assert code == 4
    assert "error" in err


def test_quintic_svg_highlights_squares_and_half_edges():
    quintic = parse_germ("x^5+x^2*y^2+y^5").points
    sub_only = render_svg(quintic, show_curve=False)
    assert sub_only.count('class="cell square"') == 6
    restricted = render_svg(quintic)
    assert restricted.count('class="half"') == 2
    # exact midpoints of the two pruned edges, after the y flip
    assert 'x2="7.5" y2="1"' in restricted
    assert 'x2="8" y2="1.5"' in restricted
    assert restricted.count('class="vertex"') == 14
    full = render_svg(quintic, region="full")
    assert full.count('class="vertex"') == 15
    assert full.count('class="half"') == 0
    assert full.count('class="weight"') == 1  # the weight 5 ray


def test_render_rejects_an_unknown_region():
    quintic = parse_germ(QUINTIC).points
    with pytest.raises(SchemaError, match="'gama-minus' is not one of gamma-minus, full"):
        render_svg(quintic, region="gama-minus")


def test_render_region_needs_the_curve_layer(tmp_path, capsys):
    # --region restricts the curve, so with --subdivision alone it would
    # be ignored: exit 2, naming the conflict, and no figure written
    target = tmp_path / "fig.svg"
    for region in ("gamma-minus", "full"):
        code, out, err = run(capsys, "render", QUINTIC, "--subdivision", "--region", region,
                             "-o", str(target))
        assert (code, out) == (2, "") and "--region" in err and "--subdivision" in err
        assert not target.exists()
    quintic = parse_germ(QUINTIC).points
    assert run(capsys, "render", QUINTIC, "--subdivision", "-o", str(target))[0] == 0
    assert target.read_text() == render_svg(quintic, show_curve=False)
    for layers, cells in ((["--curve"], False), (["--curve", "--subdivision"], True), ([], True)):
        assert run(capsys, "render", QUINTIC, *layers, "--region", "full", "-o", str(target))[0] == 0
        assert target.read_text() == render_svg(quintic, show_subdivision=cells, region="full")


def test_svg_is_deterministic_and_clips_rays():
    cusp = parse_germ("x^2+y^3").points
    a = render_svg(cusp)
    b = render_svg(cusp)
    assert a == b
    # every ray endpoint stays inside the declared viewbox
    header = a[a.index("viewBox=") + 9:]
    x0, y0, w, h = (float(t) for t in header[:header.index('"')].split())
    import re
    for m in re.finditer(r'<line ([^/]*)class="ray"', a):
        attrs = dict(re.findall(r'([a-z0-9-]+)="([^"]+)"', m.group(1)))
        assert x0 <= float(attrs["x2"]) <= x0 + w
        assert y0 <= float(attrs["y2"]) <= y0 + h


@pytest.mark.parametrize("args", sorted(SVG_DIGESTS))
def test_render_bytes_match_pinned_digest(tmp_path, capsys, args):
    target = tmp_path / "fig.svg"
    assert run(capsys, "render", *args, "-o", str(target))[0] == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SVG_DIGESTS[args]


def test_fmt_matches_fraction_rounding():
    def oracle(x):
        n = round(Fraction(x) * 10000)
        s = f"{abs(n) // 10000}.{abs(n) % 10000:04d}".rstrip("0").rstrip(".")
        return ("-" if n < 0 else "") + s

    rng = SplitMix64(11)
    cases = [0, 1, -1, 7, -12, 10**15, -(10**15)]
    cases += [rng.between(-10**6, 10**6) for _ in range(200)]
    # exact half-way ties, which half-even sends both ways
    cases += [Fraction(sign * (2 * k + 1), 20000)
              for k in range(400) for sign in (1, -1)]
    cases += [Fraction(sign * (2 * rng.below(10**9) + 1), 20000)
              for _ in range(200) for sign in (1, -1)]
    # negatives that round to zero and must print without a sign
    cases += [Fraction(-1, 20000), Fraction(-1, 30000), Fraction(-3, 10**9)]
    cases += [Fraction(rng.between(-10**12, 10**12), rng.between(1, 10**9))
              for _ in range(2000)]
    pairs = [(x.numerator, x.denominator) for x in map(Fraction, cases)]
    # the same values as unreduced pairs (n k, d k): ties, negatives, all
    pairs += [(n * k, d * k) for n, d in pairs[::3]
              for k in (2, 3, 10000, rng.between(2, 10**9))]
    pairs += [(-3, 60000), (3, 60000), (-6, 40000), (15, 20000 * 5), (-45, 60000)]
    for n, d in pairs:
        assert _fmt(n, d) == oracle(Fraction(n, d)), (n, d)
    assert _fmt(-1, 30000) == _fmt(-2, 60000) == "0"


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    full, plain = tmp_path / "full.svg", tmp_path / "plain.svg"
    assert run(capsys, "render", QUINTIC, "--region", "full", "-o", str(full))[0] == 0
    assert run(capsys, "render", QUINTIC, "-o", str(plain))[0] == 0
    quintic = parse_germ(QUINTIC).points
    assert plain.read_text() == render_svg(quintic)
    assert full.read_text() == render_svg(quintic, region="full")
    # an argparse exit leaves the parser usable
    with pytest.raises(SystemExit):
        main(["corpus", "--count", "0"])
    capsys.readouterr()
    assert run(capsys, "lemma", "2", "3")[:2] == (0, "squares=1 I=4 PASS\n")
    code, out, _ = run(capsys, "analyze", "x^2+y^3", "--json", "-")
    assert code == 0 and json.loads(out)["mu"] == 2
    code, out, _ = run(capsys, "certify", "x^2+y^3")
    assert code == 0
    assert out == ("mu = v + r: PASS (2 vs 1 + 1)\n"
                   "delta = v:  PASS (1 vs 1)\n"
                   "duality:    PASS\n")


# --- fuzzing the command line ----------------------------------------------

_NOT_DIGITS = "xyi+-*^ /()&\t"


def _pick(rng, options):
    return options[rng.below(len(options))]


def _germ(rng) -> str:
    """Mostly x^p + y^q with p, q < 7 and up to two mixed terms, and
    now and then mutated by inserting or replacing a non-digit or by
    cutting it short; no mutation joins two digits, so every exponent
    stays below 7."""
    terms = [f"x^{rng.between(2, 6)}", f"y^{rng.between(2, 6)}"]
    for _ in range(rng.below(3)):
        coeff = _pick(rng, ["", "2", "3i*", "i"])
        terms.insert(1, f"{coeff}x^{rng.between(0, 4)}*y^{rng.between(0, 4)}")
    text = terms[0] + "".join(_pick(rng, "+-") + term for term in terms[1:])
    for _ in range(_pick(rng, [0, 0, 0, 1, 2])):
        pos = rng.below(len(text) + 1)
        ch = _pick(rng, _NOT_DIGITS)
        text = _pick(rng, [text[:pos] + ch + text[pos:],
                           text[:pos] + ch + text[pos + 1:], text[:pos]])
    return text


def _long(rng, limit: int) -> str:
    return "1" + "0" * (limit + rng.below(1000))


def _file_bytes(rng, limit: int) -> bytes:
    """Contents for --file: supports, lifted supports, schema misfits,
    truncated or deep JSON, random bytes, other encodings, long digits."""
    good = serialize_json(parse_germ(_pick(rng, ["x^2+y^3", "x^5+x^2*y^2+y^5",
                                                 "3x^3-x*y+y^4"])))
    kind = rng.below(8)
    if kind == 0:
        return bytes(rng.below(256) for _ in range(rng.below(40)))
    if kind == 1:
        return good[:rng.below(len(good))].encode()
    if kind == 2:
        depth = _pick(rng, [10, 900, 3000, 20000])
        return (_pick(rng, ["", '{"monomials": ']) + "[" * depth).encode()
    if kind == 3:
        return _pick(rng, [b"\xff", b"\xc3", b""]) + good.encode(
            _pick(rng, ["utf-8", "utf-16", "latin-1"]))
    if kind == 4:  # exponents stay small or go past the limit, coefficients anything
        digits = _pick(rng, ["", "-"]) + _long(rng, limit)
        field = _pick(rng, ["i", "j", "coeff"])
        if field == "coeff":
            digits = _pick(rng, [digits, "9" * rng.between(1, 40)])
        entry = {"i": 2, "j": 0, field: "DIGITS"}
        return json.dumps({"monomials": [entry, {"i": 0, "j": 3}]}).replace(
            '"DIGITS"', digits).encode()
    if kind == 5:
        return json.dumps({"monomials": [{"i": 0, "j": 3, "t": "0"}, {"i": 2, "j": 0, "t": "1"}]},
                          indent=2, sort_keys=True).encode()
    if kind == 6:
        return _pick(rng, [b"{}", b"[]", b"null", b'{"monomials": 1}',
                           b'{"monomials": [{"i": 1}]}', b'{"monomials": [], "x": 1}',
                           b'{"monomials": [{"i": 2, "j": 0, "t": "1e9"}]}'])
    return good.encode()


def _cli_argv(rng, tmp_path, n: int, limit: int) -> list[str]:
    """argv over every subcommand, flag and bad value; --file contents
    and every output path live under tmp_path."""
    cmd = _pick(rng, ["analyze", "certify", "emit-poly", "render", "lemma",
                      "corpus", "nonsense"])
    argv = [cmd]
    if cmd in ("analyze", "certify", "emit-poly", "render"):
        source = _pick(rng, ["text"] * 4 + ["file"] * 2 + ["both", "neither"])
        if source in ("text", "both"):
            argv.append(_germ(rng))
        if source in ("file", "both"):
            path = tmp_path / f"in{n}.json"
            path.write_bytes(_file_bytes(rng, limit))
            argv += ["--file", _pick(rng, [str(path), str(path), str(tmp_path),
                                           str(tmp_path / "missing.json")])]
    if cmd == "analyze" and rng.below(2):
        argv += ["--json", _pick(rng, ["-", str(tmp_path / f"out{n}.json"),
                                       str(tmp_path)])]
    if cmd == "render":
        argv += [flag for flag in ("--subdivision", "--curve") if rng.below(2)]
        if rng.below(2):
            argv += ["--region", _pick(rng, ["gamma-minus", "full", "gama-minus"])]
        if rng.below(8):
            argv += ["-o", _pick(rng, [str(tmp_path / f"fig{n}.svg"), str(tmp_path),
                                       str(tmp_path / "no-dir" / "fig.svg")])]
    small = ["-1", "0", "1", "2", "3", "4", "5", "x", "2.5", _long(rng, limit)]
    if cmd == "lemma":
        argv += [_pick(rng, small) for _ in range(rng.between(1, 3))]
    if cmd == "corpus":  # --count always, as 100 germs take a second
        argv += ["--count", _pick(rng, small[:5])]
        for flag in ("--seed", "--pmax", "--qmax"):
            if rng.below(2):
                argv += [flag, _pick(rng, small if flag == "--seed" else small[:7])]
    if not rng.below(8):
        argv.insert(rng.between(1, len(argv)),
                    _pick(rng, ["--file", "--json", "--subdivision", "--region",
                                "-o", "--seed", "--count", "--bogus"]))
    return argv


def test_cli_fuzz_ends_in_a_documented_exit(tmp_path, capsys, monkeypatch):
    # every argv and --file ends in exit 0-4, argparse's exit 2 included;
    # only an InternalCheckError, a defect, may escape.  A stray -o or
    # --json can make a germ the output path, so run in tmp_path.
    monkeypatch.chdir(tmp_path)
    limit = 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        rng = SplitMix64(18)
        seen = set()
        for n in range(800):
            argv = _cli_argv(rng, tmp_path, n, limit)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("argparse", exc.code)
            except InternalCheckError:
                code = "internal"
            except Exception as exc:
                pytest.fail(f"{argv!r} raised {exc!r}")
            capsys.readouterr()
            assert code in (0, 1, 2, 3, 4, ("argparse", 2), "internal"), argv
            seen.add(code)
        assert {0, 2, 3, 4, ("argparse", 2)} <= seen

        # pinned: bytes that are not UTF-8, deep nesting, digit runs past the limit
        def file_code(data: bytes):
            path = tmp_path / "pinned.json"
            path.write_bytes(data)
            return run(capsys, "certify", "--file", str(path))

        code, _, err = file_code(b'\xff{"monomials": [{"i": 2, "j": 0}, {"i": 0, "j": 3}]}')
        assert code == 2 and "not UTF-8" in err
        code, _, err = file_code(b"[" * 3000)
        assert code == 2 and err.startswith("error: invalid JSON: ")
        code, _, err = file_code(b'{"monomials": [{"i": 2, "j": 0, "coeff": %s}, '
                                 b'{"i": 0, "j": 3}]}' % (b"1" * 5000))
        assert code == 2 and "/monomials/0/coeff" in err and f"{limit} digits" in err
        for text, pos, message in [("1" * 5000 + "x^2+y^3", 0, f"{limit} digits"),
                                   ("x^" + "1" * 5000 + "+y^3", 2, f"{limit} digits"),
                                   ("x^²+y^3", 2, "expected an integer")]:
            code, _, err = run(capsys, "certify", text)
            assert code == 2 and message in err, text
            assert err.endswith("\n" + " " * pos + "^\n"), text
        with pytest.raises(ParseError) as exc:
            parse_puiseux_poly("t^" + "1" * 5000 + "z+1+w")
        assert exc.value.pos == 2 and f"{limit} digits" in str(exc.value)
    finally:
        sys.set_int_max_str_digits(saved)


def _bound(rng):
    """A small bound or count: zero, negative, a float, a Fraction, NaN."""
    return _pick(rng, [0, 1, 2, 3, 4, 5, 9, 10, -1, -2, Fraction(5, 2), Fraction(6, 2),
                       2.0, 2.5, float("nan"), float("inf")])


def _junk(rng):
    """A small coordinate or height, now and then one that is not an
    integer: also text and None."""
    return _pick(rng, [0, 1, 2, 3, _bound(rng), "x", None])


# a square, a triangle, the region under the quintic's boundary and the
# quintic's domain, each valid as given (clockwise once reversed, and
# collinear with a midpoint inserted); a crossing ring; a repeated vertex
_RINGS = [[(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 0), (3, 0), (0, 3)],
          [(0, 0), (5, 0), (2, 2), (0, 5)], [(0, 5), (0, 0), (5, 0)],
          [(0, 0), (4, 4), (4, 0), (0, 8)], [(0, 0), (2, 0), (2, 0), (0, 2)]]


def _ring(rng) -> list:
    """A fixed ring, reversed or with a midpoint now and then, or 0 to 6
    points of a 6x6 grid; sometimes one coordinate is replaced by junk."""
    if rng.below(2):
        ring = list(_pick(rng, _RINGS))
        if not rng.below(3):
            ring.reverse()
        if not rng.below(4):
            (ai, aj), (bi, bj) = ring[0], ring[1]
            ring.insert(1, ((ai + bi) // 2, (aj + bj) // 2))
    else:
        ring = [(rng.below(6), rng.below(6)) for _ in range(rng.below(7))]
    if ring and not rng.below(4):
        k, c = rng.below(len(ring)), rng.below(2)
        ring[k] = tuple(_junk(rng) if n == c else v for n, v in enumerate(ring[k]))
    return ring


def _shapeless(rng, ring):
    """An argument of the wrong shape: no iterable, no entries, an entry
    of one coordinate, or None as an entry, alone or after the ring's."""
    return _pick(rng, [None, 5, [], [(1,)], [None], ring + [None]])


def _library_call(rng, quintic_curve):
    """One library call over small malformed arguments: (function, args)."""
    ring, draws = _ring(rng), SplitMix64(rng.below(99))
    bounds = [_bound(rng) for _ in range(3)]
    shapeless = _shapeless(rng, ring)
    points = ring if rng.below(3) else shapeless

    def restrict_to(ring):
        return restrict(quintic_curve, convex_hull(ring))

    def serialize(fn, terms):
        return fn(SupportSet(terms))

    # Gaussian coefficients, now and then a zero or junk one
    terms = [(p, _pick(rng, [(rng.between(-2, 2), rng.between(-2, 2)), rng.between(-2, 2),
                             _junk(rng)])) for p in ring]

    return _pick(rng, [
        (convex_hull, points),
        (segment_lattice_points, *(ring + [(_junk(rng), _junk(rng))] * 2)[:2]),
        (SplitMix64, bounds[0]), (run_corpus, *bounds[:2], 4, 4),
        (draws.below, bounds[0]), (draws.between, *bounds[:2]), (draws.sample, *bounds),
        (_pick(rng, [triangle_square_count, crossed_square_count]), *bounds[:2]),
        (staircase_support, draws, *bounds[:2]),
        (random_lifted_support, draws, *bounds[:2]),
        (LiftedSupport.from_mapping, _pick(rng, [{p: _junk(rng) for p in ring}, shapeless])),
        (LiftedSupport, shapeless), (SupportSet, shapeless), (SupportSet.from_points, points),
        (separable_lifting, points),
        (lower_hull_subdivision, _pick(rng, [{p: _pick(rng, [0, 1, 2, _junk(rng)]) for p in ring},
                                            shapeless])),
        (NewtonDiagram, points), (analyze, points), (render_svg, points), (parse_germ, shapeless),
        (restrict_to, ring),
        (serialize, _pick(rng, [serialize_json, germ_text]), terms),
    ])


def test_library_fuzz_ends_in_a_package_error():
    # every call over small malformed arguments returns or raises a
    # TropnewtonError; a defect's InternalCheckError or
    # ParityViolationError, any other exception, or a call still running
    # after a second fails
    quintic_curve = dual_tropical_curve(subdivide_diagram(analyze_support(
        parse_germ(QUINTIC))).subdivision)
    rng = SplitMix64(24)
    for _ in range(2000):
        fn, *args = _library_call(rng, quintic_curve)
        try:
            with deadline(1.0):
                fn(*args)
        except Exception as exc:
            defect = isinstance(exc, (InternalCheckError, ParityViolationError))
            if defect or not isinstance(exc, TropnewtonError):
                pytest.fail(f"{fn.__qualname__}{tuple(args)!r} raised {exc!r}")


def test_a_parity_violation_escapes_the_cli(monkeypatch):
    # like an InternalCheckError, it marks a defect, so no exit code hides it
    def odd(mu, branches):
        raise ParityViolationError("mu + branches - 1 is odd")

    monkeypatch.setattr(patchwork, "delta_invariant", odd)
    with pytest.raises(ParityViolationError):
        main(["certify", "x^2+y^3"])
