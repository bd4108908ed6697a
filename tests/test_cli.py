"""Subcommand behavior, exit codes, and SVG output."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from tropnewton import cli
from tropnewton.cli import _build_parser, main
from tropnewton.corpus import SplitMix64
from tropnewton.errors import SchemaError
from tropnewton.parsing import LiftedSupport, parse_germ, serialize_json
from tropnewton.svg import _fmt, render_svg

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
    # a lifted file carries heights the pipeline would ignore, so it is refused
    lifted = tmp_path / "lifted.json"
    lifted.write_text(serialize_json(LiftedSupport.from_mapping({(2, 0): 7, (0, 3): 5})))
    for command in ("analyze", "emit-poly"):
        code, out, err = run(capsys, command, "--file", str(lifted))
        assert code == 2
        assert out == ""
        assert "heights" in err


def test_lemma_command(capsys):
    code, out, _ = run(capsys, "lemma", "3", "2")
    assert code == 0
    assert out == "squares=1 I=4 PASS\n"
    code, out, _ = run(capsys, "lemma", "7", "1")
    assert code == 0
    assert out == "squares=0 I=7 PASS\n"
    assert run(capsys, "lemma", "4", "2")[0] == 3


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
    for x in cases:
        assert _fmt(x) == oracle(x), x
    assert _fmt(Fraction(-1, 30000)) == "0"


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
