"""Mutant audit of the package's internal checks and verdicts.

A site is a ``check(...)`` call or a ``raise InternalCheckError`` /
``raise ParityViolationError`` statement in ``src/tropnewton``.  Each
mutant changes one thing in a temporary copy of the checkout, and the
tier-1 tests run there, without the benchmark's selftest and the demos:

  * by default, one removal mutant per site: the statement becomes
    ``pass``;
  * with ``--negate``, one negation mutant per site: the condition of a
    ``check`` call, or the test of the ``if`` whose body holds the
    raise, becomes ``not (...)``; and one per comparison in
    ``patchwork.analyze``, the verdicts ``identity_holds`` and
    ``corollary_holds`` and the two tests that add a COUNT MISMATCH note.

A mutant that some test fails on is killed; one that passes every test
survived, and each survivor needs a test that kills it or a proof that
it cannot change a result.

    python3 tools/mutation_audit.py --list [--negate]   # the mutants, one a line
    python3 tools/mutation_audit.py [--negate]          # one line per mutant: killed or survived

The unmutated copy is run first, and the audit stops if it fails.  A
full run takes about half a minute per mutant on a 2-vCPU host.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "tropnewton"
DEFECTS = {"InternalCheckError", "ParityViolationError"}
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--ignore=tests/test_demos.py",
          "--deselect=tests/test_perfbench.py::test_perfbench_selftest_passes"]
TIMEOUT = 900  # seconds per tier-1 run; a mutant that runs longer counts as killed


def _called(node) -> str | None:
    """The name a call or a raised name refers to, if it is a plain name."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def _parsed(root: Path):
    for path in sorted((root / PACKAGE).glob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text(encoding="utf-8"))


def _is_site(node) -> bool:
    """Whether ``node`` is a ``check(...)`` statement or a raise of a defect."""
    if isinstance(node, ast.Expr):
        return _called(node.value) == "check"
    return isinstance(node, ast.Raise) and node.exc is not None and _called(node.exc) in DEFECTS


def _negated(node: ast.expr) -> tuple[ast.expr, str]:
    return node, f"(not ({ast.unparse(node)}))"


def mutants(negate: bool = False, root: Path = ROOT) -> list[tuple[Path, ast.AST, str]]:
    """(file, node, text) for every mutant under ``root``, by file and
    then line: the node's source is to be replaced by the text."""
    found = []
    for path, tree in _parsed(root):
        for node in ast.walk(tree):
            if not negate:
                if _is_site(node):
                    found.append((path, node, "pass"))
            elif isinstance(node, ast.Expr) and _is_site(node):
                found.append((path, *_negated(node.value.args[0])))
            elif isinstance(node, ast.If) and any(map(_is_site, node.body)):
                found.append((path, *_negated(node.test)))
            elif path.name == "patchwork.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "analyze":
                found += [(path, *_negated(n)) for n in ast.walk(node)
                          if isinstance(n, ast.Compare)]
    return sorted(found, key=lambda m: (str(m[0]), m[1].lineno, m[1].col_offset))


def replaced(source: str, node: ast.AST, text: str) -> str:
    """``source`` with the span of ``node`` replaced by ``text``; the
    lines it spanned stay, empty, so every other line keeps its number."""
    lines = source.encode().splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head, tail = lines[first][:node.col_offset], lines[last][node.end_col_offset:]
    return b"".join(lines[:first] + [head + text.encode() + tail] + [b"\n"] * (last - first)
                    + lines[last + 1:]).decode()


def tier1(copy: Path) -> bool:
    """Whether the tier-1 tests pass in ``copy``; a timeout is a failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env,
                              capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def describe(path: Path, node: ast.AST, text: str) -> str:
    if text == "pass":
        text = ast.unparse(node).splitlines()[0]
    return f"{path}:{node.lineno}: {text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    parser.add_argument("--negate", action="store_true",
                        help="negate each condition instead of removing each site")
    args = parser.parse_args(argv)
    found = mutants(args.negate)
    if args.list:
        for path, node, text in found:
            print(describe(path, node, text))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
        if not tier1(copy):
            print("the unmutated copy fails tier-1; nothing to audit", file=sys.stderr)
            return 2
        survivors = 0
        for path, node, text in found:
            target = copy / path
            source = target.read_text(encoding="utf-8")
            target.write_text(replaced(source, node, text), encoding="utf-8")
            try:
                killed = not tier1(copy)
            finally:
                target.write_text(source, encoding="utf-8")
            survivors += not killed
            print(f"{'killed  ' if killed else 'survived'} {describe(path, node, text)}",
                  flush=True)
        print(f"{len(found)} mutants, {len(found) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
