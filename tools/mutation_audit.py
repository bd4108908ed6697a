"""Removal-mutant audit of the package's internal checks.

A site is a ``check(...)`` call or a ``raise InternalCheckError`` /
``raise ParityViolationError`` statement in ``src/tropnewton``.  For each
site the audit replaces that statement with ``pass`` in a temporary
copy of the checkout and runs the tier-1 tests there, without the
benchmark's selftest and the demos.  A mutant that some test fails on
is killed; one that passes every test survived, and each survivor
needs a test that kills it or a proof that the check cannot fail.

    python3 tools/mutation_audit.py --list   # the sites, one a line
    python3 tools/mutation_audit.py          # one line per site: killed or survived

The unmutated copy is run first, and the audit stops if it fails.  A
full run takes about half a minute per site on a 2-vCPU host.  Standard
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


def sites(root: Path = ROOT) -> list[tuple[Path, ast.stmt]]:
    """Every site under ``root``, by file and then line."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Expr) and _called(node.value) == "check":
                found.append((path.relative_to(root), node))
            elif isinstance(node, ast.Raise) and node.exc is not None \
                    and _called(node.exc) in DEFECTS:
                found.append((path.relative_to(root), node))
    return sorted(found, key=lambda site: (str(site[0]), site[1].lineno))


def removed(source: str, node: ast.stmt) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``; the
    lines it spanned stay, empty, so every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head, tail = lines[first][:node.col_offset], lines[last][node.end_col_offset:]
    return "".join(lines[:first] + [head + "pass" + tail.rstrip("\n") + "\n"]
                   + ["\n"] * (last - first) + lines[last + 1:])


def tier1(copy: Path) -> bool:
    """Whether the tier-1 tests pass in ``copy``; a timeout is a failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env,
                              capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def describe(path: Path, node: ast.stmt) -> str:
    return f"{path}:{node.lineno}: {ast.unparse(node).splitlines()[0]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the sites and stop")
    args = parser.parse_args(argv)
    found = sites()
    if args.list:
        for path, node in found:
            print(describe(path, node))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
        if not tier1(copy):
            print("the unmutated copy fails tier-1; nothing to audit", file=sys.stderr)
            return 2
        survivors = 0
        for path, node in found:
            target = copy / path
            source = target.read_text(encoding="utf-8")
            target.write_text(removed(source, node), encoding="utf-8")
            try:
                killed = not tier1(copy)
            finally:
                target.write_text(source, encoding="utf-8")
            survivors += not killed
            print(f"{'killed  ' if killed else 'survived'} {describe(path, node)}", flush=True)
        print(f"{len(found)} sites, {len(found) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
