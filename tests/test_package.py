"""The package's public surface and its import graph."""

import ast
from collections import defaultdict
from pathlib import Path

import tropnewton

PACKAGE = Path(tropnewton.__file__).resolve().parent

# Each module's imports from the package, by proof: the certificate
# needs no wrap, the general hull no diagram, and the dual curve no hull.
IMPORTS = {
    "errors": set(),
    "lattice": {"errors"},
    "parsing": {"errors", "lattice"},
    "newton": {"errors", "lattice", "parsing"},
    "certificate": {"errors", "lattice"},
    "hull": {"certificate", "errors", "lattice", "parsing"},
    "subdivision": {"certificate", "errors", "hull", "lattice", "newton", "parsing"},
    "tropical": {"certificate", "errors"},
    "patchwork": {"errors", "lattice", "newton", "parsing", "subdivision", "tropical"},
    "svg": {"errors", "newton", "subdivision", "tropical"},
    "corpus": {"errors", "lattice", "parsing", "patchwork"},
    "cli": {"corpus", "errors", "newton", "parsing", "patchwork", "svg"},
    "__init__": {"certificate", "corpus", "hull", "newton", "parsing", "patchwork",
                 "subdivision", "svg", "tropical"},
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _imports(tree) -> set:
    """The package modules a module imports, wherever the import stands;
    every import of the package from inside it is relative."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level <= 1 and not (node.module or "").startswith("tropnewton")
            if node.level == 1:
                out.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("tropnewton") for a in node.names)
    return out


def test_every_exported_name_resolves():
    missing = [name for name in tropnewton.__all__
               if not hasattr(tropnewton, name)]
    assert missing == []


def test_the_import_graph_is_pinned():
    graph = {name: _imports(tree) for name, tree in _modules()}
    assert graph == IMPORTS
    assert "subdivision" not in graph["cli"]


def test_each_function_and_class_is_defined_once():
    homes = defaultdict(list)
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes[node.name].append(name)
    assert {n: m for n, m in homes.items() if len(m) > 1} == {}
    # each public class and function is exported from the module that defines it
    for name in tropnewton.__all__:
        assert homes[name] == [getattr(tropnewton, name).__module__.rsplit(".", 1)[1]], name
