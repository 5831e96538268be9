import ast
from pathlib import Path

import disagg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "disagg"
PROGRAM = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def test_all_is_sorted_unique_and_resolves():
    names = disagg.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(disagg, name), name


def _trees(paths):
    return [ast.parse(path.read_text()) for path in paths]


def _nodes(trees, kind):
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, kind)]


def _attributes(trees) -> set[str]:
    return {node.attr for node in _nodes(trees, ast.Attribute)}


def _loaded(trees) -> set[str]:
    """Names read as a variable or as an attribute."""
    loads = {node.id for node in _nodes(trees, ast.Name) if isinstance(node.ctx, ast.Load)}
    return loads | _attributes(trees)


def _appearing(trees) -> set[str]:
    """Names loaded, imported, or named in a string (a lookup by name)."""
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in _nodes(trees, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    strings = {
        node.value for node in _nodes(trees, ast.Constant) if isinstance(node.value, str)
    }
    return _loaded(trees) | imported | strings


def _public_methods(trees) -> list[str]:
    """Class.method for each public method or property of a public class."""
    return [
        f"{cls.name}.{item.name}"
        for cls in _nodes(trees, ast.ClassDef)
        if not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


def test_every_public_name_is_used_by_the_program():
    """Each exported name and public method has a caller outside the tests.

    Exported names must be read by a module of the package other than
    __init__.py or appear in the benchmark; public methods and properties
    must be read as an attribute by the package or the benchmark.
    """
    program, benchmark = _trees(PROGRAM), _trees(BENCHMARK)
    used = _loaded(program) | _appearing(benchmark)
    assert sorted(set(disagg.__all__) - used) == []
    referenced = _attributes(program) | _attributes(benchmark)
    unused = [m for m in _public_methods(program) if m.split(".")[1] not in referenced]
    assert unused == []
