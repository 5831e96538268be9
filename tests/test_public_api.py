import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh(code: str, *args: str) -> str:
    """Run code in a new interpreter that imports disagg from src; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('disagg', 'numpy')))"


def test_import_loads_no_submodule_and_not_numpy():
    assert _fresh(f"import sys, disagg; {_LOADED}") == "['disagg']\n"


def test_load_library_loads_only_what_reading_a_library_needs(tmp_path):
    path = tmp_path / "library.json"
    disagg.save_library([disagg.random_stable_model(2, 1, True)], path)
    out = _fresh(f"import sys, disagg; disagg.load_library(sys.argv[1]); {_LOADED}", str(path))
    disagg_modules = [m for m in ast.literal_eval(out) if m.split(".")[0] == "disagg"]
    assert disagg_modules == [
        "disagg", "disagg.errors", "disagg.models", "disagg.rng", "disagg.series",
    ]


def test_identify_device_loads_no_engine():
    out = _fresh(f"import sys, disagg; disagg.identify_device; {_LOADED}")
    disagg_modules = [m for m in ast.literal_eval(out) if m.split(".")[0] == "disagg"]
    assert disagg_modules == [
        "disagg", "disagg.errors", "disagg.models", "disagg.rng", "disagg.series",
        "disagg.sysid",
    ]


@pytest.mark.parametrize("name, scoring", [
    ("score", ["disagg.evaluate", "disagg.scenario"]),
    ("DisaggregationResult", []),
    ("EngineParams", []),
])
def test_the_result_and_its_scoring_load_no_engine(name, scoring):
    out = _fresh(f"import sys, disagg; disagg.{name}; {_LOADED}")
    disagg_modules = [m for m in ast.literal_eval(out) if m.split(".")[0] == "disagg"]
    assert disagg_modules == sorted([
        "disagg", "disagg.errors", "disagg.ingest", "disagg.models", "disagg.result",
        "disagg.rng", "disagg.series", *scoring,
    ])


def test_the_engine_defines_no_public_class():
    """engine.py holds the search; the result and its types are result.py's."""
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    classes = [node.name for node in _nodes([tree], ast.ClassDef)]
    assert classes and [name for name in classes if not name.startswith("_")] == []


def test_no_module_imports_a_private_name_of_the_engine():
    """The engine's private names serve its search alone."""
    imported = [
        f"{path.name}: {alias.name}"
        for path, tree in zip(PROGRAM, _trees(PROGRAM))
        for node in _nodes([tree], ast.ImportFrom) if node.module == "engine"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert imported == []


def test_star_import_binds_every_exported_name():
    out = _fresh(
        "before = set(globals())\n"
        "from disagg import *\n"
        "import disagg\n"
        "bound = set(globals()) - before - {'before', 'disagg'}\n"
        "assert sorted(bound) == disagg.__all__, sorted(bound)\n"
        "assert all(globals()[name] is getattr(disagg, name) for name in bound)\n"
        "print(len(bound))"
    )
    assert out == f"{len(disagg.__all__)}\n"


def test_unknown_name_raises_attribute_error_naming_it():
    out = _fresh(
        "import disagg\n"
        "try:\n"
        "    disagg.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "module 'disagg' has no attribute 'no_such_name'\n"


def test_dir_lists_every_exported_name_before_any_is_read():
    out = _fresh("import disagg; print(sorted(set(disagg.__all__) - set(dir(disagg))))")
    assert out == "[]\n"


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


def test_the_program_takes_no_np_median():
    """np.median partitions at the last position too, to find a NaN, and
    costs several times the one partition of series._median; the package
    calls series._median instead."""
    trees = _trees(sorted(PACKAGE.glob("*.py")))
    attributes = [node.attr for node in _nodes(trees, ast.Attribute)]
    imported = [
        alias.name for node in _nodes(trees, ast.ImportFrom) if node.module == "numpy"
        for alias in node.names
    ]
    assert [name for name in attributes + imported if name == "median"] == []


def test_no_module_imports_a_name_it_never_reads():
    """Each name a module of the package or of tools/ imports is read by it,
    unless the import's line says ``# noqa: F401`` (kept for another module
    that reaches it there); ``from __future__ import annotations`` binds
    nothing."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    unused = []
    for path, tree in zip(paths, _trees(paths)):
        lines = path.read_text().splitlines()
        read = {node.id for node in _nodes([tree], ast.Name) if isinstance(node.ctx, ast.Load)}
        for node in _nodes([tree], (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {bound}")
    assert unused == []


def test_only_errors_imports_json():
    """errors.write_json and errors.reading hold the JSON file layout and its
    parse errors; every other module reads and writes its files through them."""
    paths = sorted(PACKAGE.glob("*.py"))
    importers = [
        path.name for path, tree in zip(paths, _trees(paths))
        if any(alias.name == "json" for node in _nodes([tree], ast.Import) for alias in node.names)
        or any(node.module == "json" for node in _nodes([tree], ast.ImportFrom))
    ]
    assert importers == ["errors.py"]


@pytest.mark.parametrize("message", [
    "device library is empty", "duplicate device names in library",
])
def test_each_library_message_is_written_once(message):
    """models.check_library is the one writer of the library rule."""
    trees = _trees(sorted(PACKAGE.glob("*.py")))
    strings = [node.value for node in _nodes(trees, ast.Constant) if isinstance(node.value, str)]
    assert [s for s in strings if message in s] == [message]


def test_evaluate_renders_the_truth_through_the_scenario():
    """Scenario.outputs is the one noiseless render of a scenario."""
    tree = ast.parse((PACKAGE / "evaluate.py").read_text())
    imported = [alias.name for node in _nodes([tree], ast.ImportFrom) for alias in node.names]
    assert "_outputs" not in imported


def _callers(owner: str, attr: str) -> set[str]:
    """module.py:Class.function for each call of owner.attr in the package,
    named by its enclosing classes and functions."""
    found = set()

    def visit(path, node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call) and ast.unparse(node.func) == f"{owner}.{attr}":
            found.add(f"{path.name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(path, child, scope)

    paths = sorted(PACKAGE.glob("*.py"))
    for path, tree in zip(paths, _trees(paths)):
        visit(path, tree, [])
    return found


def test_only_errors_calls_math_isfinite():
    """errors.check_real is the one finiteness rule for a stored real;
    check_number, beside it, shares its type check."""
    assert {caller.split(":")[0] for caller in _callers("math", "isfinite")} == {"errors.py"}


def test_np_isfinite_checks_only_sample_arrays():
    """A model entry or an input level passes check_real; np.isfinite is
    left to the arrays of samples: the meter's, a simulated input's and a
    recording's columns."""
    assert sorted(_callers("np", "isfinite")) == [
        "engine.py:_Engine.__init__", "ingest.py:_check_rows",
        "models.py:simulate_zero_state",
    ]


def test_arx_model_checks_its_coefficients_with_check_real():
    tree = ast.parse((PACKAGE / "sysid.py").read_text())
    [arx] = [node for node in _nodes([tree], ast.ClassDef) if node.name == "ArxModel"]
    [post_init] = [item for item in arx.body
                   if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"]
    called = {node.func.id for node in _nodes([post_init], ast.Call)
              if isinstance(node.func, ast.Name)}
    assert "check_real" in called
