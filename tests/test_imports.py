"""Every name a library module imports is used in that module, every name
the benchmark traces in `landau` exists, and every top-level function and
class of `landau` is reached by the library, the benchmark, the acceptance
tests or the test oracles."""

import ast
import importlib
import importlib.util
import operator
from pathlib import Path

import pytest

import landau

MODULES = sorted(
    p for p in Path(landau.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
ROOT = Path(__file__).resolve().parents[1]
# what may reach a library name; the package's own exports do not count
REACHING = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "oracles.py"]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert _unused_imports(source) == [(1, "math"), (2, "s")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_benchmark_trace_targets_exist():
    # perfbench/child.py wraps these names in a traced run and only counts
    # the ones that are gone; loading it runs nothing but stdlib imports
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = []
    for module, attr, _ in child.LAYER_TARGETS:
        try:
            operator.attrgetter(attr)(importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


def _defined(source):
    """The names of the top-level functions and classes of `source`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.parse(source).body if isinstance(node, kinds)}


def _appearances(source):
    """The names `source` mentions: names, attributes, imported names, and
    the last dotted part of each string, as perfbench names its trace
    targets."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.rsplit(".", 1)[-1])
    return names


def test_finds_an_unreached_name():
    source = "".join(f"def {name}():\n    pass\n" for name in
                     ("by_name", "by_attr", "by_import", "by_string", "alone"))
    source += "class Kept:\n    pass\n"
    user = ("by_name()\nmod.by_attr\nfrom pkg.mod import by_import\nimport pkg.Kept\n"
            "TARGET = 'pkg.mod.by_string'\n")
    assert _defined(source) - _appearances(user) == {"alone"}


def test_every_top_level_name_is_reached():
    reached = set().union(*(_appearances(p.read_text()) for p in REACHING))
    unreached = [f"{p.stem}.{name}" for p in MODULES for name in sorted(_defined(p.read_text()))
                 if name not in reached]
    assert unreached == []
