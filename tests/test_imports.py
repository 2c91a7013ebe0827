"""Every name a library module imports is used in that module, and every
name the benchmark traces in `landau` exists."""

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
