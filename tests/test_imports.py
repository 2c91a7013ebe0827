"""The package root binds only `__version__`, so importing one module
loads that module and what it imports, nothing more. Every name a library
module imports is used in that module, no library module takes another's
single-underscore name, every name the benchmark traces in
`landau` exists, every top-level function and class of `landau` is
reached by the library, the benchmark, the acceptance tests or the test
oracles, and every public oracle is named by a test, so an oracle no test
calls cannot keep a library name alive."""

import ast
import importlib
import importlib.util
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import landau

MODULES = sorted(
    p for p in Path(landau.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
ROOT = Path(__file__).resolve().parents[1]
# what may reach a library name; the package root names none
ORACLES = ROOT / "tests" / "oracles.py"
REACHING = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py", ORACLES]


def test_root_is_its_version():
    # a fresh child: the root's names before any submodule binds its own,
    # then the library modules that one `import landau.grid` loads
    code = ("import importlib.util, sys, landau\n"
            "fresh = vars(importlib.util.module_from_spec(landau.__spec__))\n"
            "print(sorted(set(vars(landau)) - set(fresh) - {'__builtins__'}))\n"
            "import landau.grid\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'landau'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "['__version__']", "['landau', 'landau.errors', 'landau.grid']"]


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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(source):
    """(line, name) of each single-underscore name that `source` takes from
    a `landau` module: imported by name, or read off an imported module."""
    tree, found, modules = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.startswith("landau."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "landau"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "landau"):  # `from . import grid`
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):  # after the walk above: a use may precede its import
        if isinstance(node, ast.Attribute) and _private(node.attr) and (
                ast.unparse(node.value) in modules):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_finds_a_private_import():
    source = ("from .grid import _gradient_nd, integrate\n"
              "from landau.functionals import _gamma_value as gamma\n"
              "from numpy import _private\n"
              "from . import __version__, kernels\n"
              "import landau.solver as s, landau.cli\n"
              "kernels._forward(kernels.a_convolve, s._advance, landau.cli._dump_json)\n")
    assert _private_imports(source) == [
        (1, "_gradient_nd"), (2, "_gamma_value"), (6, "_advance"), (6, "_dump_json"),
        (6, "_forward")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert _private_imports(path.read_text()) == []


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


def _unnamed_oracles(oracles, tests):
    """The public top-level names of the source `oracles` that none of the
    sources `tests` mentions."""
    named = set().union(*map(_appearances, tests))
    return {name for name in _defined(oracles) if not name.startswith("_")} - named


def test_finds_an_unnamed_oracle():
    oracles = "".join(f"def {name}():\n    pass\n" for name in ("called", "_helper", "unused"))
    tests = ["from oracles import called\n", "def test_it():\n    called()\n"]
    assert _unnamed_oracles(oracles, tests) == {"unused"}


def test_every_oracle_is_named_by_a_test():
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("test_*.py"))]
    assert _unnamed_oracles(ORACLES.read_text(), tests) == set()
