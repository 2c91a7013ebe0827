"""The package root binds only `__version__`, so importing one module
loads that module and what it imports, nothing more. Every name a library
module imports is used in that module, no library module takes another's
single-underscore name, every name the benchmark traces in
`landau` exists, every top-level function and class of `landau` is
reached by the library, the benchmark, the acceptance tests or the test
oracles, and every public oracle is reached by a test, so an oracle no test
calls cannot keep a library name alive.  A name is reached when it is
imported from its own module, read off an imported module, used in its own
module, or named with its module as a benchmark trace target."""

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


def _references(source, roots, own=None):
    """The (module, name) pairs that `source` reaches in the modules under
    the top-level packages or modules `roots`: each name it imports from
    such a module, each attribute it reads off one it imports, and, when
    `source` is the module `own`, each name it loads.  A relative import is
    from `landau`.  A local variable, an attribute of some other object or
    a string that merely shares a name reaches nothing."""
    tree, pairs, modules = ast.parse(source), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] in roots)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("landau" if node.level else "", node.module)))
            if module.split(".")[0] in roots:
                pairs.update((module, a.name) for a in node.names)
                modules.update((a.asname or a.name, f"{module}.{a.name}") for a in node.names)
    for node in ast.walk(tree):  # after the walk above: a use may precede its import
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            pairs.add((modules[ast.unparse(node.value)], node.attr))
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            pairs.add((own, node.id))
    return pairs


def _unreached(modules, users, targets=()):
    """(module, name) of each top-level function and class of the module
    sources `modules` ({module: source}) that neither they nor the sources
    `users` reach (`_references`), and whose (module, attribute) no trace
    target in `targets` names."""
    roots = {module.split(".")[0] for module in modules}
    reached = {(module, attr.split(".")[0]) for module, attr in targets}
    for module, source in modules.items():
        reached |= _references(source, roots, own=module)
    for source in users:
        reached |= _references(source, roots)
    return sorted((module, name) for module, source in modules.items()
                  for name in _defined(source) if (module, name) not in reached)


def test_finds_an_unreached_name():
    names = ("by_import", "by_alias", "by_module", "by_path", "by_use", "by_target",
             "alone", "local", "field", "label")
    source = "".join(f"def {name}():\n    pass\n" for name in names)
    source += "class Kept:\n    pass\nKept.run = by_use\n"
    user = ("from pkg.mod import by_import\nimport pkg.mod as m, pkg.mod\nfrom pkg import mod\n"
            "m.by_alias, mod.by_module, pkg.mod.by_path, m.Kept\n"
            # a local variable, a record attribute and a span label that
            # share a name reach nothing
            "def work(rec):\n    local = rec.field\n    return local, 'pkg.mod.label'\n")
    targets = [("pkg.mod", "by_target"), ("pkg.other", "label")]
    assert _unreached({"pkg.mod": source}, [user], targets) == [
        ("pkg.mod", "alone"), ("pkg.mod", "field"), ("pkg.mod", "label"), ("pkg.mod", "local")]


def _layer_targets():
    """The (module, attribute) of each trace target of perfbench/child.py."""
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, attr) for module, attr, _ in child.LAYER_TARGETS]


def test_every_top_level_name_is_reached():
    modules = {f"landau.{p.stem}": p.read_text() for p in MODULES}
    users = [p.read_text() for p in REACHING if p not in MODULES]
    assert _unreached(modules, users, _layer_targets()) == []


def _unnamed_oracles(oracles, tests):
    """The public top-level names of the source `oracles`, the module
    `oracles`, that neither it nor any of the sources `tests` reaches."""
    return {name for _, name in _unreached({"oracles": oracles}, tests)
            if not name.startswith("_")}


def test_finds_an_unnamed_oracle():
    oracles = "".join(f"def {name}():\n    pass\n" for name in ("called", "_helper", "unused"))
    tests = ["from oracles import called\n", "def test_it():\n    called()\n"]
    assert _unnamed_oracles(oracles, tests) == {"unused"}


def test_every_oracle_is_named_by_a_test():
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("test_*.py"))]
    assert _unnamed_oracles(ORACLES.read_text(), tests) == set()
