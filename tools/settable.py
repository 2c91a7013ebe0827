"""Count the values a user can set, part by part, and their total.

Each part is read from the code that defines it: the CLI flags from
`cli.build_parser()`, the `solve` and `verify` keys with their grids from
the cli key tables, the suite options from `cli.SUITES`, the family-spec
keys and parameters from `fields(DistributionSpec)` and `families.PARAMS`,
the kernel keys from `kernels.KERNELS` and the `SolverConfig` fields from
`fields(SolverConfig)`.  A value that two kinds share, such as `mean`, is
counted for each kind.  Prints one row per part and the total:

    python tools/settable.py          # the working tree
    python tools/settable.py REV      # also REV and the change

REV is unpacked by `git archive` into a temporary directory and counted in
a subprocess, so that its package is the one imported.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("CLI flags", "solve keys with its grid", "verify keys with its grid",
         "suite options", "family-spec keys and parameters", "kernel keys",
         "SolverConfig fields")


def _flags(parser, prefix=""):
    """The optional arguments of `parser` and of its subcommands, help aside."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                names += _flags(sub, f"{prefix}{command} ")
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            names.append(prefix + action.option_strings[-1])
    return names


def settable(src):
    """{part: names of its settable values} of the package under `src`."""
    sys.path.insert(0, str(src))
    from landau import cli, families, kernels, solver

    # before SOLVE_GRID_KEYS, solve's grid table was GRID_KEYS plus
    # nodes_per_axis, written inline
    solve_grid = getattr(cli, "SOLVE_GRID_KEYS", {**cli.GRID_KEYS, "nodes_per_axis": 16})
    return {
        "CLI flags": _flags(cli.build_parser()),
        "solve keys with its grid": [*cli.SOLVE_KEYS, *cli.SOLVER_CONFIG_KEYS,
                                     *(f"grid.{key}" for key in solve_grid)],
        "verify keys with its grid": [*cli.VERIFY_KEYS,
                                      *(f"grid.{key}" for key in cli.GRID_KEYS)],
        "suite options": [f"{name}.{key}" for name, (options, _) in cli.SUITES.items()
                          for key in options],
        "family-spec keys and parameters": [
            *(f.name for f in fields(families.DistributionSpec)),
            *(f"{kind}.{key}" for kind, params in families.PARAMS.items() for key in params)],
        "kernel keys": ["kind", *(f"{kind}.{key}" for kind, params in kernels.KERNELS.items()
                                  for key in params)],
        "SolverConfig fields": [f.name for f in fields(solver.SolverConfig)],
    }


def revision_settable(rev):
    """`settable` of REV, counted in a subprocess on its unpacked tree."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        done = subprocess.run([sys.executable, __file__, "--src", str(Path(tmp) / "src")],
                              check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def counts(values):
    """{part: count} of `settable` values, with the total."""
    rows = {part: len(values[part]) for part in PARTS}
    rows["total"] = sum(rows.values())
    return rows


def render(columns):
    """One row per part and the total, one column per {title: counts}."""
    print(f"{'':<34}" + "".join(f"{title[:14]:>16}" for title in columns))
    for part in PARTS + ("total",):
        print(f"{part:<34}" + "".join(f"{rows[part]:>16}" for rows in columns.values()))


def main(argv):
    if argv[:1] == ["--src"]:
        print(json.dumps(settable(argv[1])))
        return
    now = counts(settable(ROOT / "src"))
    columns = {"working tree": now}
    if argv:
        before = counts(revision_settable(argv[0]))
        columns.update({argv[0]: before, "change": {p: now[p] - before[p] for p in now}})
    render(columns)


if __name__ == "__main__":
    main(sys.argv[1:])
