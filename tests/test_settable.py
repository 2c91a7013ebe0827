"""`tools/settable.py`, the count of settable values that each change
reports, on the package itself: every part against its table."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GRID = ["grid.dim", "grid.half_width"]
TABLE = {
    "CLI flags": [f"{command} {flag}" for command, flags in (
        ("functional", ("--input", "--psi", "--out")),
        ("verify", ("--config", "--out-dir", "--resolution")),
        ("solve", ("--config", "--out-dir", "--resolution"))) for flag in flags],
    "solve keys with its grid": ["psi", "grid", "initial", "dt", "steps", "scheme", "l_list",
                                 "k_list", "cadence", "gamma1", *GRID, "grid.nodes_per_axis"],
    "verify keys with its grid": ["psi", "grid", "resolutions", "families", "suites", *GRID],
    "suite options": ["edd_radial.mode", "sobolev.gamma1", "sobolev.variant", "sobolev.q",
                      "young.R", "young.r", "gamma_floor.hbar", "interpolation.q1",
                      "interpolation.l1", "interpolation.q2", "interpolation.l2",
                      "interpolation.beta", "moment_condition.pairs"],
    "family-spec keys and parameters": [
        "kind", "params", "normalize", "maxwellian.temperature", "maxwellian.mean",
        "bimaxwellian.separation", "bimaxwellian.temperature", "bimaxwellian.axis",
        "anisotropic_gaussian.variances", "anisotropic_gaussian.mean", "radial_shell.radius",
        "radial_shell.width", "radial_heavy_tail.exponent", "mixture.components",
        "mixture.weights", "custom_file.path"],
    "kernel keys": ["kind", "power_law.gamma"],
    "SolverConfig fields": ["spec", "dt", "steps", "scheme", "l_list", "k_list", "cadence",
                            "gamma1", "keep_snapshots"],
}


def _tool():
    spec = importlib.util.spec_from_file_location("settable", ROOT / "tools" / "settable.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_part_is_read_from_its_table(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    values = tool.settable(ROOT / "src")
    assert tuple(values) == tool.PARTS
    for part, names in TABLE.items():
        assert values[part] == names, part
    rows = tool.counts(values)
    assert [rows[part] for part in tool.PARTS] == [9, 13, 7, 13, 16, 2, 9]
    assert rows["total"] == sum(len(names) for names in TABLE.values()) == 69
