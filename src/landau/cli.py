"""Command-line front end: functional summaries of a stored distribution,
inequality-verification suites over generated families, and solver runs
with diagnostics/report files.

Exit codes: 0 success, 1 checker or run-invariant failure (including
stability errors), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DegeneracyError, NumericError, ResourceError, ValidationError
from .families import DistributionSpec, generate_distribution
from .functionals import entropy_dissipation, moments, weighted_fisher, weighted_lp
from .grid import DiscreteDistribution, build_grid, check_layout_types
from .inequalities import (
    check_edd_theorem,
    check_gamma_lower_bound,
    check_interpolation,
    check_sobolev,
    check_young,
    moment_condition,
)
from .kernels import psi_spec_from_json
from .solver import SolverConfig, run

USAGE_ERROR = 2
CHECK_ERROR = 1


class ConfigError(Exception):
    """Malformed configuration or invocation (exit code 2)."""


def _parse_psi(text):
    """Kernel from a CLI token: 'coulomb', 'power_law:<gamma>', or a JSON file."""
    if text == "coulomb":
        obj = {"kind": "coulomb"}
    elif text.startswith("power_law:"):
        obj = {"kind": "power_law", "gamma": text.split(":", 1)[1]}
    elif os.path.exists(text):
        obj = _load_config(text)
    else:
        raise ConfigError(
            f"kernel must be 'coulomb', 'power_law:<gamma>', or a JSON file path, got {text!r}"
        )
    return _psi_from_config(obj)


def _psi_from_config(obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"kernel config must be an object, got {obj!r}")
    try:
        return psi_spec_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel config: {exc}")


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def _load_state(path):
    """A stored distribution; an unreadable or malformed file is a usage error."""
    try:
        return DiscreteDistribution.load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except (TypeError, ValueError, NumericError, ResourceError) as exc:
        raise ConfigError(f"{path} is not a distribution file: {exc}")


def _build_grids(grid_cfg, resolutions):
    """One grid per resolution from a {"dim", "half_width"} object, read
    strictly by `check_layout_types`."""
    if not isinstance(grid_cfg, dict):
        raise ConfigError(f"'grid' must be an object, got {grid_cfg!r}")
    dim, half_width = grid_cfg.get("dim", 3), grid_cfg.get("half_width", 6.0)
    try:
        check_layout_types(dim, half_width, resolutions)
        return [build_grid(dim, half_width, n) for n in resolutions]
    except (ValidationError, ResourceError) as exc:
        raise ConfigError(f"bad grid: {exc}")


DEFAULT_FAMILIES = [
    {"kind": "maxwellian", "params": {"temperature": 1.0}, "normalize": True},
    {"kind": "radial_shell", "params": {"radius": 2.0, "width": 0.5}, "normalize": True},
    {"kind": "radial_heavy_tail", "params": {"exponent": 4.0}, "normalize": True},
]


def _family_specs(cfg):
    raw = cfg.get("families", DEFAULT_FAMILIES)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'families' must be a nonempty list")
    try:
        return [DistributionSpec.from_json_dict(item) for item in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad family entry: {exc}")


def _suite_entries(cfg):
    raw = cfg.get("suites")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'suites' must be a nonempty list of suite names")
    entries = []
    for item in raw:
        if isinstance(item, str):
            entries.append({"name": item})
        elif isinstance(item, dict) and "name" in item:
            entries.append(dict(item))
        else:
            raise ConfigError(f"bad suite entry {item!r}")
    for entry in entries:
        if entry["name"] not in SUITES:
            raise ConfigError(
                f"unknown suite {entry['name']!r}; known: {sorted(SUITES)}"
            )
    return entries


# ---------------------------------------------------------------------------
# verification suites: each returns a list of InequalityReport


def _suite_edd_radial(f, psi, entry):
    return [check_edd_theorem(f, psi, mode=entry.get("mode", "radial_explicit"))]


def _suite_sobolev(f, psi, entry):
    gamma1 = entry.get("gamma1", psi.gamma1)
    variant = entry.get("variant")
    if variant is None:
        variant = "coulomb_explicit" if f.grid.dim == 3 and psi.is_coulomb else "general"
    return [check_sobolev(f, gamma1, variant=variant, q=entry.get("q"))]


def _suite_young(f, psi, entry):
    return [check_young(f, psi, R=entry.get("R", 2.0), r=entry.get("r", 1.2))]


def _suite_gamma_floor(f, psi, entry):
    return [check_gamma_lower_bound(f, hbar=entry.get("hbar", 6.0))]


def _suite_interpolation(f, psi, entry):
    return [
        check_interpolation(
            f,
            q1=entry.get("q1", 1.0),
            l1=entry.get("l1", 2.0),
            q2=entry.get("q2", 3.0),
            l2=entry.get("l2", 0.0),
            beta=entry.get("beta", 0.5),
        )
    ]


def _suite_moment_condition(f, psi, entry):
    from .inequalities import InequalityReport

    pairs = entry.get(
        "pairs",
        [[-3.0, -3.0, True], [-2.0 * math.sqrt(3.0), -2.0 * math.sqrt(3.0), False]],
    )
    reports = []
    for g1, g2, expected in pairs:
        got = moment_condition(g1, g2)
        reports.append(
            InequalityReport(
                name="moment_condition",
                lhs=float(got),
                rhs=float(bool(expected)),
                constant_used="table",
                holds=(got == bool(expected)),
                slack=0.0,
                inputs={"gamma1": g1, "gamma2": g2, "expected": bool(expected)},
            )
        )
    return reports


SUITES = {
    "edd_radial": _suite_edd_radial,
    "sobolev": _suite_sobolev,
    "young": _suite_young,
    "gamma_floor": _suite_gamma_floor,
    "interpolation": _suite_interpolation,
    "moment_condition": _suite_moment_condition,
}

# moment_condition is a pure table; run it once, not per family/resolution
_FAMILY_FREE_SUITES = {"moment_condition"}


def _write_suite_reports(rows, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(rows, os.path.join(out_dir, "report.json"))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["suite", "family", "resolution", "name", "lhs", "rhs", "slack", "holds"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["suite"],
                    row["family"],
                    row["resolution"],
                    row["name"],
                    repr(row["lhs"]),
                    repr(row["rhs"]),
                    repr(row["slack"]),
                    row["holds"],
                ]
            )


def cmd_verify(args):
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("verify config must be a JSON object")
    psi = _psi_from_config(cfg.get("psi", {"kind": "coulomb"}))
    resolutions = cfg.get("resolutions", [16])
    if args.resolution is not None:
        resolutions = [args.resolution]
    if not isinstance(resolutions, list) or not resolutions:
        raise ConfigError("'resolutions' must be a nonempty list")
    # every grid and state is built once, before any suite runs, so bad
    # values exit 2 and each (family, n) state is shared by all suites
    grids = _build_grids(cfg.get("grid", {}), resolutions)
    entries = _suite_entries(cfg)
    fam_specs = _family_specs(cfg)
    states = []
    for n, grid in zip(resolutions, grids):
        for fam_spec in fam_specs:
            try:
                f = generate_distribution(fam_spec, grid)
            except (ValidationError, DegeneracyError, NumericError) as exc:
                f = exc  # an error row in every suite
            except (KeyError, TypeError, ValueError, OSError) as exc:
                raise ConfigError(f"bad family {fam_spec.kind!r}: {exc}")
            states.append((fam_spec.kind, n, f))

    rows = []
    failures = []
    for entry in entries:
        suite_fn = SUITES[entry["name"]]
        if entry["name"] in _FAMILY_FREE_SUITES:
            cases = [("-", "-", None)]
        else:
            cases = states
        for fam_label, res_label, f in cases:
            try:
                if isinstance(f, Exception):
                    raise f
                reports = suite_fn(f, psi, entry)
            except (ValidationError, DegeneracyError, NumericError) as exc:
                failures.append(f"{entry['name']}[{fam_label}@{res_label}]: {exc}")
                rows.append(
                    {
                        "suite": entry["name"],
                        "family": fam_label,
                        "resolution": res_label,
                        "name": entry["name"],
                        "lhs": math.nan,
                        "rhs": math.nan,
                        "slack": math.nan,
                        "holds": False,
                        "error": str(exc),
                    }
                )
                continue
            for rep in reports:
                row = rep.to_json_dict()
                row["suite"] = entry["name"]
                row["family"] = fam_label
                row["resolution"] = res_label
                rows.append(row)
                gated = row["constant_used"] != "ratio-only"
                if gated and not row["holds"]:
                    failures.append(
                        f"{entry['name']}[{fam_label}@{res_label}]: "
                        f"lhs={row['lhs']} > rhs={row['rhs']}"
                    )
    _write_suite_reports(rows, args.out_dir)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(
        f"verify: {len(rows)} reports, {len(failures)} failures -> {args.out_dir}"
    )
    return CHECK_ERROR if failures else 0


# ---------------------------------------------------------------------------
# functional summary of a stored distribution


def cmd_functional(args):
    f = _load_state(args.input)
    psi = _parse_psi(args.psi)
    gamma1 = psi.gamma1
    summary = moments(f, l_list=(1.0, 2.0))
    report = {
        "input": args.input,
        "psi": psi.to_json_dict(),
        "grid": {
            "dim": f.grid.dim,
            "half_width": f.grid.half_width,
            "nodes_per_axis": f.grid.n,
        },
        "mass": summary.mass,
        "momentum": list(summary.momentum),
        "energy": summary.energy,
        "entropy": summary.entropy,
        "moments": {repr(l): val for l, val in sorted(summary.moments.items())},
        "dissipation": entropy_dissipation(f, psi, form="projected"),
        "weighted_fisher": weighted_fisher(f, gamma1),
        "l3_weighted_norm": weighted_lp(f, 3.0, min(gamma1, -2.0)),
        "version": __version__,
    }
    _dump_json(report, args.out)
    print(f"functional: report -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# solver runs


SOLVE_KEYS = ("psi", "grid", "initial")
SOLVER_CONFIG_KEYS = ("dt", "steps", "scheme", "l_list", "k_list", "cadence", "gamma1")


def _solver_config_from_json(cfg, psi):
    unknown = sorted(set(cfg) - set(SOLVE_KEYS + SOLVER_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown solve config keys {unknown}")
    kwargs = {key: cfg[key] for key in SOLVER_CONFIG_KEYS if key in cfg}
    try:
        for key in ("l_list", "k_list"):
            if key in kwargs:
                kwargs[key] = tuple(float(x) for x in kwargs[key])
        if "dt" in kwargs and kwargs["dt"] != "auto":
            kwargs["dt"] = float(kwargs["dt"])
        if kwargs.get("gamma1") is not None:
            kwargs["gamma1"] = float(kwargs["gamma1"])
        return SolverConfig(spec=psi, **kwargs)
    except (TypeError, ValueError) as exc:  # ValidationError is a ValueError
        raise ConfigError(f"bad solve config: {exc}")


def _diagnostics_rows(series, config):
    l_list = list(config.l_list)
    k_list = list(config.k_list)
    header = ["step", "t", "mass", "px", "py", "pz", "energy", "H", "D"]
    header += [f"M_{l:g}" for l in l_list]
    header += ["fisher_w", "l3w_norm", "clipped_mass"]
    header += [f"lp_net_{k:g}" for k in k_list]
    rows = [header]
    for rec in series.records:
        mom = [float(x) for x in np.asarray(rec.momentum, dtype=float)]
        mom = mom + [0.0] * (3 - len(mom))
        row = [rec.step, repr(rec.t), repr(rec.mass)]
        row += [repr(m) for m in mom[:3]]
        row += [repr(rec.energy), repr(rec.entropy), repr(rec.dissipation)]
        row += [repr(rec.moments_l.get(l, math.nan)) for l in l_list]
        row += [repr(rec.fisher_w), repr(rec.l3w_norm), repr(rec.clipped_mass)]
        row += [repr(rec.lp_net.get(k, math.nan)) for k in k_list]
        rows.append(row)
    return rows


def cmd_solve(args):
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("solve config must be a JSON object")
    psi = _psi_from_config(cfg.get("psi", {"kind": "coulomb"}))
    config = _solver_config_from_json(cfg, psi)
    grid_cfg = cfg.get("grid")
    if not isinstance(grid_cfg, dict):
        raise ConfigError("'grid' object with dim/half_width/nodes_per_axis required")
    n = grid_cfg.get("nodes_per_axis", 16) if args.resolution is None else args.resolution
    [grid] = _build_grids(grid_cfg, [n])

    init_cfg = cfg.get("initial")
    if not isinstance(init_cfg, dict):
        raise ConfigError("'initial' distribution spec required")
    if init_cfg.get("kind") == "custom_file":
        try:
            path = init_cfg["params"]["path"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad initial state file: {exc}")
        f0 = _load_state(path)
        if not f0.grid.same_layout(grid):
            raise ConfigError("custom initial state does not match the grid config")
    else:
        try:
            f0 = generate_distribution(DistributionSpec.from_json_dict(init_cfg), grid)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise ConfigError(f"bad initial condition: {exc}")

    try:
        series = run(f0, config)
    except ValidationError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return CHECK_ERROR

    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "diagnostics.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(_diagnostics_rows(series, config))
    series.final_state.save(os.path.join(args.out_dir, "final_state.json"))

    records = series.records
    h_steps = [records[i + 1].entropy - records[i].entropy for i in range(len(records) - 1)]
    max_h_increase = max(h_steps) if h_steps else 0.0
    clip_violations = sum(1 for r in records if r.clipped_mass > 1e-10)
    mass_drift = abs(records[-1].mass - records[0].mass) / records[0].mass
    total_clip = sum(r.clipped_mass for r in records)
    # mass changes only through clipping; anything beyond that is a bug
    mass_ok = mass_drift <= total_clip + 1e-12
    h_ok = max_h_increase <= 1e-8
    invariants_ok = mass_ok and h_ok

    manifest = {
        "config": cfg,
        "resolved": {
            "nodes_per_axis": n,
            "dt": cfg.get("dt", "auto"),
            "steps": config.steps,
            "scheme": config.scheme,
            "cadence": config.resolved_cadence(),
        },
        "invariants": {
            "mass_drift": mass_drift,
            "max_entropy_increase": max_h_increase,
            "clip_budget_violations": clip_violations,
            "total_clipped_mass": total_clip,
            "held": invariants_ok,
        },
        "integrals": {
            "dissipation": series.dissipation_integral,
            "l3w": series.l3w_integral,
        },
        "versions": {
            "landau": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    _dump_json(manifest, os.path.join(args.out_dir, "manifest.json"))
    status = "ok" if invariants_ok else "INVARIANT VIOLATION"
    print(
        f"solve: {config.steps} steps, H {records[0].entropy:.6f} -> "
        f"{records[-1].entropy:.6f}, {status} -> {args.out_dir}"
    )
    return 0 if invariants_ok else CHECK_ERROR


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="landau",
        description="Collision-operator functionals, inequality suites, and solver runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fun = sub.add_parser("functional", help="functional summary of a stored distribution")
    p_fun.add_argument("--input", required=True, help="distribution JSON file")
    p_fun.add_argument("--psi", required=True, help="coulomb | power_law:<gamma> | kernel JSON file")
    p_fun.add_argument("--out", required=True, help="output report JSON path")
    p_fun.set_defaults(func=cmd_functional)

    p_ver = sub.add_parser("verify", help="run inequality-verification suites")
    p_ver.add_argument("--config", required=True, help="suite config JSON")
    p_ver.add_argument("--out-dir", required=True, help="report output directory")
    p_ver.add_argument("--resolution", type=int, default=None, help="override resolutions")
    p_ver.set_defaults(func=cmd_verify)

    p_sol = sub.add_parser("solve", help="run the time integrator with diagnostics")
    p_sol.add_argument("--config", required=True, help="run config JSON")
    p_sol.add_argument("--out-dir", required=True, help="diagnostics output directory")
    p_sol.add_argument("--resolution", type=int, default=None, help="override nodes per axis")
    p_sol.set_defaults(func=cmd_solve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValidationError, DegeneracyError, NumericError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
