"""Command-line front end: functional summaries of a stored distribution,
inequality-verification suites over generated families, and solver runs
with diagnostics/report files.

Exit codes: 0 success, 1 checker or run-invariant failure (including
stability errors), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DegeneracyError,
    NumericError,
    ResourceError,
    ValidationError,
    read_config,
    read_tagged,
)
from .families import DistributionSpec, generate_distribution
from .functionals import entropy_dissipation, moments, weighted_fisher, weighted_lp
from .grid import DiscreteDistribution, build_grid
from .inequalities import (
    InequalityReport,
    check_edd_theorem,
    check_gamma_lower_bound,
    check_interpolation,
    check_sobolev,
    check_young,
    moment_condition,
)
from .kernels import CoulombPsi, PowerLawPsi, psi_spec_from_json
from .solver import SolverConfig, run

USAGE_ERROR = 2
CHECK_ERROR = 1


class ConfigError(Exception):
    """Malformed configuration or invocation (exit code 2)."""


@contextlib.contextmanager
def _reading(what):
    """Turn a failure while reading `what` from input files into a usage
    error (exit 2)."""
    try:
        yield
    except (ValueError, ArithmeticError, ResourceError, OSError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _parse_psi(text):
    """Kernel from a CLI token: 'coulomb', 'power_law:<gamma>', or a JSON file."""
    with _reading("kernel"):
        if text == "coulomb":
            return CoulombPsi()
        if text.startswith("power_law:"):
            return PowerLawPsi(float(text.split(":", 1)[1]))
        if os.path.exists(text):
            return psi_spec_from_json(_load_config(text))
    raise ConfigError(
        f"kernel must be 'coulomb', 'power_law:<gamma>', or a JSON file path, got {text!r}"
    )


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path):
    with _reading(f"config {path}"):
        with open(path) as fh:
            return json.load(fh)


# The keys of a verify config, with their defaults, read by the config
# rule (`errors.read_config`); a type marks a required key.
VERIFY_KEYS = {
    "psi": {"kind": "coulomb"},
    "grid": {},
    "resolutions": [16],
    "families": [
        {"kind": "maxwellian", "params": {"temperature": 1.0}, "normalize": True},
        {"kind": "radial_shell", "params": {"radius": 2.0, "width": 0.5}, "normalize": True},
        {"kind": "radial_heavy_tail", "params": {"exponent": 4.0}, "normalize": True},
    ],
    "suites": list,
}
GRID_KEYS = {"dim": 3, "half_width": 6.0}


# ---------------------------------------------------------------------------
# verification suites: each maps its options, with their defaults, to a
# call that returns a list of InequalityReport.  The calls look the
# checkers up by their names in this module when they run.


def _sobolev(f, psi, opts):
    gamma1 = psi.gamma1 if opts["gamma1"] is None else opts["gamma1"]
    variant = opts["variant"]
    if variant == "auto":
        variant = "coulomb_explicit" if f.grid.dim == 3 and psi.is_coulomb else "general"
    return [check_sobolev(f, gamma1, variant=variant, q=opts["q"])]


def _moment_condition(f, psi, opts):
    reports = []
    for g1, g2, expected in opts["pairs"]:
        got = moment_condition(g1, g2)
        reports.append(
            InequalityReport(
                name="moment_condition",
                lhs=float(got),
                rhs=float(expected),
                constant_used="table",
                holds=(got == expected),
                slack=0.0,
                inputs={"gamma1": g1, "gamma2": g2, "expected": expected},
            )
        )
    return reports


SUITES = {
    "edd_radial": (
        {"mode": "radial_explicit"},
        lambda f, psi, o: [check_edd_theorem(f, psi, mode=o["mode"])],
    ),
    "sobolev": ({"gamma1": None, "variant": "auto", "q": None}, _sobolev),
    "young": (
        {"R": 2.0, "r": 1.2},
        lambda f, psi, o: [check_young(f, psi, R=o["R"], r=o["r"])],
    ),
    "gamma_floor": (
        {"hbar": 6.0},
        lambda f, psi, o: [check_gamma_lower_bound(f, hbar=o["hbar"])],
    ),
    "interpolation": (
        {"q1": 1.0, "l1": 2.0, "q2": 3.0, "l2": 0.0, "beta": 0.5},
        lambda f, psi, o: [check_interpolation(
            f, q1=o["q1"], l1=o["l1"], q2=o["q2"], l2=o["l2"], beta=o["beta"])],
    ),
    "moment_condition": (
        {"pairs": [(-3.0, -3.0, True),
                   (-2.0 * math.sqrt(3.0), -2.0 * math.sqrt(3.0), False)]},
        _moment_condition,
    ),
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
    # every grid and state is built once, before any suite runs, so bad
    # values exit 2 and each (family, n) state is shared by all suites
    with _reading("verify config"):
        cfg = read_config(_load_config(args.config), VERIFY_KEYS, "verify config")
        psi = psi_spec_from_json(cfg["psi"])
        resolutions = cfg["resolutions"] if args.resolution is None else [args.resolution]
        if not resolutions:
            raise ValidationError("'resolutions' must be a nonempty list")
        grid_cfg = read_config(cfg["grid"], GRID_KEYS, "grid")
        grids = [build_grid(grid_cfg["dim"], grid_cfg["half_width"], n) for n in resolutions]
        if not cfg["suites"]:
            raise ValidationError("'suites' must be a nonempty list of suite names")
        options = {name: defaults for name, (defaults, _) in SUITES.items()}
        entries = [read_tagged({"name": item} if isinstance(item, str) else item,
                               "name", options, "suite") for item in cfg["suites"]]
        if not cfg["families"]:
            raise ValidationError("'families' must be a nonempty list")
        fam_specs = [DistributionSpec.from_json_dict(item) for item in cfg["families"]]
        states = []
        for n, grid in zip(resolutions, grids):
            for fam_spec in fam_specs:
                try:
                    f = generate_distribution(fam_spec, grid)
                except (ValidationError, DegeneracyError, NumericError) as exc:
                    f = exc  # an error row in every suite
                states.append((fam_spec.kind, n, f))

    rows = []
    failures = []
    for entry in entries:
        suite_fn = SUITES[entry["name"]][1]
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
    with _reading(args.input):
        f = DiscreteDistribution.load(args.input)
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
    with _reading("solve config"):
        if not isinstance(cfg, dict):
            raise ValidationError("solve config must be a JSON object")
        unknown = sorted(set(cfg) - set(SOLVE_KEYS + SOLVER_CONFIG_KEYS))
        if unknown:
            raise ValidationError(f"unknown solve config keys {unknown}")
        psi = psi_spec_from_json(cfg.get("psi", {"kind": "coulomb"}))
        config = SolverConfig(spec=psi, **{k: cfg[k] for k in SOLVER_CONFIG_KEYS if k in cfg})
        grid_cfg = read_config(cfg.get("grid"), {**GRID_KEYS, "nodes_per_axis": 16}, "grid")
        n = grid_cfg["nodes_per_axis"] if args.resolution is None else args.resolution
        grid = build_grid(grid_cfg["dim"], grid_cfg["half_width"], n)
        f0 = generate_distribution(DistributionSpec.from_json_dict(cfg.get("initial")), grid)

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
