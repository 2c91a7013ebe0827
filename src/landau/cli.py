"""Command-line front end: functional summaries of a stored distribution,
inequality-verification suites over generated families, and solver runs
with diagnostics/report files.

`verify` builds and checks each (family, n) state as one work item, in
forked worker processes when BLAS leaves CPUs free (`verify_workers`),
and writes the same reports, messages and exit code as a serial run.

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
from .functionals import (entropy_dissipation, moments, polynomial_weight, weighted_fisher,
                          weighted_lp)
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


# what a bad input file or value raises while it is read; a grid or state
# too large for the machine raises MemoryError
_INPUT_ERRORS = (ValueError, ArithmeticError, ResourceError, OSError, MemoryError)


@contextlib.contextmanager
def _reading(what):
    """Turn a failure while reading `what` from input files into a usage
    error (exit 2)."""
    try:
        yield
    except _INPUT_ERRORS as exc:
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


def _sobolev_variant(opts, dim, psi):
    """The variant the sobolev entry `opts` runs on a `dim`-D grid, "auto"
    being coulomb_explicit for the 3-D Coulomb kernel and general otherwise.
    An option the variant ignores raises ValidationError: q is read only by
    general in 2-D, and gamma1 by every variant but coulomb_explicit."""
    variant = opts["variant"]
    if variant == "auto":
        variant = "coulomb_explicit" if dim == 3 and psi.is_coulomb else "general"
    if opts["q"] is not None and (variant, dim) != ("general", 2):
        raise ValidationError(f"sobolev 'q' is read only by the general variant in 2-D, "
                              f"not by {variant!r} in {dim}-D")
    if opts["gamma1"] is not None and variant == "coulomb_explicit":
        raise ValidationError("sobolev 'gamma1' is not read by the coulomb_explicit variant")
    return variant


def _sobolev(f, psi, opts):
    gamma1 = psi.gamma if opts["gamma1"] is None else opts["gamma1"]
    variant = _sobolev_variant(opts, f.grid.dim, psi)
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
        columns = ("suite", "family", "resolution", "name", "lhs", "rhs", "slack", "holds")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(repr(row[c]) if c in ("lhs", "rhs", "slack") else row[c]
                            for c in columns)


def verify_workers(states):
    """Worker processes for `states` verify states: one per usable CPU that
    BLAS leaves free, so 1 (run in this process) unless BLAS is pinned to
    fewer threads than there are CPUs.  BLAS threads are the first positive
    integer among OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS,
    else one per usable CPU, BLAS's own default."""
    if not sys.platform.startswith("linux"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            blas = threads
            break
    return max(1, min(states, cpus // blas))


def _suite_rows(entry, f, psi, family, resolution):
    """Report rows of the suite `entry` on the state f, each labelled with
    its suite, family and resolution, or its one error row when the checker
    fails or f is the error that stopped the state from being built."""
    labels = {"suite": entry["name"], "family": family, "resolution": resolution}
    if not isinstance(f, Exception):
        try:
            reports = SUITES[entry["name"]][1](f, psi, entry)
            return [{**rep.to_json_dict(), **labels} for rep in reports]
        except (ValidationError, DegeneracyError, NumericError) as exc:
            f = exc
    return [{**labels, "name": entry["name"], "lhs": math.nan, "rhs": math.nan,
             "slack": math.nan, "holds": False, "error": str(f)}]


def _check_state(case, psi, entries):
    """Build one (family spec, grid) state and run the suites `entries` on
    it: one list of `_suite_rows` per entry.  Input errors (`_INPUT_ERRORS`)
    are raised."""
    fam_spec, grid = case
    try:
        f = generate_distribution(fam_spec, grid)
    except (ValidationError, DegeneracyError, NumericError) as exc:
        f = exc
    return [_suite_rows(entry, f, psi, fam_spec.kind, grid.n) for entry in entries]


def _pipe(buffering=-1):
    """(read end, write end) of a new pipe, as binary files."""
    read_fd, write_fd = os.pipe()
    return open(read_fd, "rb", buffering), open(write_fd, "wb", buffering)


def _check_states(cases, psi, entries):
    """`_check_state` of every (family spec, grid) case, in the order of
    `cases`.  With `verify_workers` above 1 this process forks the
    workers, which read the cases from the memory they inherit.  Each
    takes case indices, largest n first, from one queue pipe until the
    queue ends, and writes one pickle of its (index, rows or exception)
    items to a pipe of its own.  The results are read in case order, so an
    error a case raises is raised as in a serial run, and a case that no
    worker returned raises ResourceError.  Else the cases run here, one
    after another."""
    workers = verify_workers(len(cases))
    if workers == 1:
        return [_check_state(case, psi, entries) for case in cases]
    import pickle  # NumPy has loaded it; only a forked run uses it

    # fork, not spawn, so that no worker imports the package again; safe
    # because BLAS runs one thread whenever workers > 1.  The queue is
    # unbuffered, so that each index is one 4-byte write or read, which a
    # pipe keeps whole with several readers.
    queue, feed = _pipe(buffering=0)
    ends = [queue, feed]  # every pipe end this process holds
    outputs = {}  # worker pid: the read end of its result pipe
    try:
        for _ in range(workers):
            output, into = _pipe()
            ends += [output, into]
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    feed.close()  # the queue ends only when no worker holds this end
                    items = []
                    while index := queue.read(4):
                        i = int.from_bytes(index, "little")
                        try:
                            items.append((i, _check_state(cases[i], psi, entries)))
                        except Exception as exc:
                            items.append((i, exc))
                    with into:
                        pickle.dump(items, into)
                    code = 0
                finally:
                    os._exit(code)  # never return into the caller or flush its stdio
            into.close()
            outputs[pid] = output
        # written once every worker exists, so that a queue longer than the
        # pipe's buffer waits only for the workers to read it
        queue.close()
        with contextlib.suppress(BrokenPipeError):  # every worker has ended
            for i in sorted(range(len(cases)), key=lambda i: -cases[i][1].n):
                feed.write(i.to_bytes(4, "little"))
        feed.close()
        data = {pid: output.read() for pid, output in outputs.items()}
    except BaseException:
        for pid in outputs:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for end in ends:
            end.close()
        statuses = {pid: os.waitpid(pid, 0)[1] for pid in outputs}
    results = {}
    for pid, status in statuses.items():
        if status == 0:
            results.update(pickle.loads(data[pid]))
    for i, (fam_spec, grid) in enumerate(cases):
        if i not in results:
            code = next(os.waitstatus_to_exitcode(s) for s in statuses.values() if s)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ResourceError(f"a verify worker {how}; no result for {fam_spec.kind}@{grid.n}")
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(cases))]


def cmd_verify(args):
    # every grid is built, and every (family, n) state is built and checked
    # by all per-state suites (`_check_states`), before any report is
    # written, so bad values exit 2 and each state is shared by all suites
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
        for entry in entries:
            if entry["name"] == "sobolev":
                _sobolev_variant(entry, grid_cfg["dim"], psi)
        if not cfg["families"]:
            raise ValidationError("'families' must be a nonempty list")
        fam_specs = [DistributionSpec.from_json_dict(item) for item in cfg["families"]]
        cases = [(fam_spec, grid) for grid in grids for fam_spec in fam_specs]
        per_state = [i for i, e in enumerate(entries) if e["name"] not in _FAMILY_FREE_SUITES]
        results = _check_states(cases, psi, [entries[i] for i in per_state])
    # the rows of each per-state entry, one list per case
    columns = dict(zip(per_state, zip(*results)))
    rows = []
    for i, entry in enumerate(entries):
        if i in columns:
            rows += [row for case_rows in columns[i] for row in case_rows]
        else:
            rows += _suite_rows(entry, None, psi, "-", "-")
    failures = [
        f"{row['suite']}[{row['family']}@{row['resolution']}]: "
        + (row["error"] if "error" in row else f"lhs={row['lhs']} > rhs={row['rhs']}")
        for row in rows
        if "error" in row or (row["constant_used"] != "ratio-only" and not row["holds"])
    ]
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
    gamma1 = psi.gamma
    # a non-finite value is refused below, which an overflow warning would only foretell
    with np.errstate(over="ignore", invalid="ignore"):
        summary = moments(f, l_list=(1.0, 2.0))
        values = {
            "mass": summary.mass,
            "momentum": list(summary.momentum),
            "energy": summary.energy,
            "entropy": summary.entropy,
            "moments": {repr(l): val for l, val in sorted(summary.moments.items())},
            "dissipation": entropy_dissipation(f, psi, form="projected"),
            "weighted_fisher": weighted_fisher(f, gamma1),
            "l3_weighted_norm": weighted_lp(f, 3.0, min(gamma1, -2.0)),
        }
    bad = [key for key, val in values.items()
           if not np.all(np.isfinite(list(val.values()) if isinstance(val, dict) else val))]
    if bad:
        raise NumericError(f"non-finite {', '.join(bad)}; no report written")
    report = {
        "input": args.input,
        "psi": psi.to_json_dict(),
        "grid": {
            "dim": f.grid.dim,
            "half_width": f.grid.half_width,
            "nodes_per_axis": f.grid.n,
        },
        **values,
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
    # px, py, pz (pz = 0 in 2-D), then p3, p4, ... for each further axis
    axes = max(3, len(series.records[0].momentum))
    header = ["step", "t", "mass", "px", "py", "pz"] + [f"p{d}" for d in range(3, axes)]
    header += ["energy", "H", "D"]
    header += [f"M_{l:g}" for l in l_list]
    header += ["fisher_w", "l3w_norm", "clipped_mass"]
    header += [f"lp_net_{k:g}" for k in k_list]
    rows = [header]
    for rec in series.records:
        mom = [float(x) for x in np.asarray(rec.momentum, dtype=float)]
        mom = mom + [0.0] * (axes - len(mom))
        row = [rec.step, repr(rec.t), repr(rec.mass)]
        row += [repr(m) for m in mom]
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
        if not f0.values.any():
            raise ValidationError("initial state has zero mass")
        for l in config.l_list:  # the run may carry f to any node
            polynomial_weight(grid, l, True)

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
            "dt": config.dt,
            "steps": config.steps,
            "scheme": config.scheme,
            "cadence": config.cadence,
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
