#!/usr/bin/env python3
"""The landau benchmark: three workloads timed end to end and layer by layer.

    python3 perfbench/run.py --workload relax|verify|functional \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/landau).  Every
program call is a fresh interpreter with BLAS/OpenMP pools pinned to one
thread, driven one at a time (a closed loop with one client).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it print every metric by
name with its unit.  See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from child import FFT_TARGETS, LAYER_TARGETS  # noqa: E402

ROOT = os.getcwd()
CHILD = os.path.join(HERE, "child.py")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
VERIFY_ROWS = 5 * 3 * len(inputs.VERIFY_RESOLUTIONS) + 2

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


class Child:
    """One finished child process: exit code, wall time, peak RSS, result."""

    def __init__(self, rc, t_spawn, wall_s, rss_mb, result, err_path):
        self.rc, self.t_spawn, self.wall_s = rc, t_spawn, wall_s
        self.rss_mb, self.result, self.err_path = rss_mb, result, err_path


def spawn(args, work, tag, flags=()):
    """Run `python3 [flags] perfbench/child.py RESULT ARGS` to completion."""
    result_path = os.path.join(work, f"{tag}.result.json")
    err_path = os.path.join(work, f"{tag}.err")
    cmd = [sys.executable, *flags, CHILD, result_path, *args]
    with open(os.path.join(work, f"{tag}.out"), "w") as out, open(err_path, "w") as err:
        t0 = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    return Child(proc.returncode, t0, t1 - t0, usage.ru_maxrss / 1024.0, result, err_path)


def median(vals):
    return statistics.median(vals) if vals else math.nan


# ---------------------------------------------------------------------------
# set-up: fresh interpreter -> import landau.cli -> grid -> inputs ready


def measure_setup(plan, work, repeats, trace):
    path = os.path.join(work, "setup_plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    out = {"setup_s": [], "interpreter_s": [], "import_s": [], "kernels_import_s": []}
    for i in range(repeats):
        flags = ("-X", "importtime") if trace else ()
        c = spawn(["setup", path], work, f"setup-{i}", flags)
        if c.result is None:  # a broken program; its units report the failure
            continue
        r = c.result
        out["setup_s"].append(r["t_ready"] - c.t_spawn)
        out["interpreter_s"].append(r["t_start"] - c.t_spawn)
        out["import_s"].append(r["import_s"])
        if trace:
            out["kernels_import_s"].append(_importtime(c.err_path, "landau.kernels"))
    return {k: median(v) for k, v in out.items()}


def _importtime(err_path, module):
    """Cumulative import time of `module` from `python -X importtime`."""
    with open(err_path) as fh:
        for line in fh:
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) * 1e-6
    return math.nan


# ---------------------------------------------------------------------------
# workloads: each unit runs the program and returns per-unit figures


def cli_args(trace, argv, opts=()):
    return ["cli", *(["--trace", *opts] if trace else []), "--", *argv]


def run_probes(work, plan):
    path = os.path.join(work, "probe_plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    c = spawn(["probe", path], work, "probe")
    if c.result is None:
        print(f"probe process failed (exit {c.rc}); probe metrics read NaN", file=sys.stderr)
    return c.result


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Relax:
    name = "relax"

    def __init__(self, rng, work):
        self.work = work
        self.config = inputs.relax_config(rng)
        self.config_path = os.path.join(work, "relax.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        init = self.config["initial"]
        self.setup_plan = {"kind": "generate", "grid": list(inputs.RELAX_GRID), "spec": init}
        self.mid_path = os.path.join(work, "mid_state.json")

    def probe_plan(self):
        # the mid-run state the traced run saved; the final state if the
        # hook that catches it is gone
        state = self.mid_path
        if not os.path.exists(state):
            state = os.path.join(self.work, "traced", "final_state.json")
        return {"kind": "relax", "state": state}

    def unit(self, tag, trace):
        out_dir = os.path.join(self.work, tag)
        opts = ["--save-mid", str(inputs.RELAX_STEPS // 2), self.mid_path]
        c = spawn(cli_args(trace, ["solve", "--config", self.config_path,
                                   "--out-dir", out_dir], opts), self.work, tag)
        rc = c.result["rc"] if c.result else c.rc
        attempted, failed, notes = checks.check_relax(rc, out_dir)
        u = {"attempted": attempted, "failed": failed, "notes": notes, "rss_mb": c.rss_mb,
             "requests": [c.wall_s], "children": [c]}
        if c.result is None or rc != 0:
            return u
        d = checks.read_diagnostics(out_dir)
        m, half = inputs.RELAX_STEPS // 2, inputs.RELAX_CADENCE // 2
        rate = (d["H"][m - half] - d["H"][m + half]) / (d["t"][m + half] - d["t"][m - half])
        u.update(
            wall_s=c.result["main_s"],
            sim_t_per_s=d["t"][-1] / c.result["main_s"],
            dissipation_gap=abs(rate - d["D"][m]) / d["D"][m],
            report_bytes=dir_bytes(out_dir),
        )
        return u


class Verify:
    name = "verify"

    def __init__(self, rng, work):
        self.work = work
        self.config = inputs.verify_config(rng)
        self.config_path = os.path.join(work, "verify.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        self.setup_plan = {
            "kind": "generate",
            "grid": [3, inputs.VERIFY_HALF_WIDTH, inputs.VERIFY_RESOLUTIONS[0]],
            "spec": self.config["families"][0],
        }

    def probe_plan(self):
        return {"kind": "verify", "families": self.config["families"],
                "resolutions": inputs.VERIFY_RESOLUTIONS,
                "half_width": inputs.VERIFY_HALF_WIDTH}

    def unit(self, tag, trace):
        out_dir = os.path.join(self.work, tag)
        c = spawn(cli_args(trace, ["verify", "--config", self.config_path,
                                   "--out-dir", out_dir]), self.work, tag)
        rc = c.result["rc"] if c.result else c.rc
        attempted, failed, notes = checks.check_verify(rc, out_dir, VERIFY_ROWS)
        u = {"attempted": attempted, "failed": failed, "notes": notes, "rss_mb": c.rss_mb,
             "requests": [c.wall_s], "children": [c]}
        if c.result is None or rc != 0:
            return u
        with open(os.path.join(out_dir, "report.json")) as fh:
            rows = json.load(fh)
        # resolution gap of D between the two finest grids, on the families
        # with D well above round-off (a Maxwellian's D is round-off)
        lo, hi = inputs.VERIFY_RESOLUTIONS[-2:]
        dis = {(r["family"], r["resolution"]): r["inputs"]["dissipation"]
               for r in rows if r["suite"] == "edd_radial"}
        gaps = [abs(dis[(fam, lo)] - dis[(fam, hi)]) / dis[(fam, hi)]
                for fam in ("radial_shell", "radial_heavy_tail")]
        u.update(
            wall_s=c.result["main_s"],
            sim_t_per_s=len(rows) / c.result["main_s"],
            dissipation_gap=statistics.fmean(gaps),
            report_bytes=dir_bytes(out_dir),
        )
        return u


class Functional:
    name = "functional"

    def __init__(self, rng, work):
        self.work = work
        self.states, self.reference = [], []
        for kind in inputs.FUNCTIONAL_FAMILIES:
            values, grad = inputs.functional_state(kind, rng)
            path = os.path.join(work, f"state-{kind}.json")
            inputs.write_state(path, values)
            self.states.append(path)
            self.reference.append(inputs.reference_dissipation(values, grad))
        self.setup_plan = {"kind": "load", "path": self.states[0]}

    def probe_plan(self):
        return {"kind": "functional", "states": self.states}

    def unit(self, tag, trace):
        u = {"attempted": 0, "failed": 0, "notes": [], "children": []}
        walls, gaps, nbytes = [], [], 0
        for i, (state, ref) in enumerate(zip(self.states, self.reference)):
            report = os.path.join(self.work, f"{tag}-report-{i}.json")
            c = spawn(cli_args(trace, ["functional", "--input", state, "--psi",
                                       "coulomb", "--out", report]),
                      self.work, f"{tag}-{i}")
            rc = c.result["rc"] if c.result else c.rc
            attempted, failed, notes = checks.check_functional(rc, state, report)
            u["attempted"] += attempted
            u["failed"] += failed
            u["notes"] += notes
            u["children"].append(c)
            walls.append(c.wall_s)
            if failed == 0:
                with open(report) as fh:
                    gaps.append(abs(json.load(fh)["dissipation"] - ref) / ref)
                nbytes += os.path.getsize(report)
        u.update(
            rss_mb=max(c.rss_mb for c in u["children"]),
            requests=walls,
            wall_s=sum(walls),
            sim_t_per_s=len(walls) / sum(walls),
            dissipation_gap=statistics.fmean(gaps) if gaps else math.nan,
            report_bytes=nbytes,
        )
        return u


WORKLOADS = {cls.name: cls for cls in (Relax, Verify, Functional)}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced unit


def _missing_spans(missing):
    gone = set(missing)
    return {name for mod, attr, name in FFT_TARGETS + LAYER_TARGETS if f"{mod}.{attr}" in gone}


def layer_metrics(workload, traced, untraced, setup, probes):
    """Per-layer values by name, and the trace targets that are gone.

    `probes` is the probe process's result, None if it failed.
    """
    layers, fft, extras, missing = {}, {}, {}, []
    for c in traced["children"]:
        tr = c.result["trace"]
        for name, agg in tr["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for scope, (calls, nbytes) in tr["fft"].items():
            acc = fft.setdefault(scope, [0, 0])
            acc[0] += calls
            acc[1] += nbytes
        for key, val in tr["extras"].items():
            extras[key] = extras.get(key, 0) + val
        missing += tr["missing"]
    gone = _missing_spans(missing)

    def get(name, key="self_s"):
        if name in gone:
            return math.nan
        return layers.get(name, {}).get(key, 0)

    steps = get("solver.step", "calls")
    heavy = get("solver.heavy_diagnostics", "calls")
    ops = len(traced["children"])  # requests (functional) or 1
    if workload == "relax":
        fft_calls = fft["step"][0] / steps if steps else math.nan
        fft_bytes = fft["step"][1] / steps if steps else math.nan
    else:
        fft_calls, fft_bytes = fft["all"][0] / ops, fft["all"][1] / ops
    # on relax the per-step split needs the step and heavy-diagnostic spans
    scopes = {"kernels.fft", "solver.run", "solver.step", "solver.heavy_diagnostics"}
    if "kernels.fft" in gone or (workload == "relax" and scopes & gone):
        fft_calls = fft_bytes = math.nan
    main_s = get("cli.main", "incl_s")
    main_self = get("cli.main")
    run_incl = get("solver.run", "incl_s")
    heavy_incl = get("solver.heavy_diagnostics", "incl_s")

    def per(total, count):
        return total / count if count else 0.0

    def probe(key):
        """Probes not run on this workload read 0; a failed probe process NaN."""
        return math.nan if probes is None else probes.get(key, 0.0)

    m = {
        "kernels.coefficients_s": get("kernels.collision_coefficients"),
        "kernels.coefficients_calls": get("kernels.collision_coefficients", "calls"),
        "kernels.fft_s": get("kernels.fft"),
        "kernels.fft_calls": fft_calls,
        "kernels.fft_bytes": fft_bytes,
        "kernels.fft_calls_heavy": per(fft.get("heavy", [0, 0])[0], heavy),
        "kernels.fft_bytes_heavy": per(fft.get("heavy", [0, 0])[1], heavy),
        "kernels.table_build_s": probe("table_build"),
        "kernels.import_s": setup["kernels_import_s"],
        "cli.interpreter_s": setup["interpreter_s"],
        "cli.import_s": setup["import_s"],
        "cli.state_load_s": get("cli.state_load"),
        "cli.report_write_s": get("cli.report_write"),
        "cli.report_bytes": traced.get("report_bytes", 0),
        "cli.main_self_s": main_self,
        "solver.steps": steps,
        "solver.step_s": per(run_incl - heavy_incl, steps),
        "solver.rhs_s": get("solver.assemble_operator"),
        "solver.limit_project_s": probe("limit_project"),
        "solver.heavy_diag_s": per(heavy_incl, heavy),
        "solver.lp_balance_s": get("solver.lp_energy_balance"),
        "functionals.dissipation_s": get("functionals.entropy_dissipation"),
        "functionals.dissipation_calls": get("functionals.entropy_dissipation", "calls"),
        "functionals.moments_s": get("functionals.moments"),
        "functionals.other_s": get("functionals.other"),
        "inequalities.young_s": get("inequalities.check_young"),
        "inequalities.young_pairs": extras.get("young_pairs", 0),
        "inequalities.edd_s": get("inequalities.check_edd_theorem"),
        "inequalities.other_s": get("inequalities.other"),
        "families.generate_s": get("families.generate_distribution"),
        "grid.build_s": get("grid.build_grid"),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.accounted_share": 1.0 - main_self / main_s if main_s else math.nan,
        "trace.missing_targets": len(set(missing)),
    }
    for key in ("collision_coefficients", "assemble_operator", "entropy_dissipation",
                "lp_energy_balance", "check_young", "check_edd_theorem",
                "generate_distribution", "load"):
        m[f"probe.{key}_s"] = probe(key)
    return m, sorted(set(missing))


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, work):
    rng = np.random.default_rng(args.seed)
    wl = WORKLOADS[args.workload](rng, work)
    trace = bool(args.trace)
    units = []
    if trace:
        units.append(wl.unit("untraced", False))
        units.append(wl.unit("traced", True))
    else:
        # whole units until --seconds is reached to the nearest unit, and at
        # least two, so a median never rests on one unit
        spent = 0.0
        while len(units) < 2 or spent + 0.5 * spent / len(units) < args.seconds:
            units.append(wl.unit(f"unit-{len(units)}", False))
            spent += sum(c.wall_s for c in units[-1]["children"])
    # after the units, so bytecode and file caches are warm as they are for users
    setup = measure_setup(wl.setup_plan, work, SETUP_REPEATS, trace)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    notes = [n for u in units for n in u["notes"]]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"units={len(units)} attempted={attempted} failed={failed} "
             f"fail_ratio={failed / attempted:.6g}"]
    lines += [f"FAILED: {note}" for note in notes]
    if failed:
        # no figures from runs whose outputs are wrong
        values = {m["name"]: math.nan for m in listed}
    elif trace:
        probes = run_probes(work, wl.probe_plan())
        values, missing = layer_metrics(args.workload, units[1], units[0], setup, probes)
        if missing:
            print("trace targets missing: " + ", ".join(missing), file=sys.stderr)
            lines.append("missing trace targets (reported as NaN): " + ", ".join(missing))
    else:
        values = {
            "wall_s": median([u["wall_s"] for u in units]),
            "setup_s": setup["setup_s"],
            "request_s": median([w for u in units for w in u["requests"]]),
            "sim_t_per_s": median([u["sim_t_per_s"] for u in units]),
            "dissipation_gap": median([u["dissipation_gap"] for u in units]),
            "peak_rss_mb": max(u["rss_mb"] for u in units),
        }
    if not trace:
        values["pass_ratio"] = 1.0 - failed / attempted
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError("metrics differ from those BENCHMARK.json lists")
    for m in listed:
        lines.append(f"{m['name']:34s} {values[m['name']]:>16.6g} {m['unit']:6s} {m['better']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "landau", "cli.py")):
        print("perfbench: run from the root of a landau checkout (src/landau not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is using it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
