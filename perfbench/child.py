"""One child process of the benchmark: a fresh interpreter that runs the
set-up path of a workload, the layer probes, or one `landau` CLI call, and
writes its timings (and, when traced, its span summary) to a JSON file.

    python3 perfbench/child.py RESULT.json setup PLAN.json
    python3 perfbench/child.py RESULT.json probe PLAN.json
    python3 perfbench/child.py RESULT.json cli [--trace [--save-mid STEP PATH]] -- ARGV...

Times are CLOCK_MONOTONIC, which every process on the machine shares, so the
parent can subtract its own spawn time from the child's marks.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, attribute, span name).  The attribute is the name a layer calls
# through, so replacing it catches every call the CLI makes into that layer.
# scipy.fft must be wrapped before landau is imported (scipy.signal reads
# the functions off the scipy.fft module at call time).
FFT_TARGETS = [
    ("scipy.fft", "rfftn", "kernels.fft"),
    ("scipy.fft", "irfftn", "kernels.fft"),
    ("scipy.fft", "fftn", "kernels.fft"),
    ("scipy.fft", "ifftn", "kernels.fft"),
]
LAYER_TARGETS = [
    ("landau.cli", "run", "solver.run"),
    ("landau.solver", "_advance", "solver.step"),
    ("landau.solver", "_heavy_diagnostics", "solver.heavy_diagnostics"),
    ("landau.solver", "assemble_operator", "solver.assemble_operator"),
    ("landau.solver", "lp_energy_balance", "solver.lp_energy_balance"),
    ("landau.solver", "collision_coefficients", "kernels.collision_coefficients"),
    ("landau.solver", "entropy_dissipation", "functionals.entropy_dissipation"),
    ("landau.cli", "entropy_dissipation", "functionals.entropy_dissipation"),
    ("landau.inequalities", "entropy_dissipation", "functionals.entropy_dissipation"),
    ("landau.solver", "moments", "functionals.moments"),
    ("landau.cli", "moments", "functionals.moments"),
    ("landau.solver", "weighted_fisher", "functionals.other"),
    ("landau.solver", "weighted_lp", "functionals.other"),
    ("landau.cli", "weighted_fisher", "functionals.other"),
    ("landau.cli", "weighted_lp", "functionals.other"),
    ("landau.cli", "check_young", "inequalities.check_young"),
    ("landau.cli", "check_edd_theorem", "inequalities.check_edd_theorem"),
    ("landau.cli", "check_sobolev", "inequalities.other"),
    ("landau.cli", "check_gamma_lower_bound", "inequalities.other"),
    ("landau.cli", "check_interpolation", "inequalities.other"),
    ("landau.cli", "moment_condition", "inequalities.other"),
    ("landau.cli", "build_grid", "grid.build_grid"),
    ("landau.grid", "build_grid", "grid.build_grid"),
    ("landau.cli", "generate_distribution", "families.generate_distribution"),
    ("landau.grid", "DiscreteDistribution.load", "cli.state_load"),
    ("landau.grid", "DiscreteDistribution.save", "cli.report_write"),
    ("landau.cli", "_dump_json", "cli.report_write"),
    ("landau.cli", "_write_suite_reports", "cli.report_write"),
    ("landau.cli", "_diagnostics_rows", "cli.report_write"),
]
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, extra)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.installed = []  # (owner, attribute, original raw attribute)
        self.missing = []
        self.hooks = {}  # span name -> fn(args, kwargs, result, extra dict), run after the span

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        extra = {}
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, extra)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(args, kwargs, out, extra)
        return out

    def wrap(self, module_name, dotted, name):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{dotted}")
            return
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{module_name}.{dotted}")
            return
        raw = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self.installed.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self.installed):
            setattr(owner, attr, raw)
        self.installed = []

    def summary(self):
        """Per-name calls, inclusive and self seconds; FFT counts by scope."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        layers = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = layers.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_time[i]
        # FFT transforms split by the solver phase they ran in
        fft = {"step": [0, 0], "heavy": [0, 0], "all": [0, 0]}
        for name, _, _, parent, extra in self.spans:
            if name != "kernels.fft":
                continue
            scopes = set()
            p = parent
            while p >= 0:
                scopes.add(self.spans[p][0])
                p = self.spans[p][3]
            keys = ["all"]
            if "solver.heavy_diagnostics" in scopes:
                keys.append("heavy")
            elif "solver.run" in scopes:
                keys.append("step")
            for key in keys:
                fft[key][0] += 1
                fft[key][1] += extra.get("bytes", 0)
        extras = {}
        for name, _, _, _, extra in self.spans:
            for key, val in extra.items():
                if key != "bytes":
                    extras[key] = extras.get(key, 0) + val
        return {"layers": layers, "fft": fft, "extras": extras, "missing": self.missing}


def _fft_bytes(args, kwargs, out, extra):
    """Computed bytes: input (zero-padded to the transform shape for real
    forward transforms) plus output array."""
    x = args[0]
    shape = kwargs.get("s", args[1] if len(args) > 1 else None)
    nin = x.nbytes
    if shape is not None and x.dtype.kind != "c":
        nin = math.prod(shape) * x.itemsize
    extra["bytes"] = int(nin + out.nbytes)


def _young_pairs(args, kwargs, out, extra):
    """Pair count of check_young's double sum: live nodes x live nodes in the ball."""
    import numpy as np

    f = args[0]
    R = kwargs.get("R", args[2] if len(args) > 2 else None)
    live = f.values > 0
    ball = live & (f.grid.sq_norm <= R * R)
    extra["young_pairs"] = int(np.count_nonzero(live)) * int(np.count_nonzero(ball))


def install(tracer):
    """Wrap scipy.fft first, then import landau and wrap its layers."""
    for module_name, attr, name in FFT_TARGETS:
        tracer.wrap(module_name, attr, name)
    tracer.hooks["kernels.fft"] = _fft_bytes
    tracer.hooks["inequalities.check_young"] = _young_pairs
    for module_name, attr, name in LAYER_TARGETS:
        tracer.wrap(module_name, attr, name)


# ---------------------------------------------------------------------------
# set-up path


def run_setup(plan):
    t0 = now()
    import landau.cli  # noqa: F401  (what `python -m landau` imports)

    t_import = now()
    from landau.families import DistributionSpec, generate_distribution
    from landau.grid import DiscreteDistribution, build_grid

    if plan["kind"] == "generate":
        grid = build_grid(*plan["grid"])
        generate_distribution(DistributionSpec.from_json_dict(plan["spec"]), grid)
    else:
        DiscreteDistribution.load(plan["path"])
    return {"t_ready": now(), "import_s": t_import - t0}


# ---------------------------------------------------------------------------
# layer probes on fixed states, in an untraced process of their own


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_time(fn, repeats=3):
    return statistics.median(_time(fn) for _ in range(repeats))


def _table_build(f, spec, trials, seq):
    """Cold minus warm collision_coefficients on grids of a layout not yet
    cached (the half-width is nudged by a relative 1e-12 per trial)."""
    from landau.grid import DiscreteDistribution, build_grid
    from landau.kernels import collision_coefficients

    diffs = []
    for k in range(trials):
        g = f.grid
        grid = build_grid(g.dim, g.half_width * (1.0 + 1e-12 * (seq + k + 1)), g.n)
        fk = DiscreteDistribution(grid, f.values)
        cold = _time(lambda: collision_coefficients(fk, spec))
        warm = min(_time(lambda: collision_coefficients(fk, spec)) for _ in range(2))
        diffs.append(cold - warm)
    return statistics.median(diffs)


def run_probes(plan):
    from landau.families import DistributionSpec, generate_distribution
    from landau.grid import DiscreteDistribution, build_grid
    from landau.inequalities import check_edd_theorem, check_young
    from landau.functionals import entropy_dissipation
    from landau.kernels import CoulombPsi, collision_coefficients
    from landau.solver import assemble_operator, lp_energy_balance, stability_dt

    spec = CoulombPsi()
    out = {}
    if plan["kind"] == "relax":
        f = DiscreteDistribution.load(plan["state"])
        coeffs = collision_coefficients(f, spec)
        dt = stability_dt(coeffs, f.grid.h)
        out["collision_coefficients"] = _median_time(lambda: collision_coefficients(f, spec))
        pairs = [(_time(lambda: assemble_operator(f, spec, coeffs=coeffs, dt=dt)),
                  _time(lambda: assemble_operator(f, spec, coeffs=coeffs,
                                                  conservative=False, dt=None)))
                 for _ in range(5)]
        out["assemble_operator"] = statistics.median(full for full, _ in pairs)
        out["limit_project"] = statistics.median(full - plain for full, plain in pairs)
        out["entropy_dissipation"] = _median_time(lambda: entropy_dissipation(f, spec))
        out["lp_energy_balance"] = _median_time(lambda: lp_energy_balance(f, spec, 1.0))
        out["table_build"] = _table_build(f, spec, 5, 0)
    elif plan["kind"] == "verify":
        # one call per (family, n), summed: the matrix's own mix of sizes
        for key in ("generate_distribution", "check_young", "check_edd_theorem", "table_build"):
            out[key] = 0.0
        for seq, n in enumerate(plan["resolutions"]):
            grid = build_grid(3, plan["half_width"], n)
            for fam in plan["families"]:
                fs = DistributionSpec.from_json_dict(fam)
                out["generate_distribution"] += _time(lambda: generate_distribution(fs, grid))
                f = generate_distribution(fs, grid)
                out["check_young"] += _time(lambda: check_young(f, spec, R=2.0, r=1.2))
                out["check_edd_theorem"] += _time(lambda: check_edd_theorem(f, spec))
            out["table_build"] += _table_build(f, spec, 3, 10 * seq)
    elif plan["kind"] == "functional":
        out["load"] = statistics.median(
            _time(lambda: DiscreteDistribution.load(p)) for p in plan["states"])
        f = DiscreteDistribution.load(plan["states"][0])
        out["entropy_dissipation"] = _median_time(lambda: entropy_dissipation(f, spec))
        out["collision_coefficients"] = _median_time(lambda: collision_coefficients(f, spec))
        out["table_build"] = _table_build(f, spec, 3, 0)
    return out


# ---------------------------------------------------------------------------


def main(argv):
    result_path, mode, args = argv[0], argv[1], argv[2:]
    if mode in ("setup", "probe"):
        with open(args[0]) as fh:
            plan = json.load(fh)
        result = run_setup(plan) if mode == "setup" else run_probes(plan)
        result["t_start"] = T_START
        _write(result_path, result)
        return 0

    sep = args.index("--")
    opts, cli_argv = args[:sep], args[sep + 1:]
    tracer = Tracer() if "--trace" in opts else None
    captured = {}
    if tracer is not None:
        install(tracer)
        if "--save-mid" in opts:
            mid_step = int(opts[opts.index("--save-mid") + 1])

            def keep_mid(args, kwargs, out, extra):
                if args[2].step == mid_step:
                    captured["f"] = args[0]

            tracer.hooks["solver.heavy_diagnostics"] = keep_mid
    t_import0 = now()
    import landau.cli

    t_main0 = now()
    if tracer is not None:
        rc = tracer.call(ROOT_SPAN, landau.cli.main, (cli_argv,), {})
    else:
        rc = landau.cli.main(cli_argv)
    t_main1 = now()
    result = {
        "rc": rc,
        "t_start": T_START,
        "import_s": t_main0 - t_import0,
        "main_s": t_main1 - t_main0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    if "f" in captured:
        captured["f"].save(opts[opts.index("--save-mid") + 2])
    _write(result_path, result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
