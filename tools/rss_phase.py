"""Run the relax solve of `perfbench` for one seed in this process and name
the phase of the run that sets its peak resident set size.

    python tools/rss_phase.py SEED      # from the root of a checkout

The checkout's `src` and `perfbench` are imported, so the solve is the one
its benchmark runs.  After each explicit step, each new state's coefficient
field, each heavy diagnostic sample, the save of the final state and the
write of the manifest, VmHWM is read from /proc/self/status.  The kernel
updates it lazily, so the phase named is the one during which, or just
before which, the peak was set.  Prints one JSON line:
{"rc", "peak_mb", "phase"}.
"""

import json
import os
import sys
import tempfile


def hwm_mb():
    """VmHWM of this process in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def peak_phase(trace):
    """(peak, phase) of a trace of (phase, VmHWM after it): the first phase
    after which the largest reading is seen."""
    peak = max(value for _, value in trace)
    return peak, next(name for name, value in trace if value == peak)


def main(seed):
    sys.path[:0] = ["src", "perfbench"]
    import numpy as np

    import inputs
    from landau import cli, grid, solver

    trace = [("import", hwm_mb())]

    def after(owner, attr, name):
        call = getattr(owner, attr)

        def traced(*args, **kwargs):
            out = call(*args, **kwargs)
            trace.append((name(args) if callable(name) else name, hwm_mb()))
            return out

        setattr(owner, attr, traced)

    after(solver, "_advance", "step")
    after(solver, "_face_fluxes", "coefficient field")
    after(solver, "_heavy_diagnostics", lambda args: f"heavy sample at step {args[2].step}")
    after(grid.DiscreteDistribution, "save", "final_state.save")
    after(cli, "_dump_json", "manifest")
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "relax.json")
        with open(config, "w") as fh:
            json.dump(inputs.relax_config(np.random.default_rng(seed)), fh)
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                rc = cli.main(["solve", "--config", config, "--out-dir", os.path.join(tmp, "out")])
            finally:
                sys.stdout = stdout
    trace.append(("exit", hwm_mb()))
    peak, phase = peak_phase(trace)
    print(json.dumps({"rc": rc, "peak_mb": peak, "phase": phase}))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
