#!/usr/bin/env python3
"""Self-test of the output checks: small real CLI runs pass, and each
corrupted copy of their outputs is counted as a failed operation.

    python3 perfbench/selftest.py      (from the root of a checkout)

Exits 0 when every clean output passes and every corruption is caught.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from run import ENV, ROOT  # noqa: E402


def landau(*argv):
    return subprocess.run([sys.executable, "-m", "landau", *argv], env=ENV, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def edit_csv(path, column, row, value):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    rows[row][rows[0].index(column)] = repr(float(value))
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def relax_cases(work):
    cfg = inputs.relax_config(np.random.default_rng(0))
    cfg.update(steps=4, cadence=2)
    cfg["grid"]["nodes_per_axis"] = 8
    dump(os.path.join(work, "relax.json"), cfg)
    out = os.path.join(work, "relax")
    rc = landau("solve", "--config", os.path.join(work, "relax.json"), "--out-dir", out)
    yield "relax clean", checks.check_relax(rc, out), False
    yield "relax exit code", checks.check_relax(1, out), True

    def corrupted(name, edit):
        bad = os.path.join(work, "relax-" + name.replace(" ", "-"))
        shutil.copytree(out, bad)
        edit(bad)
        return checks.check_relax(0, bad)

    diag = "diagnostics.csv"
    yield "relax H increase", corrupted("h", lambda d: edit_csv(
        os.path.join(d, diag), "H", 3, checks.read_diagnostics(d)["H"][1] + 1e-3)), True
    yield "relax mass drift", corrupted("mass", lambda d: edit_csv(
        os.path.join(d, diag), "mass", -1, checks.read_diagnostics(d)["mass"][0] * 1.001)), True
    yield "relax energy drift", corrupted("energy", lambda d: edit_csv(
        os.path.join(d, diag), "energy", -1, checks.read_diagnostics(d)["energy"][0] * 1.001)), True

    def nan_state(d):
        path = os.path.join(d, "final_state.json")
        obj = load(path)
        obj["values"][0] = float("nan")
        dump(path, obj)

    yield "relax NaN final state", corrupted("nan", nan_state), True


def verify_cases(work):
    cfg = inputs.verify_config(np.random.default_rng(0))
    cfg["resolutions"] = [16]
    dump(os.path.join(work, "verify.json"), cfg)
    out = os.path.join(work, "verify")
    rc = landau("verify", "--config", os.path.join(work, "verify.json"), "--out-dir", out)
    rows = 5 * 3 + 2
    yield "verify clean", checks.check_verify(rc, out, rows), False
    report = os.path.join(out, "report.json")
    clean = load(report)
    for name, edit in [("holds false", lambda r: r.update(holds=False)),
                       ("NaN lhs", lambda r: r.update(lhs=float("nan")))]:
        bad = [dict(r) for r in clean]
        edit(bad[0])
        dump(report, bad)
        yield f"verify {name}", checks.check_verify(0, out, rows), True
    dump(report, clean[:-1])
    yield "verify missing row", checks.check_verify(0, out, rows), True


def functional_cases(work):
    state = os.path.join(work, "state.json")
    values, _ = inputs.functional_state("bimaxwellian", np.random.default_rng(0))
    inputs.write_state(state, values)
    report = os.path.join(work, "report.json")
    rc = landau("functional", "--input", state, "--psi", "coulomb", "--out", report)
    yield "functional clean", checks.check_functional(rc, state, report), False
    clean = load(report)
    for name, key, value in [("mass", "mass", clean["mass"] * (1 + 1e-9)),
                             ("energy", "energy", clean["energy"] * 0.999),
                             ("negative D", "dissipation", -1e-3),
                             ("NaN D", "dissipation", float("nan"))]:
        dump(report, dict(clean, **{key: value}))
        yield f"functional {name}", checks.check_functional(0, state, report), True


def main():
    work = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    ok = True
    try:
        for cases in (relax_cases, verify_cases, functional_cases):
            for name, (attempted, failed, notes), expect_fail in cases(work):
                good = (failed > 0) == expect_fail
                ok &= good
                print(f"{'ok  ' if good else 'BAD '} {name:28s} attempted={attempted} "
                      f"failed={failed} {'; '.join(notes)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is using it
            pass
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
