"""Per-operation output checks.  Each returns (attempted, failed, notes).

An operation is a `relax` run, a `verify` report row, or a `functional`
request.  A nonzero exit code fails every operation the call was for.
"""

import csv
import json
import math
import os

import numpy as np

from inputs import state_sums

H_TOL = 1e-8  # per-step entropy increase the CLI itself tolerates
ROUNDOFF = 1e-10  # relative drift of conserved quantities


def _finite(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def read_diagnostics(out_dir):
    with open(os.path.join(out_dir, "diagnostics.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    cols = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(head)}
    return cols


def unreadable_counts_as_failed(expected):
    """Decorator: an output that cannot be read fails all `expected(args)` operations."""

    def wrap(check):
        def checked(*args):
            try:
                return check(*args)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                n = expected(*args)
                return n, n, [f"unreadable output: {exc!r}"]

        return checked

    return wrap


@unreadable_counts_as_failed(lambda rc, out_dir: 1)
def check_relax(rc, out_dir):
    """One operation: the whole run."""
    if rc != 0:
        return 1, 1, [f"solve exited {rc}"]
    notes = []
    d = read_diagnostics(out_dir)
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        half_width = json.load(fh)["config"]["grid"]["half_width"]
    m0, e0 = d["mass"][0], d["energy"][0]
    clip = float(np.sum(d["clipped_mass"]))  # per-step fractions of the mass
    if abs(d["mass"][-1] - m0) > (clip + 1e-12) * m0:
        notes.append("mass drift exceeds clipped mass")
    if np.max(np.diff(d["H"])) > H_TOL:
        notes.append("entropy increased in a step")
    # clipped mass can carry at most |v|^2/2 of energy and |v| of momentum
    # each, with |v|^2 <= 3 L^2 on the grid
    v2max = 3.0 * half_width**2
    if abs(d["energy"][-1] - e0) > ROUNDOFF * e0 + clip * m0 * v2max / 2.0:
        notes.append("energy drift above round-off")
    p = np.stack([d["px"], d["py"], d["pz"]], axis=1)
    p_scale = max(float(np.max(np.abs(p[0]))), math.sqrt(2.0 * e0))
    if np.max(np.abs(p[-1] - p[0])) > ROUNDOFF * p_scale + clip * m0 * math.sqrt(v2max):
        notes.append("momentum drift above round-off")
    with open(os.path.join(out_dir, "final_state.json")) as fh:
        final = np.asarray(json.load(fh)["values"], dtype=float)
    if not (np.all(np.isfinite(final)) and np.all(final >= 0.0)):
        notes.append("final state not finite and nonnegative")
    return 1, int(bool(notes)), notes


@unreadable_counts_as_failed(lambda rc, out_dir, expected_rows: expected_rows)
def check_verify(rc, out_dir, expected_rows):
    """One operation per report row."""
    path = os.path.join(out_dir, "report.json")
    if rc != 0 or not os.path.exists(path):
        return expected_rows, expected_rows, [f"verify exited {rc}"]
    with open(path) as fh:
        rows = json.load(fh)
    failed, notes = 0, []
    for row in rows:
        gated = row.get("constant_used") != "ratio-only"
        ok = _finite(row.get("lhs"), row.get("rhs"), row.get("slack"))
        ok = ok and (row.get("holds") is True or not gated)
        if not ok:
            failed += 1
            notes.append(f"{row.get('suite')}[{row.get('family')}@{row.get('resolution')}]")
    missing = max(0, expected_rows - len(rows))
    if missing:
        notes.append(f"{missing} rows missing")
    return max(len(rows), expected_rows), failed + missing, notes


@unreadable_counts_as_failed(lambda rc, state_path, report_path: 1)
def check_functional(rc, state_path, report_path):
    """One operation: one request."""
    if rc != 0 or not os.path.exists(report_path):
        return 1, 1, [f"functional exited {rc}"]
    with open(report_path) as fh:
        rep = json.load(fh)
    mass, energy = state_sums(state_path)
    notes = []
    if not (_finite(rep.get("mass")) and abs(rep["mass"] - mass) <= 1e-12 * abs(mass)):
        notes.append("mass differs from the input's sum")
    if not (_finite(rep.get("energy")) and abs(rep["energy"] - energy) <= 1e-12 * abs(energy)):
        notes.append("energy differs from the input's sum")
    if not (_finite(rep.get("dissipation")) and rep["dissipation"] >= 0.0):
        notes.append("dissipation not finite and nonnegative")
    return 1, int(bool(notes)), notes
