"""Run the benchmark on a parent revision and on the working tree, in
alternating pairs, and write every pair with per-metric statistics.

    python tools/ab.py --parent REV --workload W --pairs K --seconds S [--aa] [--out FILE]

The parent is unpacked with `git archive` and the working tree (tracked and
untracked files that git does not ignore) is copied, to
`.bench_work/ab/parent` and `.bench_work/ab/change`: paths of equal length,
so a path length cannot separate the two sides.  In each tree the
unchanged `perfbench/run.py` (the command in BENCHMARK.json) runs with
seed k for pair k on both sides, the parent first in even pairs and the
change first in odd ones, and the JSON line it prints is read.  With
`--aa` both trees are the parent, and the two directories swap names after
half of the pairs, so what the pairs show is the noise floor.

Per end-to-end metric the output holds each side's median and quartiles
over the pairs where both sides read a finite value, the change's wins
(pairs where it reads better; ties count for neither), the change of the
median relative to the parent's, the bound from BENCHMARK.json and a
verdict: "worse" when the median is worse by more than the bound,
"unresolved" when the parent's quartile spread is wider than the bound and
not every change run beats every parent run, "gain" when there are at
least ten pairs, the change wins at least nine tenths of them and its
median is better by more than the parent's quartile spread, else "within
bound".  The output file is keyed by workload: a run updates its
workload's entry and keeps the others.  Without `--out` the JSON goes to
stdout.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work" / "ab"
SIDES = ("parent", "change")


def parse_result(stdout):
    """The JSON object of the last line of `run.py`'s output that holds one."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the benchmark output")


def quartiles(values):
    """(first quartile, median, third quartile), linear interpolation."""
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


def compare(parent, change, better, bound):
    """Statistics of one metric over paired readings (lists of equal length)."""
    pairs = [(p, c) for p, c in zip(parent, change) if math.isfinite(p) and math.isfinite(c)]
    if not pairs:
        return {"pairs": 0, "verdict": "unresolved", "bound": bound}
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0: the change is worse
    ps, cs = zip(*pairs)
    (p1, pm, p3), (c1, cm, c3) = quartiles(ps), quartiles(cs)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    worse_by = sign * (cm - pm) / abs(pm) if pm else math.nan
    separated = max(cs) < min(ps) if sign > 0 else min(cs) > max(ps)
    if worse_by > bound:
        verdict = "worse"
    elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -sign * (cm - pm) > p3 - p1:
        verdict = "gain"
    elif not (p3 - p1 <= bound * abs(pm) or separated):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"pairs": len(pairs), "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3}, "change_wins": wins,
            "worse_by": worse_by, "bound": bound, "verdict": verdict}


def summarize(pairs, spec):
    """Every metric of BENCHMARK.json's `end_to_end` list over the pairs, each
    pair {"seed", "first", "parent": result, "change": result} with the
    results as `run.py` prints them, and the failed share of each side."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        side = {s: [p[s]["metrics"].get(name, {}).get("value", math.nan) for p in pairs]
                for s in SIDES}
        out[name] = compare(side["parent"], side["change"], metric["better"], metric["bound"])
    failed = {s: [sum(p[s][k] for p in pairs) for k in ("failed", "attempted")] for s in SIDES}
    return {"metrics": out, "failed_share": {s: f / a if a else math.nan
                                             for s, (f, a) in failed.items()}}


def merge(existing, workload, entry):
    """The output document `existing` (or None) with `workload`'s entry set."""
    doc = existing or {"workloads": {}}
    doc["workloads"][workload] = entry
    return doc


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _unpack(rev, dest):
    dest.mkdir(parents=True)
    archive = _git("archive", rev)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _copy_working_tree(dest):
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / name.decode()
        if src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name.decode())


def _run(tree, command, workload, seed, seconds):
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return parse_result(done.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--aa", action="store_true", help="the parent against itself")
    p.add_argument("--out", help="output JSON file, keyed by workload")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    shutil.rmtree(WORK, ignore_errors=True)
    trees = {s: WORK / s for s in SIDES}  # side -> its tree's directory now
    pairs = []
    try:
        _unpack(rev, trees["parent"])
        if args.aa:
            _unpack(rev, trees["change"])
        else:
            _copy_working_tree(trees["change"])
        for k in range(args.pairs):
            if args.aa and k == args.pairs // 2 and k:
                swap = WORK / "swap"
                trees["parent"].rename(swap)
                trees["change"].rename(trees["parent"])
                swap.rename(trees["change"])
                trees = {"parent": trees["change"], "change": trees["parent"]}
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": k, "first": order[0]}
            for side in order:
                pair[side] = _run(trees[side], spec["command"], args.workload, k, args.seconds)
                pair[side]["tree"] = trees[side].name
            pairs.append(pair)
            print(f"pair {k}: " + ", ".join(
                f"{s} wall_s={pair[s]['metrics'].get('wall_s', {}).get('value')}" for s in SIDES),
                file=sys.stderr)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    entry = {"parent": rev, "change": "parent" if args.aa else "working tree", "aa": args.aa,
             "seconds": args.seconds, "pairs": pairs, **summarize(pairs, spec)}
    for name, m in entry["metrics"].items():
        print(f"{name:18s} {m['verdict']:13s} worse_by={m.get('worse_by', math.nan):+.4f} "
              f"bound={m['bound']} wins={m.get('change_wins')}/{m['pairs']}", file=sys.stderr)
    if args.out is None:
        json.dump(merge(None, args.workload, entry), sys.stdout, indent=1)
        print()
        return 0
    out = Path(args.out)
    doc = merge(json.loads(out.read_text()) if out.exists() else None, args.workload, entry)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
