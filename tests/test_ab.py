"""`tools/ab.py`, the parent-against-change benchmark runner: its reading of
`perfbench/run.py` output, its statistics and its output schema, on canned
result lines, the digest that names the change side, and the peak phase of
`tools/rss_phase.py` on a canned trace; no benchmark runs here."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


ab, rss_phase = _tool("ab"), _tool("rss_phase")


def run_output(wall, rss, failed=0):
    """What `run.py` prints: summary lines, then one JSON line."""
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    values.update(wall_s=wall, peak_rss_mb=rss)
    line = json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}})
    return f"workload=relax seed=0 trace=0 units=2 attempted=10 failed={failed}\n" \
           f"wall_s {wall}\n{line}\n"


def test_parse_result_reads_the_json_line():
    result = ab.parse_result(run_output(0.3, 40.0))
    assert result["metrics"]["wall_s"]["value"] == 0.3 and result["attempted"] == 10
    with pytest.raises(ValueError):
        ab.parse_result("workload=relax\nno result\n")


def test_quartiles_interpolate():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_statistics_of_a_lower_is_better_metric():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [1.05, 1.0, 1.25, 1.2, 1.5]
    out = ab.compare(parent, change, "lower", 0.25)
    assert out["parent"] == {"q1": 1.1, "median": 1.2, "q3": 1.3}
    assert out["change"] == {"q1": 1.05, "median": 1.2, "q3": 1.25}
    assert out["change_wins"] == 2 and out["pairs"] == 5
    assert out["worse_by"] == 0.0 and out["verdict"] == "within bound"


@pytest.mark.parametrize("better, change, verdict", [
    ("lower", [1.6] * 10, "worse"),               # median 33% above the parent's
    ("higher", [0.7] * 10, "worse"),              # 30% below, where higher is better
    ("lower", [0.9] * 9 + [1.3], "gain"),         # 9 of 10 wins, by more than the spread
    ("lower", [0.9] * 8 + [1.3] * 2, "within bound"),  # 8 of 10 wins: no gain
    ("higher", [1.3] * 10, "gain"),
])
def test_verdicts(better, change, verdict):
    parent = [1.2] * 5 + [1.25] * 5
    assert ab.compare(parent, change, better, 0.25)["verdict"] == verdict


def test_no_gain_from_fewer_than_ten_pairs():
    assert ab.compare([1.0] * 9, [0.5] * 9, "lower", 0.25)["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]  # quartile spread 1.0 on a median of 2.0
    assert ab.compare(parent, [2.0] * 5, "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert ab.compare(parent, [0.9] * 5, "lower", 0.25)["verdict"] == "within bound"


def test_pairs_with_a_missing_value_are_left_out():
    out = ab.compare([1.0, math.nan, 1.0], [1.0, 1.0, math.inf], "lower", 0.25)
    assert out["pairs"] == 1
    assert ab.compare([math.nan], [1.0], "lower", 0.25) == {
        "pairs": 0, "verdict": "unresolved", "bound": 0.25}


def test_summary_schema():
    pairs = [{"seed": k, "first": ab.SIDES[k % 2],
              "parent": ab.parse_result(run_output(0.30 + 0.01 * k, 40.0)),
              "change": ab.parse_result(run_output(0.29 + 0.01 * k, 40.5, failed=k))}
             for k in range(3)]
    out = ab.summarize(pairs, SPEC)
    assert set(out) == {"metrics", "failed_share"}
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        row = out["metrics"][metric["name"]]
        assert set(row) == {"pairs", "parent", "change", "change_wins", "worse_by", "bound",
                            "verdict"}
        assert row["bound"] == metric["bound"] and row["pairs"] == 3
    assert out["metrics"]["wall_s"]["change_wins"] == 3
    assert out["metrics"]["peak_rss_mb"]["worse_by"] == pytest.approx(0.5 / 40.0)
    assert out["failed_share"] == {"parent": 0.0, "change": 3 / 30}


def test_merge_keeps_the_other_workloads():
    doc = ab.merge(None, "relax", {"pairs": [1]})
    doc = ab.merge(json.loads(json.dumps(doc)), "verify", {"pairs": [2]})
    assert doc == {"workloads": {"relax": {"pairs": [1]}, "verify": {"pairs": [2]}}}
    assert ab.merge(doc, "relax", {"pairs": [3]})["workloads"]["relax"] == {"pairs": [3]}


def test_copied_tree_is_named_by_its_digest(tmp_path):
    digest = ab._copy_working_tree(tmp_path)
    names = [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()]
    assert "tools/ab.py" in names and digest == ab.tree_digest(tmp_path, names)
    assert digest == ab.tree_digest(ROOT, names)
    # the same bytes under another name, or a changed byte, change the digest
    path, moved = tmp_path / "tools" / "ab.py", tmp_path / "tools" / "ab2.py"
    path.rename(moved)
    renamed = [n.replace("tools/ab.py", "tools/ab2.py") for n in names]
    assert ab.tree_digest(tmp_path, renamed) != digest
    moved.rename(path)
    path.write_bytes(path.read_bytes() + b"#")
    assert ab.tree_digest(tmp_path, names) != digest

def test_peak_phase_is_the_first_phase_at_the_peak():
    trace = [("import", 30.0), ("step", 40.0), ("heavy sample at step 20", 41.5),
             ("final_state.save", 41.5), ("exit", 41.5)]
    assert rss_phase.peak_phase(trace) == (41.5, "heavy sample at step 20")
