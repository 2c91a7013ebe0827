"""End-to-end CLI checks: exit codes, report files, determinism, restart.

Usage errors run in-process through `landau.cli.main`; the real entry
point `python -m landau` is spawned for reports, reruns, restart, the
stability exit code and one argparse error.
"""

import csv
import json
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import landau
from landau import cli
from landau.cli import build_parser, main, verify_workers
from landau.families import DistributionSpec, generate_distribution
from landau.grid import DiscreteDistribution, build_grid
from landau.inequalities import _report
from landau.kernels import PowerLawPsi
from landau.solver import SolverConfig, run


# child interpreters import the package from this checkout, as the tests do
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "landau", *argv],
        capture_output=True, text=True, env=CHILD_ENV,
    )


def assert_usage_error(capsys, *argv, out):
    """main(argv) returns 2 with a one-line message and writes nothing to out;
    any exception escaping main fails the test."""
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not pathlib.Path(out).exists()


@pytest.fixture(scope="module")
def stored_maxwellian(tmp_path_factory):
    path = tmp_path_factory.mktemp("dist") / "maxwellian.json"
    grid = build_grid(3, 5.0, 12)
    f = generate_distribution(
        DistributionSpec("maxwellian", {"temperature": 1.0}, normalize=True),
        grid,
    )
    f.save(str(path))
    return str(path)


class TestFunctional:
    def test_report_written(self, stored_maxwellian, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("functional", "--input", stored_maxwellian,
                      "--psi", "coulomb", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rep = json.loads(out.read_text())
        assert rep["mass"] == pytest.approx(1.0, abs=1e-9)
        assert rep["dissipation"] >= 0.0
        assert set(rep["moments"]) == {"1.0", "2.0"}

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        assert_usage_error(capsys, "functional", "--input", tmp_path / "nope.json",
                           "--psi", "coulomb", "--out", tmp_path / "o.json",
                           out=tmp_path / "o.json")

    def test_bad_psi_is_usage_error(self, stored_maxwellian, tmp_path, capsys):
        # non-numeric, non-finite, and outside the Landau range [-3, 1]
        for gamma in ["not_a_number", "nan", "inf", "-1e308", "-3.5", "1.5"]:
            assert_usage_error(capsys, "functional", "--input", stored_maxwellian,
                               "--psi", f"power_law:{gamma}",
                               "--out", tmp_path / "o.json", out=tmp_path / "o.json")

    @pytest.mark.parametrize("kernel", [[1], {"kind": "power_law", "gamma": "x"}])
    def test_bad_kernel_file_is_usage_error(self, stored_maxwellian, tmp_path, capsys,
                                            kernel):
        k = tmp_path / "k.json"
        k.write_text(json.dumps(kernel))
        assert_usage_error(capsys, "functional", "--input", stored_maxwellian,
                           "--psi", k, "--out", tmp_path / "o.json",
                           out=tmp_path / "o.json")

    @pytest.mark.parametrize("state", [
        [1],
        {"dim": "3", "half_width": 5.0, "nodes_per_axis": 4, "values": [1.0] * 64},
        {"dim": 3, "half_width": 5.0, "nodes_per_axis": 4, "values": "abc"},
        {"dim": 3, "half_width": 5.0, "nodes_per_axis": 4, "values": [1.0] * 63},
        # grid sizes are read strictly, never truncated
        {"dim": 3, "half_width": 5.0, "nodes_per_axis": 4.9, "values": [1.0] * 64},
        {"dim": 3.0, "half_width": 5.0, "nodes_per_axis": 4, "values": [1.0] * 64},
        # h^N overflows, or underflows to 0
        {"dim": 3, "half_width": 1e300, "nodes_per_axis": 8, "values": [1.0] * 512},
        {"dim": 3, "half_width": 1e-300, "nodes_per_axis": 8, "values": [1.0] * 512},
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, state):
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        assert_usage_error(capsys, "functional", "--input", p, "--psi", "coulomb",
                           "--out", tmp_path / "o.json", out=tmp_path / "o.json")


    def test_non_finite_value_is_refused(self, tmp_path, capsys):
        # D of a state this large overflows: exit 1, one line, no report
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"dim": 3, "half_width": 3.0, "nodes_per_axis": 8,
                                 "values": [1e300] * 8**3}))
        out = tmp_path / "o.json"
        assert main(["functional", "--input", str(p), "--psi", "coulomb", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "dissipation" in err and "Warning" not in err
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, stored_maxwellian, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "r.json"
        assert_usage_error(capsys, "functional", "--input", stored_maxwellian,
                           "--psi", "coulomb", "--out", out, out=out)


class TestVerify:
    def write_config(self, tmp_path, suites, resolutions=(12,)):
        cfg = {
            "psi": {"kind": "coulomb"},
            "grid": {"dim": 3, "half_width": 6.0},
            "resolutions": list(resolutions),
            "suites": suites,
        }
        p = tmp_path / "verify.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_passing_suites_exit_zero(self, tmp_path):
        # gamma_floor validates normalization; 16 nodes per axis is the
        # coarsest grid where the resampled energy moment sits inside the
        # guard's tolerance
        cfg = self.write_config(
            tmp_path,
            [{"name": "gamma_floor", "hbar": 8.0},
             {"name": "moment_condition"}],
            resolutions=(16,),
        )
        out = tmp_path / "reports"
        res = run_cli("verify", "--config", cfg, "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        rows = json.loads((out / "report.json").read_text())
        assert rows and all(r["holds"] for r in rows if r["constant_used"] != "ratio-only")
        with open(out / "summary.csv") as fh:
            assert len(list(csv.reader(fh))) == len(rows) + 1

    def test_reports_byte_identical_on_rerun(self, tmp_path):
        cfg = self.write_config(tmp_path, [{"name": "sobolev"}])
        blobs = []
        for d in ("r1", "r2"):
            out = tmp_path / d
            res = run_cli("verify", "--config", cfg, "--out-dir", str(out))
            assert res.returncode == 0
            blobs.append((out / "report.json").read_bytes()
                         + (out / "summary.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_resolution_override(self, tmp_path):
        cfg = self.write_config(tmp_path, [{"name": "sobolev"}],
                                resolutions=(12, 16))
        out = tmp_path / "reports"
        res = run_cli("verify", "--config", cfg, "--out-dir", str(out),
                      "--resolution", "10")
        assert res.returncode == 0
        rows = json.loads((out / "report.json").read_text())
        assert {r["resolution"] for r in rows} == {10}

    def test_empty_suites_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, [])
        assert_usage_error(capsys, "verify", "--config", cfg, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_unknown_suite_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, [{"name": "no_such_suite"}])
        assert_usage_error(capsys, "verify", "--config", cfg, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    @pytest.mark.parametrize("override", [
        {"grid": {"half_width": "x"}}, {"grid": {"half_width": -1.0}},
        {"grid": {"half_width": float("inf")}}, {"grid": {"dim": "3"}},
        {"grid": {"dim": 1}}, {"grid": 5}, {"resolutions": ["a"]},
        {"resolutions": [0]}, {"resolutions": [12, 3]}, {"resolutions": [12.5]},
        {"resolutions": [True]}, {"resolutions": 12}, {"families": ["ab"]},
        # suite options are read by the same rule: no coercion, no unknown keys
        {"suites": [{"name": "young", "R": "x"}]},
        {"suites": [{"name": "interpolation", "beta": "0.5"}]},
        {"suites": [{"name": "sobolev", "gamma1": "x"}]},
        {"suites": [{"name": "moment_condition", "pairs": [[1, 2]]}]},
        {"suites": [{"name": "gamma_floor", "hbr": 8.0}]},
        {"resolution": [12]}, {"grid": {"dim": 3, "half_width": 6.0, "nodes": 12}},
        {"grid": {"dim": 10**400}},  # refused by the node budget without forming 12^dim
        # a sobolev option its variant ignores: q outside 2-D general, gamma1
        # under coulomb_explicit
        {"suites": [{"name": "sobolev", "q": 2.0}]},
        {"suites": [{"name": "sobolev", "variant": "general", "q": 8.0}]},
        {"suites": [{"name": "sobolev", "variant": "coulomb_explicit", "gamma1": -2.5}]},
        # h^N overflows, or underflows to 0
        {"grid": {"half_width": 1e300}}, {"grid": {"half_width": 1e-300}},
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, override):
        cfg = {"grid": {"dim": 3, "half_width": 6.0}, "resolutions": [12], "suites": ["sobolev"]}
        cfg.update(override)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert_usage_error(capsys, "verify", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_sobolev_q_runs_in_2d_general(self, tmp_path, capsys):
        # in 2-D, N/(N-2) is undefined and the general variant reads q instead
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "grid": {"dim": 2, "half_width": 6.0}, "resolutions": [12],
            "families": [{"kind": "maxwellian", "params": {"temperature": 1.0}}],
            "suites": [{"name": "sobolev", "variant": "general", "q": 8.0}],
        }))
        out = tmp_path / "r"
        assert main(["verify", "--config", str(p), "--out-dir", str(out)]) == 0, \
            capsys.readouterr().err
        rows = json.loads((out / "report.json").read_text())
        assert [(r["name"], r["inputs"]["exponent"]) for r in rows] == [("sobolev_general", 8.0)]

    def test_overflowing_weight_gives_an_error_row(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "grid": {"dim": 3, "half_width": 3.0}, "resolutions": [8],
            "families": [{"kind": "maxwellian", "normalize": True}],
            "suites": [{"name": "interpolation", "l1": 1e308}],
        }))
        out = tmp_path / "r"
        assert main(["verify", "--config", str(p), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FAIL interpolation[") and err.count("\n") == 1, err
        assert "Warning" not in err
        (row,) = json.loads((out / "report.json").read_text())
        assert "not finite" in row["error"] and row["holds"] is False

    def test_unwritable_out_dir_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, ["moment_condition"])
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert_usage_error(capsys, "verify", "--config", cfg, "--out-dir", blocker / "sub",
                           out=blocker / "sub")

    @pytest.mark.parametrize("under", [(), ("a", "b")], ids=["file", "below-file"])
    def test_out_dir_under_a_file_is_refused_before_any_state(self, tmp_path, capsys,
                                                              monkeypatch, under):
        # the nearest existing ancestor of the out-dir is a regular file, so
        # no state is built and no directory is made
        cfg = self.write_config(tmp_path, ["sobolev"])
        monkeypatch.setattr(cli, "_check_states", lambda *args: pytest.fail("a state was built"))
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker.joinpath("sub", *under)
        assert_usage_error(capsys, "verify", "--config", cfg, "--out-dir", out, out=out)
        assert blocker.is_file()

    def test_existing_out_dir_is_written(self, tmp_path):
        cfg = self.write_config(tmp_path, ["moment_condition"])
        (tmp_path / "r").mkdir()
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "report.json").is_file()

    def test_non_object_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("[]")
        assert_usage_error(capsys, "verify", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_grid_over_the_coordinate_budget_is_usage_error(self, tmp_path, capsys,
                                                             monkeypatch):
        # a 6-D grid at the node budget is refused before its coordinates
        monkeypatch.setattr(landau.grid, "DEFAULT_MAX_NODES", 4**6)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"grid": {"dim": 6}, "resolutions": [4], "suites": ["sobolev"]}))
        assert main(["verify", "--config", str(p), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad verify config: the 4^6 node coordinates take "
                              "196608 bytes") and err.count("\n") == 1, err
        assert not (tmp_path / "r").exists()

    def test_zero_resolution_override_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, ["sobolev"])
        assert_usage_error(capsys, "verify", "--config", cfg, "--out-dir", tmp_path / "r",
                           "--resolution", "0", out=tmp_path / "r")

    @pytest.mark.parametrize("family", [
        {"kind": "custom_file", "params": {"path": "no_such_state.json"}},
        {"kind": "maxwellian", "params": {"temperature": "x"}},
    ])
    def test_bad_family_is_usage_error(self, tmp_path, capsys, family):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"grid": {"dim": 3, "half_width": 6.0}, "resolutions": [8],
                                 "suites": ["sobolev"], "families": [family]}))
        assert_usage_error(capsys, "verify", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_grid_too_large_for_memory_is_usage_error(self, tmp_path):
        # 4^12 nodes pass the node budget, and the grid's meshgrid then runs
        # out of memory; the child's address space is capped at 384 MiB, so
        # the MemoryError comes after at most two 128 MiB arrays
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"dim": 12, "half_width": 6.0},
                                   "resolutions": [4], "suites": ["sobolev"]}))
        code = ("import resource, sys; cap = 384 * 2**20; "
                "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
                "from landau.cli import main; sys.exit(main(sys.argv[1:]))")
        res = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config", str(cfg),
             "--out-dir", str(tmp_path / "r")],
            capture_output=True, text=True, env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1"),
        )
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("config error: bad verify config: ")
        assert not (tmp_path / "r").exists()

    def test_family_error_rows_in_every_suite(self, tmp_path):
        # a family that fails validation while it is built keeps one error
        # row per suite, next to the rows of the families that built
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "grid": {"dim": 3, "half_width": 6.0}, "resolutions": [8],
            "suites": ["sobolev", "interpolation"],
            "families": [{"kind": "maxwellian"},
                         {"kind": "maxwellian", "params": {"temperature": -1.0}}],
        }))
        out = tmp_path / "r"
        assert main(["verify", "--config", str(p), "--out-dir", str(out)]) == 1
        rows = json.loads((out / "report.json").read_text())
        errors = [r for r in rows if "error" in r]
        assert [r["suite"] for r in errors] == ["sobolev", "interpolation"]
        assert all("temperature" in r["error"] for r in errors)
        assert len(rows) == 4

    def test_ratio_only_row_that_does_not_hold_fails(self, tmp_path, capsys, monkeypatch):
        # a "ratio-only" row holds when its ratio is finite; lhs = rhs = 0
        # gives an infinite ratio, and such a row is a failure like any other
        monkeypatch.setattr(cli, "check_sobolev", lambda f, *args, **kwargs: _report(
            "sobolev_general", 0.0, 0.0, "ratio-only", {}))
        cfg = self.write_config(tmp_path, ["sobolev"], resolutions=(8,))
        out = tmp_path / "r"
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.count("FAIL sobolev[") == 3
        rows = json.loads((out / "report.json").read_text())
        assert [r["holds"] for r in rows] == [False] * 3

    def test_state_with_no_mass_gives_error_rows(self, tmp_path):
        # a Maxwellian of temperature 1e-5 underflows to 0 at every node of
        # this grid; no suite checks anything on it
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "psi": {"kind": "power_law", "gamma": -2.5},
            "grid": {"dim": 3, "half_width": 6.0}, "resolutions": [8],
            "suites": ["young", "interpolation", {"name": "edd_radial", "mode": "ratio"},
                       "sobolev"],
            "families": [{"kind": "maxwellian", "params": {"temperature": 1e-5}}],
        }))
        out = tmp_path / "r"
        assert main(["verify", "--config", str(p), "--out-dir", str(out)]) == 1
        rows = json.loads((out / "report.json").read_text())
        assert [r["suite"] for r in rows] == ["young", "interpolation", "edd_radial", "sobolev"]
        assert all("zero mass" in r["error"] and r["holds"] is False for r in rows)

    def test_custom_file_family_is_read_strictly(self, stored_maxwellian, tmp_path):
        # a stored 12^3 state claiming 12.9 nodes is not truncated to 12:
        # the family fails to build and gives an error row, not a report
        state = json.loads(pathlib.Path(stored_maxwellian).read_text())
        state["nodes_per_axis"] = 12.9
        bad = tmp_path / "state.json"
        bad.write_text(json.dumps(state))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "grid": {"dim": 3, "half_width": 5.0}, "resolutions": [12],
            "suites": ["gamma_floor"],
            "families": [{"kind": "custom_file", "params": {"path": str(bad)}}],
        }))
        out = tmp_path / "r"
        assert main(["verify", "--config", str(p), "--out-dir", str(out)]) == 1
        [row] = json.loads((out / "report.json").read_text())
        assert "must be integers" in row["error"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
LINUX = sys.platform.startswith("linux")
CPUS = len(os.sched_getaffinity(0)) if LINUX else 1


class TestVerifyWorkers:
    """One verify worker per usable CPU that BLAS leaves free."""

    @pytest.fixture(autouse=True)
    def no_blas_vars(self, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)

    def test_unpinned_blas_runs_in_process(self):
        assert verify_workers(9) == 1

    @pytest.mark.skipif(not LINUX, reason="workers are forked on Linux only")
    @pytest.mark.parametrize("var", BLAS_VARS)
    def test_pinned_blas_gives_a_worker_per_cpu(self, monkeypatch, var):
        monkeypatch.setenv(var, "1")
        assert verify_workers(9) == min(9, CPUS)
        assert verify_workers(1) == 1

    def test_blas_on_every_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(CPUS))
        assert verify_workers(9) == 1

    @pytest.mark.skipif(not LINUX, reason="workers are forked on Linux only")
    @pytest.mark.parametrize("value", ["x", "1.5", "", "0", "-1"])
    def test_bad_value_counts_as_unset(self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert verify_workers(9) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert verify_workers(9) == min(9, CPUS)

    def run_verify(self, cfg, out, blas):
        env = dict(CHILD_ENV)
        for var in BLAS_VARS:
            env.pop(var, None)
        env["OPENBLAS_NUM_THREADS"] = str(blas)
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "landau", "verify",
             "--config", str(cfg), "--out-dir", str(out)],
            capture_output=True, text=True, env=env, cwd=out.parent,
        )

    def test_reports_do_not_depend_on_worker_count(self, tmp_path):
        # BLAS pinned to one thread forks min(6, CPUS) workers; BLAS on
        # every CPU runs the same matrix in this process
        if CPUS < 2:
            pytest.skip("one usable CPU: the pooled run would not fork")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"dim": 3, "half_width": 6.0}, "resolutions": [10, 12],
            "suites": ["sobolev", {"name": "edd_radial", "mode": "ratio"},
                       "moment_condition", "interpolation"],
            "families": [{"kind": "maxwellian"},
                         {"kind": "maxwellian", "params": {"temperature": -1.0}},
                         {"kind": "radial_shell", "params": {"radius": 2.0, "width": 0.5}}],
        }))
        runs = []
        for blas in (1, CPUS):
            out = tmp_path / "r"
            res = self.run_verify(cfg, out, blas)
            runs.append((res.returncode, res.stdout, res.stderr,
                         (out / "report.json").read_bytes(), (out / "summary.csv").read_bytes()))
            out.rename(tmp_path / f"r{blas}")
        assert runs[0] == runs[1]
        rc, _, err, report, _ = runs[0]
        assert rc == 1 and "temperature" in err
        rows = json.loads(report)
        assert len(rows) == 3 * 3 * 2 + 2
        assert sum("error" in r for r in rows) == 3 * 2

    def test_bad_family_in_a_worker_is_usage_error(self, tmp_path):
        if CPUS < 2:
            pytest.skip("one usable CPU: the run would not fork")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"dim": 3, "half_width": 6.0}, "resolutions": [8, 10],
            "suites": ["sobolev"],
            "families": [{"kind": "maxwellian"},
                         {"kind": "custom_file", "params": {"path": "no_such_state.json"}}],
        }))
        results = []
        for blas in (1, CPUS):
            res = self.run_verify(cfg, tmp_path / "r", blas)
            assert res.returncode == 2, res.stderr
            assert res.stderr.startswith("config error: ") and res.stderr.count("\n") == 1
            assert not (tmp_path / "r").exists()
            results.append((res.stdout, res.stderr))
        assert results[0] == results[1]

    def write_small_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"dim": 3, "half_width": 6.0}, "resolutions": [8, 10],
            "suites": ["sobolev"],
            "families": [{"kind": "maxwellian"}, {"kind": "radial_shell"}],
        }))
        return cfg

    def test_dead_worker_is_one_line_and_no_child_is_left(self, tmp_path, monkeypatch, capsys):
        if CPUS < 2:
            pytest.skip("one usable CPU: the run would not fork")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        check_state = cli._check_state

        def killed_on_one_case(case, psi, entries):
            if case[0].kind == "radial_shell" and case[1].n == 8:
                os.kill(os.getpid(), signal.SIGKILL)
            return check_state(case, psi, entries)

        monkeypatch.setattr(cli, "_check_state", killed_on_one_case)
        out = tmp_path / "r"
        rc = main(["verify", "--config", str(self.write_small_config(tmp_path)),
                   "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert f"killed by signal {signal.SIGKILL.value}" in err and "Traceback" not in err
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_run_loads_no_process_pool_and_leaves_no_child(self, tmp_path):
        if CPUS < 2:
            pytest.skip("one usable CPU: the run would not fork")
        code = ("import os, sys\n"
                "from landau.cli import main, verify_workers\n"
                "rc = main(sys.argv[1:])\n"
                "try:\n"
                "    os.waitpid(-1, os.WNOHANG)\n"
                "    left = True\n"
                "except ChildProcessError:\n"
                "    left = False\n"
                "print(rc, verify_workers(4), left, [m for m in sys.modules if m.split('.')[0] "
                "== 'multiprocessing' or m.startswith('concurrent.futures')])\n")
        env = {k: v for k, v in CHILD_ENV.items() if k not in BLAS_VARS}
        env["OPENBLAS_NUM_THREADS"] = "1"
        res = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config",
             str(self.write_small_config(tmp_path)), "--out-dir", str(tmp_path / "r")],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == f"0 {min(4, CPUS)} False []"


class TestSolve:
    def write_config(self, tmp_path, steps=10, nodes=16, dt="auto", name="solve.json"):
        cfg = {
            "psi": {"kind": "coulomb"},
            "grid": {"dim": 3, "half_width": 5.0, "nodes_per_axis": nodes},
            "initial": {
                "kind": "bimaxwellian",
                "params": {"separation": 1.6, "temperature": 0.6},
                "normalize": True,
            },
            "dt": dt,
            "steps": steps,
        }
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return str(p), cfg

    def test_run_and_outputs(self, tmp_path):
        cfg, _ = self.write_config(tmp_path)
        out = tmp_path / "run"
        res = run_cli("solve", "--config", cfg, "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["invariants"]["held"]
        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["step", "t", "mass", "px"]
        assert len(rows) == 12  # header + 11 records
        # every record is a heavy sample here; each D cell is a plain number
        d = rows[0].index("D")
        assert all(math.isfinite(float(row[d])) for row in rows[1:])
        final = DiscreteDistribution.load(str(out / "final_state.json"))
        assert float(np.min(final.values)) >= 0.0

    def test_unclipped_steps_write_positive_zero(self, tmp_path):
        # a step that clips nothing writes clipped_mass 0.0, and no cell of
        # the file is -0.0
        cfg, _ = self.write_config(tmp_path, steps=3, nodes=8)
        out = tmp_path / "run"
        res = run_cli("solve", "--config", cfg, "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.reader(fh))
        assert [row[rows[0].index("clipped_mass")] for row in rows[1:]] == ["0.0"] * 4
        assert not any(cell == "-0.0" for row in rows for cell in row)

    def test_restart_bit_identical(self, tmp_path):
        cfg12, raw = self.write_config(tmp_path, steps=12, name="a.json")
        out12 = tmp_path / "full"
        assert run_cli("solve", "--config", cfg12, "--out-dir", str(out12)).returncode == 0

        cfg6, _ = self.write_config(tmp_path, steps=6, name="b.json")
        out6 = tmp_path / "half"
        assert run_cli("solve", "--config", cfg6, "--out-dir", str(out6)).returncode == 0

        raw["initial"] = {
            "kind": "custom_file",
            "params": {"path": str(out6 / "final_state.json")},
        }
        raw["steps"] = 6
        cfg_restart = tmp_path / "c.json"
        cfg_restart.write_text(json.dumps(raw))
        out_r = tmp_path / "restart"
        assert run_cli("solve", "--config", str(cfg_restart),
                       "--out-dir", str(out_r)).returncode == 0

        full = DiscreteDistribution.load(str(out12 / "final_state.json"))
        restarted = DiscreteDistribution.load(str(out_r / "final_state.json"))
        assert np.array_equal(full.values, restarted.values)

    def test_fixed_dt_too_large_fails(self, tmp_path):
        cfg, _ = self.write_config(tmp_path, dt=10.0)
        res = run_cli("solve", "--config", cfg, "--out-dir", str(tmp_path / "r"))
        assert res.returncode == 1
        assert "stability" in res.stderr

    @pytest.mark.parametrize("override", [
        {"dt": 0}, {"dt": "abc"}, {"dt": -0.001}, {"dt": "nan"},
        {"steps": "x"}, {"steps": -3}, {"cadence": -1}, {"scheme": "rk4"},
        {"drift_scheme": "upwind"}, {"method": "direct"},
        {"psi": {"kind": "power_law", "gamma": "x"}},
        {"grid": {"dim": 3, "half_width": 5.0, "nodes_per_axis": "x"}},
        {"initial": {"kind": "custom_file", "params": {"path": "no_such_state.json"}}},
        {"grid": {"dim": 3, "half_width": 5.0, "nodes_per_axis": 8.7}},
        {"grid": {"dim": 3.0, "half_width": "4", "nodes_per_axis": 8}},
        {"initial": {"kind": "maxwellian", "params": {"temperature": "x"}}},
        {"initial": {"kind": "radial_heavy_tail", "params": {"exponent": "4"}}},
        {"initial": {"kind": "mixture", "params": {"components": [
            {"kind": "maxwellian"},
            {"kind": "custom_file", "params": {"path": "no_such_state.json"}}]}}},
        {"l_list": "12"}, {"gamma1": math.nan}, {"k_list": [math.inf]}, {"k_list": [0]},
        {"dt": True}, {"l_list": [math.nan]}, {"dt": "1e-4"},
        {"initial": {"kind": "bimaxwellian", "params": {"axis": 5}}},
        {"initial": {"kind": "bimaxwellian", "params": {"axis": 1.7}}},
        {"initial": {"kind": "maxwellian", "params": {"temperature": True}}},
        {"initial": {"kind": "maxwellian", "normalize": "no"}},
        {"initial": {"kind": "maxwellian", "normalize": "false"}},
        {"psi": {"kind": "power_law", "gamma": "-2.5"}},
        {"psi": {"kind": "power_law", "gamma": True}},
        {"initial": {"kind": "maxwellian", "params": {"temprature": 2.0}}},
        {"grid": {"dim": 3, "half_width": 5.0, "nodes": 8}},
        # zero mass: weights all 0, or every value underflows to 0
        {"initial": {"kind": "mixture", "params": {"components": [{"kind": "maxwellian"}],
                                                   "weights": [0]}}},
        {"initial": {"kind": "maxwellian", "params": {"temperature": 1e300}}},
        # h^N overflows, or underflows to 0
        {"grid": {"dim": 3, "half_width": 1e300, "nodes_per_axis": 8}},
        {"grid": {"dim": 3, "half_width": 1e-300, "nodes_per_axis": 8}},
        # all the mass on one node: normalizing divides by a zero temperature
        {"initial": {"kind": "maxwellian", "normalize": True,
                     "params": {"temperature": 1e-3, "mean": [0.75]}}},
    ])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, override):
        _, raw = self.write_config(tmp_path, nodes=8)
        raw.update(override)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert_usage_error(capsys, "solve", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_unwritable_out_dir_is_usage_error_before_the_run(self, tmp_path, capsys,
                                                                monkeypatch):
        cfg, _ = self.write_config(tmp_path, nodes=8)
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("the run started"))
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert_usage_error(capsys, "solve", "--config", cfg, "--out-dir", blocker / "sub",
                           out=blocker / "sub")

    def test_duplicate_columns_are_usage_error(self, tmp_path, capsys):
        # M_<l> and lp_net_<k> print l and k with %g, so these lists would
        # give four M_1 columns and two lp_net_1 columns
        _, raw = self.write_config(tmp_path, nodes=8)
        raw.update(l_list=[1, 1, 1.0000001, 1.00000011], k_list=[1, 1])
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "r"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "['M_1', 'lp_net_1']" in err
        assert not out.exists()

    def test_diagnostics_keep_every_momentum_component(self, tmp_path, capsys):
        # a 4-D run has a p3 column after pz; a coarse 4-D Maxwellian exits 1
        # on the flux form's entropy rise, and its files are written anyway
        raw = {"psi": {"kind": "power_law", "gamma": -2.0},
               "grid": {"dim": 4, "half_width": 4.0, "nodes_per_axis": 6},
               "initial": {"kind": "maxwellian"}, "steps": 3}
        p = tmp_path / "solve4.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "r"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) in (0, 1)
        capsys.readouterr()
        with open(out / "diagnostics.csv") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[3:8] == ["px", "py", "pz", "p3", "energy"]
        f0 = generate_distribution(DistributionSpec("maxwellian", {}), build_grid(4, 4.0, 6))
        config = SolverConfig(spec=PowerLawPsi(-2.0), steps=3)
        records = run(f0, config).records
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row[3:7] == [repr(float(m)) for m in rec.momentum]

    def custom_initial(self, tmp_path, state, normalize=False):
        """A solve config (8^3, L = 5) starting from the stored `state`."""
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        _, raw = self.write_config(tmp_path, steps=2, nodes=8)
        raw["initial"] = {"kind": "custom_file", "params": {"path": str(path)},
                          "normalize": normalize}
        p = tmp_path / "custom.json"
        p.write_text(json.dumps(raw))
        return p

    def test_custom_initial_layout_mismatch_is_usage_error(self, stored_maxwellian,
                                                           tmp_path, capsys):
        state = json.loads(pathlib.Path(stored_maxwellian).read_text())  # 12^3
        p = self.custom_initial(tmp_path, state)
        assert_usage_error(capsys, "solve", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_custom_initial_non_finite_is_usage_error(self, tmp_path, capsys):
        values = [1e-3] * 8**3
        values[100] = math.nan
        state = {"dim": 3, "half_width": 5.0, "nodes_per_axis": 8, "values": values}
        p = self.custom_initial(tmp_path, state)
        assert_usage_error(capsys, "solve", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_overflowing_moment_weight_is_usage_error(self, tmp_path):
        # M_l with (1+|v|^2)^l infinite at some node is refused before the
        # run, in one line and with no overflow warning
        p = tmp_path / "solve.json"
        p.write_text(json.dumps({"grid": {"half_width": 3.0, "nodes_per_axis": 8},
                                 "initial": {"kind": "maxwellian"}, "l_list": [1e6]}))
        res = run_cli("solve", "--config", str(p), "--out-dir", str(tmp_path / "r"))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: ") and res.stderr.count("\n") == 1
        assert "Warning" not in res.stderr and "1e+06" in res.stderr
        assert not (tmp_path / "r").exists()

    def test_custom_initial_normalized(self, tmp_path, capsys):
        # a stored state of mass 2 starts the run at mass 1, as in verify
        grid = build_grid(3, 5.0, 8)
        f = generate_distribution(DistributionSpec(
            "bimaxwellian", {"separation": 1.6, "temperature": 0.6}, normalize=True), grid)
        state = f.with_values(2.0 * f.values).to_json_dict()
        out = tmp_path / "r"
        for normalize, mass in ((False, 2.0), (True, 1.0)):
            p = self.custom_initial(tmp_path, state, normalize=normalize)
            assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == 0
            with open(out / "diagnostics.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert float(rows[0]["mass"]) == pytest.approx(mass, rel=1e-12)
        capsys.readouterr()

    def test_missing_initial_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "psi": {"kind": "coulomb"},
            "grid": {"dim": 3, "half_width": 5.0, "nodes_per_axis": 8},
        }))
        assert_usage_error(capsys, "solve", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_zero_resolution_override_is_usage_error(self, tmp_path, capsys):
        cfg, _ = self.write_config(tmp_path, nodes=8)
        assert_usage_error(capsys, "solve", "--config", cfg, "--out-dir", tmp_path / "r",
                           "--resolution", "0", out=tmp_path / "r")


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_threads_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--threads", "2", "verify", "--config", "c", "--out-dir", "o"]
            )

    def test_import_loads_no_scipy(self):
        # nor the process pool, which only a forking verify run imports
        code = ("import sys, landau.cli; print([m for m in sys.modules if m.split('.')[0] "
                "in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')])")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=CHILD_ENV)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_version_single_source(self):
        # pyproject reads the version from the package, so the installed
        # metadata and the version in reports cannot disagree
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        root = pathlib.Path(__file__).resolve().parents[1]
        meta = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "landau.__version__"
        }
        assert landau.__version__ == "1.0.0"
