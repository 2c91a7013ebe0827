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
import subprocess
import sys

import numpy as np
import pytest

import landau
from landau.cli import build_parser, main
from landau.families import DistributionSpec, generate_distribution
from landau.grid import DiscreteDistribution, build_grid


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
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, state):
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        assert_usage_error(capsys, "functional", "--input", p, "--psi", "coulomb",
                           "--out", tmp_path / "o.json", out=tmp_path / "o.json")


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
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, override):
        cfg = {"grid": {"dim": 3, "half_width": 6.0}, "resolutions": [12], "suites": ["sobolev"]}
        cfg.update(override)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert_usage_error(capsys, "verify", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

    def test_non_object_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("[]")
        assert_usage_error(capsys, "verify", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

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
        final = DiscreteDistribution.load(str(out / "final_state.json"))
        assert float(np.min(final.values)) >= 0.0

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
    ])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, override):
        _, raw = self.write_config(tmp_path, nodes=8)
        raw.update(override)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert_usage_error(capsys, "solve", "--config", p, "--out-dir", tmp_path / "r",
                           out=tmp_path / "r")

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
        code = ("import sys, landau.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
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
