"""Distribution generators and their invariants."""

import numpy as np
import pytest

from landau.errors import ValidationError
from landau.families import DistributionSpec, generate_distribution
from landau.grid import build_grid, integrate
from landau.inequalities import radial_deviation


GRID = build_grid(3, 6.0, 16)


class TestGenerators:
    def test_normalized_maxwellian(self):
        spec = DistributionSpec("maxwellian", {"temperature": 1.0}, normalize=True)
        f = generate_distribution(spec, GRID)
        assert integrate(f) == pytest.approx(1.0, abs=1e-3)
        assert abs(integrate(f, GRID.coords[:, 0])) <= 1e-3
        assert integrate(f, GRID.sq_norm) == pytest.approx(3.0, abs=3e-3)

    def test_symmetric_bimaxwellian_momentum_zero(self):
        spec = DistributionSpec(
            "bimaxwellian", {"separation": 1.2, "temperature": 0.8}
        )
        f = generate_distribution(spec, GRID)
        for d in range(3):
            assert abs(integrate(f, GRID.coords[:, d])) < 1e-13

    def test_all_kinds_nonnegative(self):
        specs = [
            DistributionSpec("maxwellian", {"temperature": 1.1, "mean": [0.2, 0, 0]}),
            DistributionSpec("bimaxwellian", {"separation": 1.0, "temperature": 1.0}),
            DistributionSpec("anisotropic_gaussian", {"variances": [0.5, 1.0, 2.0]}),
            DistributionSpec("radial_shell", {"radius": 2.0, "width": 0.5}),
            DistributionSpec("radial_heavy_tail", {"exponent": 4.0}),
            DistributionSpec(
                "mixture",
                {
                    "components": [
                        {"kind": "maxwellian", "params": {"temperature": 0.5}},
                        {"kind": "radial_shell", "params": {"radius": 2.5, "width": 0.7}},
                    ],
                    "weights": [0.7, 0.3],
                },
            ),
        ]
        for spec in specs:
            f = generate_distribution(spec, GRID)
            assert np.all(f.values >= 0.0)
            assert integrate(f) > 0.0

    def test_state_with_no_mass_raises(self):
        # a Maxwellian of temperature 1e-5 underflows to 0 at every node
        cold, warm = {"kind": "maxwellian", "params": {"temperature": 1e-5}}, {"kind": "maxwellian"}
        for spec in (DistributionSpec.from_json_dict(cold),
                     DistributionSpec("mixture", {"components": [cold]})):
            with pytest.raises(ValidationError, match="zero mass"):
                generate_distribution(spec, GRID)
        # a mixture whose total has mass builds, though a component is empty
        f = generate_distribution(DistributionSpec("mixture", {"components": [cold, warm]}), GRID)
        half = DistributionSpec("mixture", {"components": [warm], "weights": [0.5]})
        assert np.array_equal(f.values, generate_distribution(half, GRID).values)

    def test_radial_kinds_rotation_invariant(self):
        for spec in (
            DistributionSpec("maxwellian", {"temperature": 1.0}),
            DistributionSpec("radial_shell", {"radius": 2.0, "width": 0.5}),
            DistributionSpec("radial_heavy_tail", {"exponent": 4.0}),
        ):
            f = generate_distribution(spec, GRID)
            assert radial_deviation(f) < 1e-3

    def test_heavy_tail_exponent_guard(self):
        with pytest.raises(ValidationError):
            generate_distribution(
                DistributionSpec("radial_heavy_tail", {"exponent": 2.0}), GRID
            )

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            generate_distribution(DistributionSpec("cauchy", {}), GRID)

    def test_params_read_strictly(self):
        # an unknown parameter is not ignored, and normalize is not coerced
        with pytest.raises(ValidationError):
            DistributionSpec("maxwellian", {"temprature": 2.0})
        with pytest.raises(ValidationError):
            DistributionSpec("maxwellian", {}, normalize="no")

    @pytest.mark.parametrize("kind, ints, floats", [
        ("maxwellian", {"temperature": 2, "mean": [1, 0, 0]},
         {"temperature": 2.0, "mean": [1.0, 0.0, 0.0]}),
        ("bimaxwellian", {"separation": 2, "temperature": 1, "axis": 1},
         {"separation": 2.0, "temperature": 1.0, "axis": 1}),
        ("anisotropic_gaussian", {"variances": [1, 2, 3], "mean": [0]},
         {"variances": [1.0, 2.0, 3.0], "mean": [0.0]}),
        ("radial_shell", {"radius": 2, "width": 1}, {"radius": 2.0, "width": 1.0}),
        ("radial_heavy_tail", {"exponent": 4}, {"exponent": 4.0}),
        ("mixture",
         {"components": [{"kind": "maxwellian", "params": {"temperature": 2}}], "weights": [3]},
         {"components": [{"kind": "maxwellian", "params": {"temperature": 2.0}}],
          "weights": [3.0]}),
    ])
    def test_integer_params_match_floats(self, kind, ints, floats):
        a = generate_distribution(DistributionSpec(kind, ints), GRID)
        b = generate_distribution(DistributionSpec(kind, floats), GRID)
        assert np.array_equal(a.values, b.values)

    def test_custom_file_round_trip(self, tmp_path):
        f = generate_distribution(
            DistributionSpec("maxwellian", {"temperature": 1.0}), GRID
        )
        path = tmp_path / "f.json"
        f.save(path)
        back = generate_distribution(
            DistributionSpec("custom_file", {"path": str(path)}), GRID
        )
        np.testing.assert_array_equal(back.values, f.values)

    def test_custom_file_layout_mismatch(self, tmp_path):
        f = generate_distribution(
            DistributionSpec("maxwellian", {"temperature": 1.0}), GRID
        )
        path = tmp_path / "f.json"
        f.save(path)
        other = build_grid(3, 6.0, 12)
        with pytest.raises(ValidationError):
            generate_distribution(
                DistributionSpec("custom_file", {"path": str(path)}), other
            )
