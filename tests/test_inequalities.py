"""Inequality checkers: explicit constants, ratio modes, and guards."""

import math

import numpy as np
import pytest

from landau import inequalities
from landau.errors import ValidationError
from landau.families import DistributionSpec, generate_distribution
from landau.functionals import entropy_dissipation
from landau.grid import DiscreteDistribution, build_grid, normalize
from landau.inequalities import (
    EDD_RADIAL_CONSTANT,
    SOBOLEV_FISHER_CONSTANT,
    SOBOLEV_MASS_CONSTANT,
    check_edd_theorem,
    check_gamma_lower_bound,
    check_interpolation,
    check_sobolev,
    check_young,
    moment_condition,
    radial_deviation,
)
from landau.kernels import CoulombPsi, PowerLawPsi


def radial_family(grid, kind="maxwellian"):
    params = {
        "maxwellian": {"temperature": 1.0},
        "radial_shell": {"radius": 2.0, "width": 0.5},
        "radial_heavy_tail": {"exponent": 4.0},
    }[kind]
    return generate_distribution(
        DistributionSpec(kind, params, normalize=True), grid
    )


class TestConstants:
    def test_explicit_values(self):
        assert EDD_RADIAL_CONSTANT == pytest.approx(
            108.0 * 13.0**1.5 * (16.0 * math.pi / 3.0) ** (4.0 / 3.0)
        )
        assert SOBOLEV_MASS_CONSTANT == pytest.approx(6.0 / math.sqrt(math.pi))
        assert SOBOLEV_FISHER_CONSTANT == pytest.approx(8.0 / (3.0 * math.sqrt(math.pi)))


class TestEddTheorem:
    def test_radial_explicit_holds_with_slack(self):
        grid = build_grid(3, 6.0, 16)
        for kind in ("maxwellian", "radial_shell", "radial_heavy_tail"):
            rep = check_edd_theorem(radial_family(grid, kind), CoulombPsi())
            assert rep.holds
            assert rep.slack >= 10.0

    def test_non_radial_rejected(self, monkeypatch):
        # rejected before D, the costly term, is taken
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return entropy_dissipation(*args, **kwargs)

        monkeypatch.setattr(inequalities, "entropy_dissipation", counted)
        grid = build_grid(3, 6.0, 12)
        f = generate_distribution(
            DistributionSpec(
                "bimaxwellian", {"separation": 2.0, "temperature": 0.4},
                normalize=True,
            ),
            grid,
        )
        with pytest.raises(ValidationError, match="not radially symmetric"):
            check_edd_theorem(f, CoulombPsi(), mode="radial_explicit")
        assert calls == []
        check_edd_theorem(f, CoulombPsi(), mode="ratio")
        assert len(calls) == 1

    def test_ratio_mode_finite_and_positive(self):
        grid = build_grid(3, 6.0, 16)
        f = generate_distribution(
            DistributionSpec(
                "bimaxwellian", {"separation": 1.0, "temperature": 1.0},
                normalize=True,
            ),
            grid,
        )
        rep = check_edd_theorem(f, CoulombPsi(), mode="ratio")
        assert rep.constant_used == "ratio-only"
        ratio = rep.lhs / rep.rhs
        assert math.isfinite(ratio) and ratio > 0.0
        assert rep.holds and rep.inputs["ratio"] == ratio


class TestSobolev:
    def test_coulomb_explicit_holds(self):
        grid = build_grid(3, 6.0, 16)
        for kind in ("maxwellian", "radial_shell", "radial_heavy_tail"):
            rep = check_sobolev(radial_family(grid, kind), -3.0, variant="coulomb_explicit")
            assert rep.holds
            assert "holds_display_weight" in rep.inputs

    def test_slack_scale_invariant(self):
        grid = build_grid(3, 6.0, 16)
        f = radial_family(grid)
        slacks = []
        for c in (0.1, 1.0, 10.0):
            rep = check_sobolev(f.with_values(c * f.values), -3.0, variant="coulomb_explicit")
            slacks.append(rep.slack)
            assert rep.holds
        assert max(slacks) / min(slacks) < 1.005

    def test_general_variant_is_ratio_only(self):
        grid = build_grid(3, 6.0, 12)
        rep = check_sobolev(radial_family(grid), -2.5, variant="general")
        assert rep.constant_used == "ratio-only"
        assert math.isfinite(rep.lhs)
        assert rep.holds and rep.inputs["ratio"] == rep.lhs / rep.rhs


def young_direct(f, spec, R):
    """Direct double sum h^2N sum_v sum_{w in ball, w != v} f(v) f(w) psi(|v - w|)."""
    coords, fv = f.grid.coords, f.values
    ball = np.flatnonzero((f.grid.sq_norm <= R * R) & (fv > 0))
    live = np.flatnonzero(fv > 0)
    h2n = f.grid.cell_volume**2
    lhs = 0.0
    for start in range(0, live.size, 128):
        rows = live[start : start + 128]
        z = coords[rows, None, :] - coords[None, ball, :]
        rsq = np.sum(z**2, axis=-1)
        diag = rsq == 0.0
        rsq[diag] = 1.0
        ff = fv[rows, None] * fv[None, ball]
        ff[diag] = 0.0
        psi = np.asarray(spec.psi(np.sqrt(rsq)), dtype=float)
        lhs += h2n * float(np.sum(ff * psi))
    return lhs


class TestYoung:
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize(
        "make_spec", [CoulombPsi, lambda: PowerLawPsi(-2.7)], ids=["coulomb", "power_law"],
    )
    def test_lhs_matches_direct_pair_sum(self, n, make_spec):
        grid = build_grid(3, 2.0, n)
        rng = np.random.default_rng(n)
        values = rng.random(grid.size) * (rng.random(grid.size) > 0.3)
        R = 1.2
        inside = grid.sq_norm <= R * R
        assert np.any(values[inside] == 0) and np.any(values[~inside] == 0)
        f = DiscreteDistribution(grid, values)
        spec = make_spec()
        lhs = check_young(f, spec, R=R, r=1.2).lhs
        oracle = young_direct(f, spec, R)
        assert abs(lhs - oracle) <= 1e-12 * oracle

    def test_holds_for_very_soft_power_law(self):
        grid = build_grid(3, 5.0, 12)
        f = radial_family(grid)
        rep = check_young(f, PowerLawPsi(-2.7), R=2.0, r=1.2)
        assert rep.holds

    def test_r_range_guard(self):
        grid = build_grid(3, 5.0, 8)
        f = radial_family(grid)
        with pytest.raises(ValidationError):
            check_young(f, PowerLawPsi(-2.7), R=2.0, r=10.0)
        with pytest.raises(ValidationError):
            check_young(f, PowerLawPsi(-1.0), R=2.0, r=1.2)

    def test_radius_guard(self):
        # a NaN radius empties the ball, so lhs would be 0 and the row would hold
        f = radial_family(build_grid(3, 5.0, 8))
        for R in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError, match="R must be > 0"):
                check_young(f, PowerLawPsi(-2.7), R=R, r=1.2)


class TestGammaFloor:
    def test_normalized_families_above_floor(self):
        grid = build_grid(3, 6.0, 16)
        for kind in ("maxwellian", "radial_shell"):
            for hbar in (6.0, 8.0):
                rep = check_gamma_lower_bound(radial_family(grid, kind), hbar)
                assert rep.holds
                # rhs is the worst pair determinant, lhs the floor
                assert rep.rhs > rep.lhs


class TestInterpolation:
    def test_random_holder_checks(self):
        rng = np.random.default_rng(17)
        grid = build_grid(3, 2.0, 6)
        for _ in range(20):
            f = DiscreteDistribution(grid, rng.random(grid.size))
            q1 = rng.uniform(1.0, 2.0)
            q2 = rng.uniform(2.5, 4.0)
            beta = rng.uniform(0.1, 0.9)
            rep = check_interpolation(
                f, q1, rng.uniform(-1, 2), q2, rng.uniform(-1, 2), beta
            )
            assert rep.holds

    def test_endpoint_exact(self):
        rng = np.random.default_rng(4)
        grid = build_grid(2, 2.0, 8)
        f = DiscreteDistribution(grid, rng.random(grid.size))
        rep = check_interpolation(f, 2.0, 1.0, 3.0, 0.0, 1.0)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-14)

    def test_large_exponent_holds(self):
        # ||f||_400 once underflowed to 0 here, and the row failed
        f = radial_family(build_grid(3, 6.0, 16))
        rep = check_interpolation(f, q1=400, l1=0, q2=1, l2=0, beta=0.5)
        assert rep.holds and rep.rhs > 0


class TestMomentCondition:
    def test_table(self):
        assert moment_condition(-3.0, -3.0) is True
        assert moment_condition(-2.0 * math.sqrt(3.0), -2.0 * math.sqrt(3.0)) is False
        assert moment_condition(-2.0, -2.5) is True


class TestRadialDeviation:
    def test_zero_for_radial(self):
        grid = build_grid(3, 4.0, 12)
        f = radial_family(grid)
        assert radial_deviation(f) < 1e-12

    def test_positive_for_shifted(self):
        grid = build_grid(3, 4.0, 12)
        f = generate_distribution(
            DistributionSpec("maxwellian", {"temperature": 1.0, "mean": [0.8, 0, 0]}),
            grid,
        )
        assert radial_deviation(f) > 1e-2
