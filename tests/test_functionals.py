"""Moments, entropy dissipation, weighted norms, the Gaussian-weighted
determinant, and the log-gradient reconstruction."""

import math

import numpy as np
import pytest

import landau.kernels

from landau.errors import ValidationError
from landau.functionals import (
    GAMMA_FLOOR_COEFF,
    LAMBDA0_COEFF,
    entropy_dissipation,
    gamma_determinant,
    gamma_floor,
    gamma_values,
    lambda0,
    moments,
    reconstruct_log_gradient_field,
    weighted_fisher,
    weighted_lp,
)
from landau.grid import DiscreteDistribution, build_grid
from landau.kernels import CoulombPsi, PowerLawPsi, collision_coefficients
from oracles import dissipation_fsum


def maxwellian(grid, temperature=1.0, mean=None):
    mean = np.zeros(grid.dim) if mean is None else np.asarray(mean, dtype=float)
    d2 = np.sum((grid.coords - mean) ** 2, axis=1)
    norm = (2.0 * math.pi * temperature) ** (grid.dim / 2.0)
    return DiscreteDistribution(grid, np.exp(-0.5 * d2 / temperature) / norm)


def bimodal(grid, sep=1.5, eps=1.0):
    c = grid.coords
    off = np.zeros(grid.dim)
    off[0] = sep
    g1 = np.exp(-0.5 * np.sum((c - off) ** 2, axis=1))
    g2 = np.exp(-0.5 * np.sum((c + off) ** 2, axis=1))
    vals = (1.0 - 0.5 * eps) * g1 + 0.5 * eps * g2
    vals /= np.sum(vals) * grid.cell_volume
    return DiscreteDistribution(grid, vals)


class TestMoments:
    def test_gaussian_closed_form(self):
        g = build_grid(3, 6.0, 16)
        f = maxwellian(g)
        ms = moments(f, l_list=(1.0, 2.0))
        assert ms.mass == pytest.approx(1.0, abs=1e-3)
        np.testing.assert_allclose(ms.momentum, 0.0, atol=1e-14)
        # energy convention: (1/2) int f |v|^2
        assert ms.energy == pytest.approx(1.5, abs=5e-3)
        # H(M) = -(3/2) ln(2 pi) - 3/2
        assert ms.entropy == pytest.approx(-1.5 * math.log(2 * math.pi) - 1.5, abs=1e-3)
        # E (1+|v|^2) = 4, E (1+|v|^2)^2 = 1 + 2*3 + 15 = 22
        assert ms.moments[1.0] == pytest.approx(4.0, abs=5e-3)
        assert ms.moments[2.0] == pytest.approx(22.0, rel=5e-3)

    def test_zero_distribution(self):
        g = build_grid(2, 1.0, 4)
        ms = moments(DiscreteDistribution(g, np.zeros(16)))
        assert ms.mass == 0.0 and ms.entropy == 0.0


class TestWeightedNorms:
    def test_weighted_lp_oracle(self):
        g = build_grid(2, 2.0, 6)
        vals = np.arange(1.0, g.size + 1.0)
        f = DiscreteDistribution(g, vals)
        p, l = 3.0, -1.0
        # norm of (1+|v|^2)^(l/2) f in L^p
        w = (1.0 + g.sq_norm) ** (l / 2.0)
        oracle = (g.cell_volume * np.sum((w * vals) ** p)) ** (1.0 / p)
        assert weighted_lp(f, p, l) == pytest.approx(oracle, rel=1e-14)

    def test_weighted_lp_sup(self):
        g = build_grid(2, 2.0, 6)
        vals = np.arange(1.0, g.size + 1.0)
        f = DiscreteDistribution(g, vals)
        w = (1.0 + g.sq_norm) ** -1.0
        assert weighted_lp(f, math.inf, -2.0) == pytest.approx(np.max(w * vals))

    def test_weighted_lp_tends_to_the_sup(self):
        # no power underflows: at p = 300 the norm once read 0 here
        f = maxwellian(build_grid(3, 6.0, 16))
        sup = weighted_lp(f, math.inf, -1.0)
        norms = [weighted_lp(f, p, -1.0) for p in (10.0, 100.0, 300.0, 1e4, 1e308)]
        assert all(a > b >= sup for a, b in zip(norms, norms[1:]))
        assert norms[-1] == pytest.approx(sup, rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.0, -math.inf, math.nan])
    def test_weighted_lp_exponent_validation(self, p):
        g = build_grid(2, 2.0, 6)
        f = DiscreteDistribution(g, np.ones(g.size))
        with pytest.raises(ValidationError):
            weighted_lp(f, p, 0.0)

    @pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf])
    def test_weighted_lp_weight_exponent_validation(self, l):
        g = build_grid(2, 2.0, 6)
        f = DiscreteDistribution(g, np.ones(g.size))
        for p in (2.0, math.inf):
            with pytest.raises(ValidationError):
                weighted_lp(f, p, l)

    @pytest.mark.parametrize("gamma1", [math.nan, math.inf, -math.inf])
    def test_weighted_fisher_exponent_validation(self, gamma1):
        g = build_grid(2, 2.0, 6)
        f = DiscreteDistribution(g, np.ones(g.size))
        with pytest.raises(ValidationError):
            weighted_fisher(f, gamma1)

    def test_weighted_fisher_gaussian(self):
        # |grad sqrt(M)|^2 = |v|^2 M / 4; with weight (1+|v|^2)^-3/2 the
        # integral has a closed 1-D radial form; frozen quadrature oracle:
        import scipy.integrate as si

        oracle = si.quad(
            lambda r: 4.0
            * math.pi
            * r**2
            * (r**2 / 4.0)
            * math.exp(-0.5 * r**2)
            / (2.0 * math.pi) ** 1.5
            * (1.0 + r**2) ** -1.5,
            0.0,
            12.0,
        )[0]
        g = build_grid(3, 6.0, 32)
        f = maxwellian(g)
        assert weighted_fisher(f, -3.0) == pytest.approx(oracle, rel=6e-2)


class TestEntropyDissipation:
    def test_forms_agree_randomly(self):
        rng = np.random.default_rng(21)
        g = build_grid(3, 2.0, 8)
        spec = CoulombPsi()
        for _ in range(5):
            f = DiscreteDistribution(g, rng.random(g.size))
            a = entropy_dissipation(f, spec, form="projected")
            b = entropy_dissipation(f, spec, form="pairdiff")
            assert a == pytest.approx(b, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        g = build_grid(2, 2.0, 8)
        spec = PowerLawPsi(-1.0)
        for _ in range(5):
            f = DiscreteDistribution(g, rng.random(g.size))
            assert entropy_dissipation(f, spec) >= 0.0

    def test_maxwellian_near_zero(self):
        g = build_grid(3, 6.0, 16)
        spec = CoulombPsi()
        d_eq = entropy_dissipation(maxwellian(g), spec)
        d_bi = entropy_dissipation(bimodal(g, eps=0.1), spec)
        assert d_eq <= 1e-3 * d_bi

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_near_equilibrium_matches_fsum_reference(self, eps):
        # f = M (1 + eps p), p a smooth field with max |p| = 1: D ~ eps^2,
        # while xi ~ -v; before xi lost its affine part, the projected form
        # was off by 2e-11 at eps = 1e-2 and by 3e-6 at eps = 1e-5
        g = build_grid(3, 5.0, 12)
        rng = np.random.default_rng(9)
        p = sum(rng.normal() * np.cos(g.coords @ rng.normal(size=3) + rng.uniform(0, 2 * math.pi))
                for _ in range(6))
        m = maxwellian(g)
        f = m.with_values(m.values * (1.0 + eps * p / np.max(np.abs(p))))
        ref = dissipation_fsum(f, CoulombPsi())
        for form in ("projected", "pairdiff"):
            assert abs(entropy_dissipation(f, CoulombPsi(), form=form) / ref - 1) <= 1e-12

    def test_python_float_in_every_form(self):
        # np.float64 would print as "np.float64(...)" in diagnostics.csv
        g = build_grid(3, 4.0, 8)
        f = bimodal(g)
        spec = CoulombPsi()
        coeffs = collision_coefficients(f, spec)
        for kwargs in ({}, {"coeffs": coeffs}, {"form": "pairdiff"}):
            assert type(entropy_dissipation(f, spec, **kwargs)) is float, kwargs

    def test_peak_memory(self, monkeypatch, traced_peak, engine_bytes):
        # from a cold engine: the a_ij half spectra, the two work buffers,
        # the two slab temporaries of the drift term, and six (size, N) arrays
        # for xi, G, one component of a*F, one product, F and the transform
        # temporaries; the (size, N, N) array a*F, or a third work buffer,
        # does not fit
        monkeypatch.setattr(landau.kernels, "_LAYOUT", {})
        g = build_grid(3, 6.0, 16)
        budget = engine_bytes(g, 6, 2) + 2 * landau.kernels._SLAB_BYTES + 6 * g.size * 3 * 8
        f = maxwellian(g)
        assert traced_peak(lambda: entropy_dissipation(f, CoulombPsi())) < budget

    def test_scaling_quadratic_in_mass(self):
        g = build_grid(3, 4.0, 10)
        spec = CoulombPsi()
        f = bimodal(g)
        d1 = entropy_dissipation(f, spec)
        d2 = entropy_dissipation(f.with_values(2.0 * f.values), spec)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-12)


class TestGammaConstants:
    def test_lambda0_value(self):
        assert LAMBDA0_COEFF == pytest.approx(2.0**-82 * 3.0**-13)
        assert lambda0(6.0) == pytest.approx(2.0**-82 * 3.0**-13 * math.exp(-144.0))

    def test_floor_value(self):
        assert GAMMA_FLOOR_COEFF == pytest.approx(2.0**-38 * 3.0**-4)
        assert gamma_floor(8.0) == pytest.approx(2.0**-38 * 3.0**-4 * math.exp(-128.0))


class TestGammaDeterminant:
    def test_maxwellian_closed_form(self):
        # Gamma(lambda) = (1 + 2 lambda)^(-13/2) for the unit Maxwellian
        g = build_grid(3, 6.0, 24)
        f = maxwellian(g)
        for lam in (0.01, 0.1, 0.5):
            got = gamma_determinant(f, lam, 0, 1).gamma_value
            want = (1.0 + 2.0 * lam) ** -6.5
            assert got == pytest.approx(want, rel=2e-3)

    def test_axis_validation(self):
        # normalized to 5e-12, so each bad call fails on its own check
        f = maxwellian(build_grid(3, 8.0, 20))
        for i, j in ((0, 0), (0, -1), (-1, 0), (0, 3), (0, 5), (0, 1.5), (True, 2)):
            with pytest.raises(ValidationError, match="axes"):
                gamma_determinant(f, 0.1, i, j)
        for lam in (-0.1, 0.0, math.nan):
            with pytest.raises(ValidationError, match="lam"):
                gamma_determinant(f, lam, 0, 1)
        assert gamma_determinant(f, 0.1, 2, 0).gamma_value == gamma_values(f, 0.1)[1][2, 0]


class TestReconstruction:
    def test_maxwellian_log_gradient(self):
        g = build_grid(3, 6.0, 24)
        f = maxwellian(g)
        field, mask = reconstruct_log_gradient_field(f)
        sel = mask & (g.sq_norm < 4.0)
        err = np.max(np.abs(field[sel] + g.coords[sel]))
        assert err < 5e-3

    def test_single_node_access(self):
        g = build_grid(3, 6.0, 16)
        f = maxwellian(g)
        node = int(np.argmin(np.sum((g.coords - [1.0, 0.5, -0.5]) ** 2, axis=1)))
        field, mask = reconstruct_log_gradient_field(f, 1e-3)
        assert mask[node]
        np.testing.assert_allclose(field[node], -g.coords[node], atol=2e-2)

    def test_unnormalized_input_rejected(self):
        g = build_grid(3, 6.0, 8)
        vals = np.zeros(g.size)
        vals[np.argmin(g.sq_norm)] = 1.0 / g.cell_volume
        f = DiscreteDistribution(g, vals)
        with pytest.raises(ValidationError):
            reconstruct_log_gradient_field(f, lam=0.5)
