"""Kernel laws, the projection matrix, and the convolution coefficients."""

import math

import numpy as np
import pytest

import landau.kernels

from landau.errors import ValidationError
from landau.grid import DiscreteDistribution, _gradient_nd, build_grid
from landau.kernels import (
    BracketedPsi,
    CoulombPsi,
    PowerLawPsi,
    _a_tables,
    _convolve_direct,
    a_contract,
    collision_coefficients,
    projection,
    psi_eval,
    psi_spec_from_json,
)


def maxwellian(grid, temperature=1.0):
    norm = (2.0 * math.pi * temperature) ** (grid.dim / 2.0)
    return DiscreteDistribution(
        grid, np.exp(-0.5 * grid.sq_norm / temperature) / norm
    )


class TestPsiLaws:
    def test_coulomb_values(self):
        psi = CoulombPsi()
        assert psi.gamma == -3.0
        assert psi_eval(psi, 2.0) == pytest.approx(0.5)
        assert psi_eval(psi, 0.0) == math.inf

    def test_power_law_values(self):
        psi = PowerLawPsi(-2.5)
        r = 1.7
        assert psi.psi(r) == pytest.approx(r ** (-0.5))

    @pytest.mark.parametrize("psi, envelope", [
        (PowerLawPsi(-2.5), (-2.5, -2.5, 1.0, 1.0)),
        (CoulombPsi(), (-3.0, -3.0, 1.0, 1.0)),
        (BracketedPsi(K1=2.0, K2=3.0, K3=0.5, delta=1.0, gamma1=-3.0, gamma2=-2.7,
                      psi_fn=lambda r: min(1.0, r ** -0.7)),
         (-3.0, -2.7, 2.0, 3.0)),
    ])
    def test_envelope_exponents(self, psi, envelope):
        # every law carries (gamma1, gamma2, K1, K2); a pure power law is its own envelope
        assert (psi.gamma1, psi.gamma2, psi.K1, psi.K2) == envelope

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            psi_eval(CoulombPsi(), -1.0)

    def test_bracketed_sandwich_validated(self):
        psi = BracketedPsi(
            K1=1.0, K2=1.0, K3=0.5, delta=1.0, gamma1=-3.0, gamma2=-3.0,
            psi_fn=lambda r: np.asarray(r, dtype=float) ** -1.0,
        )
        assert psi.psi(2.0) == pytest.approx(0.5)

    def test_bracketed_rejects_violating_function(self):
        with pytest.raises(ValidationError):
            BracketedPsi(
                K1=1.0, K2=1.0, K3=1.0, delta=1.0, gamma1=-3.0, gamma2=-3.0,
                psi_fn=lambda r: 100.0 + 0.0 * np.asarray(r, dtype=float),
            )

    def test_json_round_trip(self):
        psi = psi_spec_from_json({"kind": "coulomb"})
        assert psi.is_coulomb
        psi = psi_spec_from_json({"kind": "power_law", "gamma": -2.2})
        assert psi.gamma == -2.2
        with pytest.raises(ValidationError):
            psi_spec_from_json({"kind": "bracketed"})
        with pytest.raises(ValidationError):
            psi_spec_from_json({"kind": "nope"})


class TestProjection:
    def test_annihilates_z(self):
        z = np.array([1.0, 2.0, -0.5])
        P = projection(z)
        np.testing.assert_allclose(P @ z, 0.0, atol=1e-15)

    def test_idempotent_and_trace(self):
        z = np.array([0.3, -1.1, 2.0])
        P = projection(z)
        np.testing.assert_allclose(P @ P, P, atol=1e-15)
        assert np.trace(P) == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            projection(np.zeros(3))


class TestCollisionCoefficients:
    # n = 5 and n = 8 pad to exactly 2n - 1 (9, 15), where an off-by-one alias would show
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_fft_matches_direct(self, n):
        rng = np.random.default_rng(11)
        g = build_grid(3, 2.0, n)
        f = DiscreteDistribution(g, rng.random(g.size))
        spec = CoulombPsi()
        cf = collision_coefficients(f, spec, method="fft")
        cd = collision_coefficients(f, spec, method="direct")
        scale = np.max(np.abs(cd))
        assert np.max(np.abs(cf - cd)) / scale < 1e-12
        # the solver's drift sum_j a_ij*(d_j f) against the direct sum
        gradf = _gradient_nd(f.reshaped(), g.h)
        tabs = _a_tables(g, spec)
        drift = a_contract(g, spec, gradf)
        for i in range(3):
            oracle = sum(
                _convolve_direct(tabs[min(i, j), max(i, j)], gradf[j]) for j in range(3)
            ).ravel() * g.cell_volume
            assert np.max(np.abs(drift[:, i] - oracle)) / np.max(np.abs(oracle)) < 1e-12

    def test_table_spectra_cache_one_layout(self, monkeypatch):
        calls = []
        forward = landau.kernels._forward

        def counted(g, shape, out=None):
            calls.append(shape)  # the padded transform shape
            return forward(g, shape, out=out)

        monkeypatch.setattr(landau.kernels, "_forward", counted)
        rng = np.random.default_rng(2)
        # half-widths no other test uses, so the first call is cold
        fa = DiscreteDistribution(build_grid(3, 2.375, 5), rng.random(125))
        fb = DiscreteDistribution(build_grid(3, 2.625, 5), rng.random(125))

        def transforms(f, spec=CoulombPsi()):
            calls.clear()
            collision_coefficients(f, spec)
            return len(calls)

        assert transforms(fa) == 7  # six a_ij tables and the field
        assert set(calls) == {(9, 9, 9)}  # next_fast_len(2n - 1) at n = 5
        assert transforms(fa) == 1  # only the field
        assert transforms(fb) == 7
        assert transforms(fa) == 7  # fb's layout evicted fa's

        class Unhashable(PowerLawPsi):
            __hash__ = None

        spec = Unhashable(-2.5)
        assert transforms(fa, spec) == 7
        assert transforms(fa, spec) == 7  # never cached

    def test_diffusion_matrix_symmetric_psd(self):
        rng = np.random.default_rng(3)
        g = build_grid(3, 2.0, 6)
        f = DiscreteDistribution(g, rng.random(g.size))
        A = collision_coefficients(f, CoulombPsi())
        np.testing.assert_allclose(A, np.swapaxes(A, 1, 2), atol=1e-15)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > -1e-13 * np.max(eigs)

    def test_trace_identity(self):
        # trace a(z) = (N-1) psi(|z|), so trace(a*f) = (N-1) (psi*f)
        rng = np.random.default_rng(5)
        g = build_grid(3, 2.0, 6)
        fv = rng.random(g.size)
        f = DiscreteDistribution(g, fv)
        spec = CoulombPsi()
        A = collision_coefficients(f, spec)
        # direct psi*f at every node, center excluded
        conv = np.zeros(g.size)
        for i in range(g.size):
            z = g.coords[i] - g.coords
            r = np.sqrt(np.sum(z**2, axis=1))
            w = np.where(r > 0, spec.psi(np.maximum(r, 1e-300)), 0.0)
            conv[i] = g.cell_volume * np.sum(w * fv)
        trace = np.trace(A, axis1=1, axis2=2)
        np.testing.assert_allclose(trace, 2.0 * conv, rtol=1e-10)

    def test_gaussian_diffusion_against_quadrature_oracle(self):
        # frozen oracle: A_00(0) for a unit Maxwellian at 8^3, L=4, computed
        # with an independent 3-D midpoint quadrature of psi(|z|) Pi_00(z) M(-z)
        g = build_grid(3, 4.0, 8)
        f = maxwellian(g)
        A = collision_coefficients(f, CoulombPsi())
        center = int(np.argmin(g.sq_norm))
        z = g.coords[center] - g.coords
        r2 = np.sum(z**2, axis=1)
        mask = r2 > 0
        pi00 = 1.0 - np.where(mask, z[:, 0] ** 2 / np.where(mask, r2, 1.0), 0.0)
        psi = np.where(mask, np.where(mask, r2, 1.0) ** -0.5, 0.0)
        oracle = g.cell_volume * np.sum(psi * pi00 * f.values)
        assert A[center, 0, 0] == pytest.approx(oracle, rel=1e-12)
