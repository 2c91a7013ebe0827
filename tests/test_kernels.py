"""Kernel laws, the projection matrix, and the convolution coefficients."""

import math

import numpy as np
import pytest

import landau.kernels

from landau.errors import ValidationError
from landau.functionals import entropy_dissipation
from landau.grid import DiscreteDistribution, _gradient_nd, build_grid
from landau.inequalities import check_young
from landau.kernels import (
    CoulombPsi,
    PowerLawPsi,
    a_contract,
    a_convolve,
    a_pair_sum,
    collision_coefficients,
    projection,
    psi_convolve,
    psi_spec_from_json,
)
from oracles import a_table, coefficients_direct, convolve_direct, psi_table


def maxwellian(grid, temperature=1.0):
    norm = (2.0 * math.pi * temperature) ** (grid.dim / 2.0)
    return DiscreteDistribution(
        grid, np.exp(-0.5 * grid.sq_norm / temperature) / norm
    )


class TestPsiLaws:
    def test_coulomb_values(self):
        psi = CoulombPsi()
        assert psi.gamma == -3.0
        assert psi.psi(2.0) == pytest.approx(0.5)
        assert psi.psi(0.0) == math.inf

    def test_power_law_values(self):
        psi = PowerLawPsi(-2.5)
        r = 1.7
        assert psi.psi(r) == pytest.approx(r ** (-0.5))

    @pytest.mark.parametrize("psi, envelope", [
        (PowerLawPsi(-2.5), (-2.5, -2.5, 1.0, 1.0)),
        (CoulombPsi(), (-3.0, -3.0, 1.0, 1.0)),
    ])
    def test_envelope_exponents(self, psi, envelope):
        # a pure power law is its own envelope (gamma1, gamma2, K1, K2): the
        # Young check reads gamma2 = gamma and C = max(5 K1 + K2, K2 c_psi)
        gamma1, gamma2, k1, k2 = envelope
        assert psi.gamma == gamma1 == gamma2
        grid = build_grid(3, 2.0, 5)
        rep = check_young(maxwellian(grid), psi, R=1.0, r=1.2)
        assert rep.inputs["gamma2"] == gamma2
        assert rep.constant_used == max(5.0 * k1 + k2, k2 * rep.inputs["kernel_tail_norm"])

    @pytest.mark.parametrize("gamma, at_zero", [
        (-3.0, math.inf), (-2.5, math.inf), (-2.0, 1.0), (0.0, 0.0)])
    def test_value_at_zero_radius(self, gamma, at_zero):
        # psi(0) is the IEEE power 0^(gamma+2), at a radius of -0.0 too
        spec = CoulombPsi() if gamma == -3.0 else PowerLawPsi(gamma)
        assert spec.psi(0.0) == spec.psi(-0.0) == at_zero
        assert np.array_equal(spec.psi(np.array([0.0, -0.0])), [at_zero] * 2)

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


def direct_reference(name, grid, spec, g):
    """What the entry point `name` returns for the fields g, shape
    (N,) + grid.shape, from `convolve_direct` sums (scalar entry points
    take g[0])."""
    N, cv = grid.dim, grid.cell_volume
    if name == "psi_convolve":
        return cv * convolve_direct(psi_table(grid, spec), g[0]).ravel()
    a = a_table(grid, spec)

    def conv(i, j, field):
        return cv * convolve_direct(a[i, j], field).ravel()

    if name == "a_convolve":
        out = np.empty((grid.size, N, N))
        for i in range(N):
            for j in range(N):
                out[:, i, j] = conv(i, j, g[0])
        return out
    contract = np.stack([sum(conv(i, j, g[j]) for j in range(N)) for i in range(N)], axis=-1)
    if name == "a_contract":
        return contract
    return float(np.sum(g.reshape(N, -1).T * contract))  # a_pair_sum


def assert_matches_direct(name, grid, spec, g, got):
    """The result `got` of the entry point `name` is its direct sum to 1e-12
    of the largest entry, or for a_pair_sum of the sum of |terms|."""
    ref = direct_reference(name, grid, spec, g)
    if name == "a_pair_sum":
        contract = direct_reference("a_contract", grid, spec, g)
        scale = float(np.sum(np.abs(g.reshape(grid.dim, -1).T * contract)))
    else:
        scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


ENTRY_POINTS = {"a_convolve": (a_convolve, True), "a_contract": (a_contract, False),
                "a_pair_sum": (a_pair_sum, False), "psi_convolve": (psi_convolve, True)}


class TestEngine:
    """The engine's half spectra and its work buffers, made on demand:
    products take the rows k >= H of the leading axis from the mirrored
    rows, with the sign of the odd a_0j, the contraction runs slab by slab
    in place, the drift's Parseval sum folds its first spectra into one
    accumulator in two slab passes, and a cold build runs in neither buffer
    nor transform."""

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [5, 6])  # odd P = 9 and even P = 12
    def test_first_call_on_fresh_layout(self, monkeypatch, name, dim, n):
        monkeypatch.setattr(landau.kernels, "_LAYOUT", {})
        grid = build_grid(dim, 1.75, n)  # a half-width no other test uses
        spec = CoulombPsi()
        g = np.random.default_rng(dim * n).standard_normal((dim,) + grid.shape)
        fn, scalar = ENTRY_POINTS[name]
        assert_matches_direct(name, grid, spec, g, fn(grid, spec, g[0] if scalar else g))

    @pytest.mark.parametrize("name", ["a_contract", "a_pair_sum"])
    @pytest.mark.parametrize("n", [13, 16])
    def test_slabs_across_mirrored_rows(self, name, n):
        # a slab that holds rows on both sides of H: at n = 13, P = 25 and
        # H = 13 in the slab [0, 18); at n = 16, P = 32 and H = 17 in [11, 22)
        grid = build_grid(3, 4.0, n)
        spec = CoulombPsi()
        g = np.random.default_rng(n + 1).standard_normal((3,) + grid.shape)
        assert_matches_direct(name, grid, spec, g, ENTRY_POINTS[name][0](grid, spec, g))

    @pytest.mark.parametrize("name", ["a_contract", "a_convolve", "psi_convolve"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [13, 16])  # odd P = 25 and even P = 32
    def test_products_keep_summation_order(self, n, dim, name):
        # each product of a stored half spectrum with a field spectrum is bit
        # for bit the product with the whole expanded spectrum, whose rows
        # k >= H are the rows P - k, negated for the a_0j; slab by slab
        # (in 3-D, slabs of 18 + 7 and 11 + 11 + 10 rows), a_contract is the
        # inverse of the sum over j started from zeros
        K = landau.kernels
        grid = build_grid(dim, 4.0, n)
        spec = CoulombPsi()
        g = np.random.default_rng(n).standard_normal((dim,) + grid.shape)
        lay = K._layout(grid, spec)
        P = lay.shape[0]
        spectra = lay.a_spectra()

        def full(s, sign=1.0):  # the stored rows [0, H), then rows P - k for k >= H
            return np.concatenate([s, sign * s[P - len(s):0:-1]])

        def a_full(i, j):
            return full(spectra[(i, j)], -1.0 if (i == 0) != (j == 0) else 1.0)

        def inverse(spectrum):
            return K._quadrature(grid, spectrum, lay.shape)

        g_hat = [K._forward(comp, lay.shape) for comp in g]
        if name == "psi_convolve":
            ref = inverse(full(lay.psi_spectrum()) * g_hat[0])
            assert np.array_equal(psi_convolve(grid, spec, g[0]), ref)
        elif name == "a_convolve":
            A = a_convolve(grid, spec, g[0])
            for i in range(dim):
                for j in range(i, dim):
                    assert np.array_equal(A[:, i, j], inverse(a_full(i, j) * g_hat[0]))
        else:
            if dim == 3:
                slab_rows = max(1, K._SLAB_BYTES // lay.field_hat[0][0].nbytes)
                assert len(lay.field_hat[0]) > slab_rows
            ref = np.empty((grid.size, dim))
            for i in range(dim):
                acc = np.zeros_like(g_hat[0])
                for j in range(dim):
                    acc += a_full(i, j) * g_hat[j]
                K._quadrature(grid, acc, lay.shape, out=ref[:, i])
            assert np.array_equal(a_contract(grid, spec, g), ref)

    def test_layout_makes_work_buffers_on_demand(self, monkeypatch, traced_peak):
        # a new layout holds no buffer; D takes two, and only a_contract N
        K = landau.kernels
        monkeypatch.setattr(K, "_LAYOUT", {})
        grid = build_grid(3, 2.0, 16)
        spec = CoulombPsi()
        assert traced_peak(lambda: K._Layout(grid, spec)) < 4096
        entropy_dissipation(maxwellian(grid), spec)
        lay = K._layout(grid, spec)
        assert len(lay.field_hat) == 2
        # the drift term: one forward transform per component, no inverse
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(K, "_forward", counted(K._forward))
        monkeypatch.setattr(K, "_quadrature", counted(K._quadrature))
        g = np.random.default_rng(0).standard_normal((3,) + grid.shape)
        a_pair_sum(grid, spec, g)
        assert calls == ["_forward"] * 3 and len(lay.field_hat) == 2
        a_contract(grid, spec, g)
        assert len(lay.field_hat) == 3

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_cold_entry_point_peak_memory(self, monkeypatch, traced_peak, engine_bytes, name):
        # the half spectra it builds, the work buffers it makes (N for
        # a_contract, two otherwise), its result and NumPy's 128 KiB cast
        # buffer of a real-complex product, plus the slab temporaries of a
        # contraction (N + 1 for a_contract, two for a_pair_sum) or eight
        # n^N octant arrays, whichever is larger: the octants are gone
        # before the slabs are made.  A further work buffer
        # (P^(N-1)(P/2+1) complex, 272 KiB here) fits only beside
        # psi_convolve's one spectrum
        monkeypatch.setattr(landau.kernels, "_LAYOUT", {})
        grid = build_grid(3, 2.0, 16)
        g = np.random.default_rng(4).standard_normal((3,) + grid.shape)
        fn, scalar = ENTRY_POINTS[name]
        tables = 1 if name == "psi_convolve" else 6
        buffers = 3 if name == "a_contract" else 2
        result = {"a_convolve": 9, "a_contract": 3, "a_pair_sum": 0, "psi_convolve": 1}[name]
        slabs = {"a_contract": 4, "a_pair_sum": 2}.get(name, 0) * landau.kernels._SLAB_BYTES
        budget = (engine_bytes(grid, tables, buffers) + result * grid.size * 8 + 128 * 1024
                  + max(slabs, 8 * grid.size * 8))
        assert traced_peak(lambda: fn(grid, CoulombPsi(), g[0] if scalar else g)) < budget


    def test_inverse_runs_in_slabs(self, traced_peak):
        # the last-axis real pass runs slab by slab, six rows of 32 at 32^3:
        # bit for bit the valid slice of the n-D inverse, at a peak of the
        # result, two slabs of irfft output and 8 KiB; the whole
        # n^(N-1) P output of one pass (512 KiB here) does not fit
        K = landau.kernels
        grid = build_grid(3, 2.0, 32)
        shape = K._padded_shape(grid)
        spectrum = K._forward(np.random.default_rng(2).standard_normal(grid.shape), shape)
        whole = np.fft.irfftn(spectrum, shape, axes=(0, 1, 2), norm="forward")[:32, :32, :32]
        ref = whole * (1.0 / math.prod(shape)) * grid.cell_volume
        budget = grid.size * 8 + 2 * K._SLAB_BYTES + 8 * 1024
        out = []
        assert traced_peak(lambda: out.append(K._quadrature(grid, spectrum, shape))) <= budget
        assert np.array_equal(out[0], ref.ravel())


class TestCollisionCoefficients:
    # n = 5 and n = 8 pad to exactly 2n - 1 (9, 15), where an off-by-one alias would show
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_fft_matches_direct(self, n):
        rng = np.random.default_rng(11)
        g = build_grid(3, 2.0, n)
        f = DiscreteDistribution(g, rng.random(g.size))
        spec = CoulombPsi()
        cf = collision_coefficients(f, spec)
        cd = coefficients_direct(f, spec)
        scale = np.max(np.abs(cd))
        assert np.max(np.abs(cf - cd)) / scale < 1e-12
        # the solver's drift sum_j a_ij*(d_j f) against the direct sum
        gradf = _gradient_nd(f.reshaped(), g.h)
        a = a_table(g, spec)
        drift = a_contract(g, spec, gradf)
        for i in range(3):
            oracle = sum(
                convolve_direct(a[i, j], gradf[j]) for j in range(3)
            ).ravel() * g.cell_volume
            assert np.max(np.abs(drift[:, i] - oracle)) / np.max(np.abs(oracle)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_component_major_layout(self, dim):
        # A and the drift keep their node-major shapes and indexing, and
        # each component is a contiguous row; the mirror A_ji is A_ij bit
        # for bit
        g = build_grid(dim, 2.0, 6)
        rng = np.random.default_rng(dim)
        spec = CoulombPsi()
        A = collision_coefficients(DiscreteDistribution(g, rng.random(g.size)), spec)
        drift = a_contract(g, spec, rng.standard_normal((dim,) + g.shape))
        assert A.shape == (g.size, dim, dim) and drift.shape == (g.size, dim)
        for i in range(dim):
            assert drift[:, i].flags.c_contiguous
            for j in range(dim):
                assert A[:, i, j].flags.c_contiguous
                assert A[:, i, j].tobytes() == A[:, j, i].tobytes()

    def test_table_spectra_cache_one_layout(self, monkeypatch):
        calls = []
        build = landau.kernels._Layout._build

        def counted(self, octants):
            calls.append(self.shape)  # the padded transform shape
            return build(self, octants)

        monkeypatch.setattr(landau.kernels._Layout, "_build", counted)
        rng = np.random.default_rng(2)
        # half-widths no other test uses, so the first call is cold
        fa = DiscreteDistribution(build_grid(3, 2.375, 5), rng.random(125))
        fb = DiscreteDistribution(build_grid(3, 2.625, 5), rng.random(125))

        def builds(f):
            calls.clear()
            collision_coefficients(f, CoulombPsi())
            return len(calls)

        assert builds(fa) == 1  # the six a_ij tables
        assert set(calls) == {(9, 9, 9)}  # next_fast_len(2n - 1) at n = 5
        assert builds(fa) == 0
        assert builds(fb) == 1
        assert builds(fa) == 1  # fb's layout evicted fa's

    def test_cold_table_spectra_peak_memory(self, traced_peak, engine_bytes):
        # the six half spectra, built by matrix products, with a margin of
        # one more half spectrum and eight n^N octant arrays: full-axis
        # spectra, a P^N scratch buffer, or tables and meshes on the
        # (2n-1)^N difference grid, do not fit
        grid = build_grid(3, 2.0, 16)
        lay = landau.kernels._Layout(grid, CoulombPsi())
        assert traced_peak(lay.a_spectra) < engine_bytes(grid, 7) + 8 * grid.size * 8

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
