"""Exact discrete identities of the convolution engine, the flux-form
operator and the log-gradient reconstruction, checked on random positive
states of small grids, and the bit-identity of the NumPy transforms,
interpolation and log gradient against their references."""

import numpy as np
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import map_coordinates

from landau.functionals import _pair_factors, entropy_dissipation
from landau.grid import DiscreteDistribution, _gradient_nd, _multilinear, build_grid, grad_log
from landau.kernels import (
    CoulombPsi,
    PowerLawPsi,
    _a_tables,
    _convolve_direct,
    _difference_fields,
    _fast_len,
    _forward,
    _Layout,
    _padded_shape,
    _quadrature,
    a_contract,
    a_convolve,
    a_pair_sum,
    psi_convolve,
)
from landau.solver import assemble_operator

SPEC = CoulombPsi()
few = settings(derandomize=True, deadline=None, max_examples=6)
states = st.tuples(
    st.integers(4, 8), st.floats(2.0, 5.0), st.integers(0, 2**32 - 1)
)


def positive_state(n, half_width, seed):
    grid = build_grid(3, half_width, n)
    rng = np.random.default_rng(seed)
    gauss = np.exp(-0.5 * grid.sq_norm)
    return DiscreteDistribution(grid, (0.1 + rng.random(grid.size)) * gauss)


def max_rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def wrapped(table, shape):
    """A centered (2n-1)^N difference table zero-padded to `shape` and rolled
    so that z = 0 sits at index 0 and negative z at the end of each axis."""
    n = (table.shape[0] + 1) // 2
    padded = np.pad(table, [(0, m - table.shape[0]) for m in shape])
    return np.roll(padded, -(n - 1), axis=tuple(range(table.ndim)))


@few
@given(states)
def test_engine_matches_direct_sum(state):
    f = positive_state(*state)
    grid = f.grid
    tabs = _a_tables(grid, SPEC)
    direct = {ij: grid.cell_volume * _convolve_direct(tab, f.reshaped()).ravel()
              for ij, tab in tabs.items()}
    tensor = a_convolve(grid, SPEC, f.reshaped())
    # the in-place inverse passes leave the cached table spectra intact
    assert np.array_equal(a_convolve(grid, SPEC, f.reshaped()), tensor)
    for (i, j), ref in direct.items():
        assert max_rel(tensor[:, i, j], ref) < 1e-12
        assert np.array_equal(tensor[:, i, j], tensor[:, j, i])

    rng = np.random.default_rng(state[2])
    g = rng.standard_normal((3,) + grid.shape)
    vector = a_contract(grid, SPEC, g)
    for i in range(3):
        ref = grid.cell_volume * sum(
            _convolve_direct(tabs[min(i, j), max(i, j)], g[j]) for j in range(3)
        ).ravel()
        assert max_rel(vector[:, i], ref) < 1e-12


@few
@given(states)
def test_operator_conserves_mass_momentum_energy(state):
    f = positive_state(*state)
    grid = f.grid
    q = assemble_operator(f, SPEC)
    v = grid.coords
    scale = float(np.sum(np.abs(q) * (1.0 + grid.sq_norm)))
    assert abs(float(np.sum(q))) <= 1e-12 * scale
    for d in range(3):
        assert abs(float(np.sum(q * v[:, d]))) <= 1e-12 * scale
    assert abs(float(np.sum(q * grid.sq_norm))) <= 1e-12 * scale


@few
@given(states)
def test_pair_sum_is_node_sum_of_a_contract(state):
    # the Parseval drift term of D against h^N sum <G, a_contract(G)>, for
    # G = f grad log f and for a random vector field
    f = positive_state(*state)
    grid = f.grid
    xi, _ = grad_log(f)
    G = (f.values[:, None] * xi).T.reshape((3,) + grid.shape)
    noise = np.random.default_rng(state[2]).standard_normal(G.shape)
    for g in (G, noise):
        ref = grid.cell_volume * float(np.sum(g.reshape(3, -1).T * a_contract(grid, SPEC, g)))
        assert abs(grid.cell_volume * a_pair_sum(grid, SPEC, g) - ref) <= 1e-12 * abs(ref)


@few
@given(states)
def test_projected_dissipation_equals_pair_difference(state):
    f = positive_state(*state)
    projected = entropy_dissipation(f, SPEC, form="projected")
    pairdiff = entropy_dissipation(f, SPEC, form="pairdiff")
    assert abs(projected - pairdiff) <= 1e-10 * abs(pairdiff)


@few
@given(states)
def test_grad_log_of_positive_state_is_plain_gradient(state):
    f = positive_state(*state)
    xi, mask = grad_log(f)
    ref = _gradient_nd(np.log(f.reshaped()), f.grid.h).reshape(3, f.grid.size).T
    assert mask.all() and np.array_equal(xi, ref)


@few
@given(st.integers(4, 6), st.floats(2.0, 5.0), st.integers(0, 2**32 - 1),
       st.floats(1e-4, 1.0))
def test_factored_pair_sums_equal_double_sum(n, half_width, seed, lam):
    # sum_w q_ij(v, w) phi_k(w) g(w), phi = (1, w_i, w_j), summed over all
    # node pairs, against the six-term factorization c @ B
    f = positive_state(n, half_width, seed)
    v = f.grid.coords
    xi, _ = grad_log(f)
    g = np.exp(-lam * f.grid.sq_norm) * f.values * f.grid.cell_volume
    dv = v[:, None, :] - v[None, :, :]
    dxi = xi[:, None, :] - xi[None, :, :]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            q = dv[..., i] * dxi[..., j] - dv[..., j] * dxi[..., i]
            ref = q @ (np.stack([np.ones(len(v)), v[:, i], v[:, j]], axis=1) * g[:, None])
            c, B = _pair_factors(v, xi, g, i, j)
            assert max_rel(c @ B, ref) <= 1e-12


# dim, n, seed; n = 5 and n = 8 pad to exactly P = 2n - 1 (9, 15)
layouts = st.tuples(st.integers(2, 3), st.integers(4, 12), st.integers(0, 2**32 - 1))
exact = settings(derandomize=True, deadline=None, max_examples=20)


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 5, 1))
@example((2, 8, 2))
@example((3, 8, 3))
def test_forward_is_rfftn(layout):
    dim, n, seed = layout
    shape = _padded_shape(build_grid(dim, 3.0, n))
    rng = np.random.default_rng(seed)
    for m in (n, 2 * n - 1):  # a field and a difference table
        g = rng.standard_normal((m,) * dim)
        ref = scipy.fft.rfftn(g, shape)
        assert np.array_equal(_forward(g, shape), ref)
        # a reused buffer: whatever it held is overwritten or zeroed
        dirty = np.full(ref.shape, np.nan, dtype=complex)
        assert np.array_equal(_forward(g, shape, out=dirty), ref)


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 5, 1))
@example((2, 8, 2))
@example((3, 8, 3))
def test_quadrature_is_valid_slice_of_irfftn(layout):
    dim, n, seed = layout
    grid = build_grid(dim, 3.0, n)
    shape = _padded_shape(grid)
    rng = np.random.default_rng(seed)
    spectrum = scipy.fft.rfftn(wrapped(rng.standard_normal((2 * n - 1,) * dim), shape))
    full = scipy.fft.irfftn(spectrum, shape)
    ref = grid.cell_volume * full[(slice(n),) * dim].ravel()
    # _quadrature overwrites the spectrum, so the reference comes first
    assert np.array_equal(_quadrature(grid, spectrum, shape), ref)


@exact
@given(layouts, st.sampled_from([CoulombPsi(), PowerLawPsi(-2.5), PowerLawPsi(0.0)]))
@example((2, 5, 0), CoulombPsi())
@example((3, 5, 1), CoulombPsi())
@example((2, 8, 2), PowerLawPsi(-2.5))
@example((3, 8, 3), CoulombPsi())
def test_table_spectra_are_real_parts_of_wrapped_spectra(layout, spec):
    dim, n, _ = layout
    grid = build_grid(dim, 3.0, n)
    shape = _padded_shape(grid)
    lay = _Layout(grid, spec)
    tables = _a_tables(grid, spec)
    psi = _difference_fields((np.arange(2 * n - 1) - (n - 1)) * grid.h, dim, spec)[2]
    spectra = lay.a_spectra()
    assert len(spectra) == dim * dim
    for key, table, spectrum in [(None, psi, lay.psi_spectrum())] + [
            (ij, tables[ij], spectra[ij]) for ij in tables]:
        ref = scipy.fft.rfftn(wrapped(table, shape))
        assert spectrum.dtype == np.float64 and spectrum.shape == ref.shape, key
        assert np.array_equal(spectrum, ref.real), key
        assert np.max(np.abs(ref.imag)) <= 1e-15 * np.max(np.abs(ref.real)), key
        if key is not None:
            assert spectra[key[::-1]] is spectrum


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 5, 1))
@example((2, 8, 2))
@example((3, 8, 3))
def test_engine_results_do_not_depend_on_earlier_calls(layout):
    # the engine reuses its work buffers from call to call
    dim, n, seed = layout
    grid = build_grid(dim, 3.0, n)
    rng = np.random.default_rng(seed)

    def results(field):  # field[0] scalar, field[1:] a vector field
        return (a_convolve(grid, SPEC, field[0]), a_contract(grid, SPEC, field[1:]),
                psi_convolve(grid, SPEC, field[0]), a_pair_sum(grid, SPEC, field[1:]))

    x, y = (rng.standard_normal((dim + 1,) + grid.shape) for _ in range(2))
    first = results(x)
    results(y)
    for again, ref in zip(results(x), first):
        assert np.array_equal(again, ref)


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 8, 1))
def test_multilinear_is_map_coordinates(layout):
    dim, n, seed = layout
    rng = np.random.default_rng(seed)
    values = rng.random((n,) * dim)
    axes = []
    for _ in range(dim):
        x = rng.uniform(-1.5, n + 0.5, 16)
        # integer, edge and outside coordinates, and fractions in [0, 1/3)
        # with bits below 2^-53, where 1 - (1 - t) != t tells the weight
        # forms apart
        pick = rng.integers(0, 6, x.size)
        axes.append(np.select([pick == 0, pick == 1, pick == 2, pick == 3],
                              [np.round(x), 0.0, n - 1.0, rng.random(x.size) / 3],
                              default=x))
    points = np.stack(np.meshgrid(*axes, indexing="ij"))
    ref = map_coordinates(values, points, order=1, mode="constant", cval=0.0)
    assert np.array_equal(_multilinear(values, axes), ref)


def test_fast_len_is_next_fast_len():
    for m in range(1, 4097):
        assert _fast_len(m) == scipy.fft.next_fast_len(m, True), m
