"""Exact discrete identities of the convolution engine, the flux-form
operator and the log-gradient reconstruction, checked on random positive
states of small grids, and the bit-identity of the NumPy transforms and log
gradient against their references.  The separable multilinear
interpolation sums in another order than SciPy and the corner form, so it
matches them to a few ulp, and bit for bit at nodes and outside the box."""

from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import map_coordinates

from landau import functionals
from landau.functionals import _pair_factors, entropy_dissipation
from landau.grid import DiscreteDistribution, _multilinear, build_grid, grad_log, gradient
from landau.kernels import (
    CoulombPsi,
    PowerLawPsi,
    _a_table_items,
    _fast_len,
    _forward,
    _LAYOUT,
    _Layout,
    _octant_fields,
    _padded_shape,
    _quadrature,
    a_columns,
    a_contract,
    a_convolve,
    a_pair_sum,
    psi_convolve,
)
from landau.solver import assemble_operator
from oracles import a_table, convolve_direct, multilinear_corners, psi_table

SPEC = CoulombPsi()
few = settings(derandomize=True, deadline=None, max_examples=6)
states = st.tuples(
    st.integers(4, 8), st.floats(2.0, 5.0), st.integers(0, 2**32 - 1)
)


def positive_state(n, half_width, seed, dim=3):
    grid = build_grid(dim, half_width, n)
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
    a = a_table(grid, SPEC)
    direct = {(i, j): grid.cell_volume * convolve_direct(a[i, j], f.reshaped()).ravel()
              for i in range(3) for j in range(i, 3)}
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
            convolve_direct(a[i, j], g[j]) for j in range(3)
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
    # G = f grad log f and for a random vector field, in N = 2, 3 and 4:
    # the fold holds one spectrum beside the last at N = 2 and 3, three at 4
    for dim in (2, 3, 4):
        f = positive_state(*state, dim=dim)
        grid = f.grid
        xi, _ = grad_log(f)
        G = (f.values[:, None] * xi).T.reshape((dim,) + grid.shape)
        noise = np.random.default_rng(state[2]).standard_normal(G.shape)
        for g in (G, noise):
            contract = a_contract(grid, SPEC, g)
            ref = grid.cell_volume * float(np.sum(g.reshape(dim, -1).T * contract))
            got = grid.cell_volume * a_pair_sum(grid, SPEC, g)
            assert abs(got - ref) <= 1e-12 * abs(ref), dim


@few
@given(states)
def test_projected_dissipation_equals_pair_difference(state):
    f = positive_state(*state)
    projected = entropy_dissipation(f, SPEC, form="projected")
    pairdiff = entropy_dissipation(f, SPEC, form="pairdiff")
    assert abs(projected - pairdiff) <= 1e-10 * abs(pairdiff)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(5, 8), st.integers(0, 2**32 - 1),
       st.sampled_from([CoulombPsi(), PowerLawPsi(-2.5)]),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.booleans())
def test_dissipation_ignores_an_affine_log_gradient(n, seed, spec, log_c, log_lam, negative):
    # a(z) z = 0, so adding c + lam v to xi = grad log f on the mask leaves
    # each pair's term, and D in both forms, unchanged; |c| and |lam| run
    # from 1e-2 to 1e2, on states with about a fifth of the nodes zeroed
    rng = np.random.default_rng([seed, 1])
    f = positive_state(n, 4.0, seed)
    f = f.with_values(np.where(rng.random(f.grid.size) < 0.2, 0.0, f.values))
    direction = rng.standard_normal(3)
    c = 10.0**log_c * direction / np.linalg.norm(direction)
    lam = (-1.0 if negative else 1.0) * 10.0**log_lam
    forms = ("projected", "pairdiff")
    plain = [entropy_dissipation(f, spec, form=form) for form in forms]

    def shifted(g):
        xi, mask = grad_log(g)
        return np.where(mask[:, None], xi + c + lam * g.grid.coords, 0.0), mask

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(functionals, "grad_log", shifted)
        moved = [entropy_dissipation(f, spec, form=form) for form in forms]
    for form, d, d_shifted in zip(forms, plain, moved):
        assert abs(d_shifted - d) <= 1e-12 * d, form


@few
@given(states)
def test_grad_log_of_positive_state_is_plain_gradient(state):
    f = positive_state(*state)
    xi, mask = grad_log(f)
    ref = gradient(np.log(f.reshaped()), f.grid.h).reshape(3, f.grid.size).T
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
        assert np.array_equal(_forward(g, shape, np.zeros_like(ref)), ref)
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
    # the separable cosine/sine sums keep rows [0, H) of the leading axis of
    # the wrapped table's rfftn; the bound sits about 5x above the largest
    # error seen over n = 4..12, N = 2 and 3, and these kernels
    dim, n, _ = layout
    grid = build_grid(dim, 3.0, n)
    shape = _padded_shape(grid)
    H = shape[0] // 2 + 1
    lay = _Layout(grid, spec)
    a = a_table(grid, spec)
    spectra = lay.a_spectra()
    assert len(spectra) == dim * dim
    for key, table, spectrum in [(None, psi_table(grid, spec), lay.psi_spectrum())] + [
            ((i, j), a[i, j], spectra[(i, j)]) for i in range(dim) for j in range(i, dim)]:
        ref = scipy.fft.rfftn(wrapped(table, shape))
        assert spectrum.dtype == np.float64 and spectrum.shape == ref[:H].shape, key
        assert np.max(np.abs(spectrum - ref.real[:H])) <= 4e-15 * np.max(np.abs(ref.real)), key
        assert np.max(np.abs(ref.imag)) <= 1e-15 * np.max(np.abs(ref.real)), key
        if key is not None:
            assert spectra[key[::-1]] is spectrum


@exact
@given(layouts, st.sampled_from([CoulombPsi(), PowerLawPsi(-2.5), PowerLawPsi(0.0)]))
@example((2, 5, 0), CoulombPsi())
@example((3, 8, 1), PowerLawPsi(-2.5))
def test_octant_tables_are_psi_times_projection(layout, spec):
    # a(z) = psi(|z|) Pi(z) on the engine's own tables, at every octant
    # node: sum_j a_ij(z) z_j = 0 and tr a(z) = (N-1) psi(|z|), both sides
    # held at 0 at z = 0, where the tables and psi are zero
    dim, n, _ = layout
    z, rsq, psi = _octant_fields(build_grid(dim, 3.0, n), spec)
    a = dict(_a_table_items(z, rsq, psi))
    for i in range(dim):
        row = sum(a[min(i, j), max(i, j)] * z[j] for j in range(dim))
        assert np.all(np.abs(row) <= 1e-13 * psi * np.sqrt(rsq)), i
    trace = sum(a[i, i] for i in range(dim))
    assert np.all(np.abs(trace - (dim - 1) * psi) <= 1e-13 * psi)


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 5, 1))
@example((2, 6, 2))
@example((3, 6, 3))
def test_columns_are_a_convolve_entries(layout):
    # the dissipation sums either the generator's columns or those of a
    # given A = a*f, in one order; both must be the same numbers
    dim, n, seed = layout
    grid = build_grid(dim, 3.0, n)
    g = np.random.default_rng(seed).standard_normal(grid.shape)
    A = a_convolve(grid, SPEC, g)
    keys = []
    for i, j, column in a_columns(grid, SPEC, g):
        keys.append((i, j))
        assert np.array_equal(column, A[:, i, j]) and np.array_equal(column, A[:, j, i])
    assert keys == list(combinations_with_replacement(range(dim), 2))


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 5, 1))
@example((2, 8, 2))
@example((3, 8, 3))
def test_engine_results_do_not_depend_on_earlier_calls(layout):
    # the engine reuses its work buffers from call to call, and makes them
    # the first time a call needs them
    dim, n, seed = layout
    grid = build_grid(dim, 3.0, n)
    rng = np.random.default_rng(seed)
    calls = {  # field[0] scalar, field[1:] a vector field
        "a_convolve": lambda field: a_convolve(grid, SPEC, field[0]),
        "a_contract": lambda field: a_contract(grid, SPEC, field[1:]),
        "psi_convolve": lambda field: psi_convolve(grid, SPEC, field[0]),
        "a_pair_sum": lambda field: a_pair_sum(grid, SPEC, field[1:]),
    }

    def results(field, order):
        return {name: calls[name](field) for name in order}

    x, y = (rng.standard_normal((dim + 1,) + grid.shape) for _ in range(2))
    first = results(x, calls)
    results(y, calls)
    again = results(x, calls)
    # a_pair_sum first on a fresh layout, and a_contract adding the last
    # buffer after it
    _LAYOUT.clear()
    fresh = results(x, ["a_pair_sum", "psi_convolve", "a_contract", "a_convolve"])
    for name, ref in first.items():
        assert np.array_equal(again[name], ref) and np.array_equal(fresh[name], ref), name


def interpolation_points(dim, n, seed):
    """Random values on (n,)*dim nodes and 16 coordinates per axis."""
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
    return values, axes


def assert_round_off(got, ref, values):
    # one two-point pass per axis sums in another order than the 2^N
    # corners: at most 4 N eps max|values| apart
    bound = 4 * values.ndim * np.finfo(float).eps * np.max(np.abs(values))
    assert np.max(np.abs(got - ref)) <= bound


@exact
@given(layouts)
@example((2, 5, 0))
@example((3, 8, 1))
def test_multilinear_is_map_coordinates(layout):
    values, axes = interpolation_points(*layout)
    points = np.stack(np.meshgrid(*axes, indexing="ij"))
    ref = map_coordinates(values, points, order=1, mode="constant", cval=0.0)
    assert_round_off(_multilinear(values, axes), ref, values)


@exact
@given(st.tuples(st.integers(2, 4), st.integers(4, 8), st.integers(0, 2**32 - 1)))
@example((4, 4, 0))
def test_multilinear_is_corner_sum(layout):
    values, axes = interpolation_points(*layout)
    assert_round_off(_multilinear(values, axes), multilinear_corners(values, axes), values)


@exact
@given(st.tuples(st.integers(2, 4), st.integers(4, 8), st.integers(0, 2**32 - 1)))
def test_multilinear_is_exact_at_nodes_and_zero_outside(layout):
    dim, n, seed = layout
    rng = np.random.default_rng(seed)
    values = rng.random((n,) * dim)
    nodes = [np.r_[0, n - 1, rng.integers(0, n, 4)] for _ in range(dim)]
    got = _multilinear(values, [k.astype(float) for k in nodes])
    assert np.array_equal(got, values[np.ix_(*nodes)])
    # one coordinate just outside [0, n-1], or far out, zeroes its point
    outside = np.array([-1e-12, -0.5, -1.5, n - 1 + 1e-9, n - 0.5, n + 0.5])
    for d in range(dim):
        axes = [rng.uniform(0, n - 1, 3) for _ in range(dim)]
        axes[d] = np.r_[axes[d], outside]
        got = _multilinear(values, axes)
        assert np.all(np.moveaxis(got, d, 0)[3:] == 0.0)


def test_fast_len_is_next_fast_len():
    for m in range(1, 4097):
        assert _fast_len(m) == scipy.fft.next_fast_len(m, True), m
