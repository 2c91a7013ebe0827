"""Exact discrete identities of the convolution engine and the flux-form
operator, checked on random positive states of small grids."""

import numpy as np
from hypothesis import given, settings, strategies as st

from landau.functionals import entropy_dissipation
from landau.grid import DiscreteDistribution, build_grid
from landau.kernels import (
    CoulombPsi,
    _a_tables,
    _convolve_direct,
    a_contract,
    a_convolve,
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


@few
@given(states)
def test_engine_matches_direct_sum(state):
    f = positive_state(*state)
    grid = f.grid
    tabs = _a_tables(grid, SPEC)
    direct = {ij: grid.cell_volume * _convolve_direct(tab, f.reshaped()).ravel()
              for ij, tab in tabs.items()}
    tensor = a_convolve(grid, SPEC, f.reshaped())
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
def test_projected_dissipation_equals_pair_difference(state):
    f = positive_state(*state)
    projected = entropy_dissipation(f, SPEC, form="projected")
    pairdiff = entropy_dissipation(f, SPEC, form="pairdiff")
    assert abs(projected - pairdiff) <= 1e-10 * abs(pairdiff)
