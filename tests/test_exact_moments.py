"""The coefficient field A = a*f against a closed form.

For psi(r) = r^2 (`PowerLawPsi(0.0)`) the kernel is a(z) = |z|^2 I - z z^T,
a quadratic in z, so the node sums A(v) = h^N sum_w a(v - w) f(w) depend on
f only through its discrete moments: with rho_h = h^N sum f, mean u and
covariance Sigma_h = h^N sum f (w - u)(w - u)^T / rho_h,

    A(v) = rho_h [(|v - u|^2 + tr Sigma_h) I - (v - u)(v - u)^T - Sigma_h],

exactly.  The engine's spectral convolution must reproduce it to round-off.
"""

import numpy as np
import pytest

from landau.grid import DiscreteDistribution, build_grid
from landau.kernels import PowerLawPsi, collision_coefficients

SPEC = PowerLawPsi(0.0)


def shifted_anisotropic_state(grid, seed):
    """A perturbed Gaussian with a random mean and covariance."""
    rng = np.random.default_rng(seed)
    dim = grid.dim
    mean = rng.uniform(-0.5, 0.5, dim)
    m = rng.standard_normal((dim, dim))
    cov = 0.3 * m @ m.T + 0.5 * np.eye(dim)
    d = grid.coords - mean
    quad = np.einsum("ki,ij,kj->k", d, np.linalg.inv(cov), d)
    return DiscreteDistribution(grid, np.exp(-0.5 * quad) * (0.7 + 0.6 * rng.random(grid.size)))


def closed_form(f):
    grid = f.grid
    w = grid.cell_volume * f.values
    rho = float(np.sum(w))
    u = w @ grid.coords / rho
    c = grid.coords - u
    sigma = (c * w[:, None]).T @ c / rho
    eye = np.eye(grid.dim)
    isotropic = (np.sum(c * c, axis=1) + np.trace(sigma))[:, None, None] * eye
    return rho * (isotropic - c[:, :, None] * c[:, None, :] - sigma)


@pytest.mark.parametrize("dim, n", [(2, 10), (3, 12), (3, 16)])
@pytest.mark.parametrize("seed", [0, 1])
def test_coefficients_are_moment_formula(dim, n, seed):
    f = shifted_anisotropic_state(build_grid(dim, 4.0, n), seed)
    A = collision_coefficients(f, SPEC)
    ref = closed_form(f)
    assert A.shape == ref.shape
    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))
