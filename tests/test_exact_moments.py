"""The coefficient field A = a*f against a closed form.

For psi(r) = r^2 (`PowerLawPsi(0.0)`) the kernel is a(z) = |z|^2 I - z z^T,
a quadratic in z, so the node sums A(v) = h^N sum_w a(v - w) f(w) depend on
f only through its discrete moments: with rho_h = h^N sum f, mean u and
covariance Sigma_h = h^N sum f (w - u)(w - u)^T / rho_h,

    A(v) = rho_h [(|v - u|^2 + tr Sigma_h) I - (v - u)(v - u)^T - Sigma_h],

exactly.  The engine's spectral convolution must reproduce it to round-off.

The moment hierarchy closes too.  With B = div a * f = -(N - 1) rho v at
zero mean and <Q, phi> = int f (A : grad^2 phi + 2 B . grad phi),

    d(rho Sigma)/dt = 4 rho^2 (tr Sigma I - N Sigma),
    dM_4/dt = rho [-4 (N - 1) M_4 + 4 (N + 1) rho (tr Sigma)^2 - 8 rho tr Sigma^2],

with M_4 = int f |v|^4.  The solver's operator Q_h meets these rates at
second order in h.

At zero mean, rho is constant and so is tr Sigma: the first rate has
trace 4 rho^2 (N tr Sigma - N tr Sigma) = 0.  The traceless part
S = Sigma - T I, T = tr Sigma / N, then obeys dS/dt = -4 N rho S, so

    Sigma(t) = T I + (Sigma_0 - T I) exp(-4 N rho t),

which a short run of the scheme follows at second order in h.

The first rate also holds for the weak form at any mean.  Against
phi = v_a v_b the pair integrand of `weak_form_rhs` is a polynomial in
z = v - w: the a-term gives 2 a_ab(z) and the b-term, b(z) = -(N - 1) z,
gives -2 (N - 1) z_a z_b.  The pair sums of |z|^2 and z z^T over the
discrete measure are 2 rho^2 tr Sigma and 2 rho^2 Sigma about its own mean,
so `weak_form_rhs` equals 4 rho^2 (tr Sigma I - N Sigma)_ab to round-off.

So does the fourth central moment.  Against phi = |x|^4, x = v - u with u
the discrete mean, grad phi = 4 |x|^2 x and hess phi = 4 |x|^2 I + 8 x x^T.
By the (v, w) symmetry the a-term integrates a(z) : hess phi(x) =
4 (N + 1) |x|^2 |z|^2 - 8 (z . x)^2 and the b-term -8 (N - 1) |x|^2 (z . x),
z = x - y.  Over the discrete measure, with K_4 = <|x|^4>, the pair sums of
|x|^2 |z|^2, (z . x)^2 and |x|^2 (z . x) are rho^2 (K_4 + (tr Sigma)^2),
rho^2 (K_4 + Sigma : Sigma) and rho^2 K_4, since odd central moments
against a constant vanish.  So `weak_form_rhs` equals

    4 rho^2 [(N + 1) (tr Sigma)^2 - 2 Sigma : Sigma - (N - 1) K_4],

which at zero mean is the dM_4/dt above, and is 0 for a Maxwellian, whose
K_4 = (tr Sigma)^2 + 2 Sigma : Sigma with Sigma = T I.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau.families import DistributionSpec, generate_distribution
from landau.grid import DiscreteDistribution, build_grid
from landau.kernels import PowerLawPsi, collision_coefficients
from landau.solver import (SolverConfig, TestFunction, assemble_operator, run, stability_dt,
                           weak_form_rhs)

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


def two_bump_state(grid):
    """Two anisotropic Gaussians at +-c: non-Gaussian, mean zero on the grid."""
    c = np.array([1.5, 0.3, 0.0])
    precision = np.linalg.inv([[0.4, 0.1, 0.0], [0.1, 1.0, -0.1], [0.0, -0.1, 1.6]])

    def bump(d):
        return np.exp(-0.5 * np.einsum("ki,ij,kj->k", d, precision, d))

    return DiscreteDistribution(grid, bump(grid.coords - c) + bump(grid.coords + c))


class Product(TestFunction):
    """phi = v_a v_b: grad phi = v_b e_a + v_a e_b, hess phi = e_a e_b^T + e_b e_a^T."""

    def __init__(self, a, b):
        self.kind, self.a, self.b = "product", a, b

    def _derivatives(self, coords):
        n, dim = coords.shape
        e = np.eye(dim)
        grad = coords[:, self.b, None] * e[self.a] + coords[:, self.a, None] * e[self.b]
        hess = np.outer(e[self.a], e[self.b]) + np.outer(e[self.b], e[self.a])
        return coords[:, self.a] * coords[:, self.b], grad, np.broadcast_to(hess, (n, dim, dim))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from([5, 6, 7]), st.integers(0, 2**32 - 1))
def test_weak_form_meets_the_covariance_rate(n, seed):
    # both the a-term and the b-term are nonzero here, unlike for the
    # conserved phi, whose pair terms cancel pair by pair
    f = shifted_anisotropic_state(build_grid(3, 3.0, n), seed)
    w = f.grid.cell_volume * f.values
    rho = float(np.sum(w))
    c = f.grid.coords - w @ f.grid.coords / rho
    sigma = (c * w[:, None]).T @ c / rho
    ref = 4.0 * rho**2 * (np.trace(sigma) * np.eye(3) - 3 * sigma)
    rate = np.array([[weak_form_rhs(f, SPEC, Product(a, b)) for b in range(3)]
                     for a in range(3)])
    assert np.max(np.abs(rate - ref)) <= 1e-12 * np.max(np.abs(ref))


class CentralQuartic(TestFunction):
    """phi = |v - u|^4 about a fixed point u."""

    def __init__(self, u):
        self.kind, self.u = "central_quartic", u

    def _derivatives(self, coords):
        x = coords - self.u
        sq = np.sum(x * x, axis=1)
        hess = 4.0 * sq[:, None, None] * np.eye(x.shape[1]) + 8.0 * x[:, :, None] * x[:, None, :]
        return sq**2, 4.0 * sq[:, None] * x, hess


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from([5, 6, 7]), st.integers(0, 2**32 - 1))
def test_weak_form_meets_the_fourth_moment_rate(n, seed):
    f = shifted_anisotropic_state(build_grid(3, 3.0, n), seed)
    w = f.grid.cell_volume * f.values
    rho = float(np.sum(w))
    u = w @ f.grid.coords / rho
    c = f.grid.coords - u
    sigma = (c * w[:, None]).T @ c / rho
    k4 = float(w @ np.sum(c * c, axis=1) ** 2) / rho
    ref = 4.0 * rho**2 * (4 * np.trace(sigma) ** 2 - 2 * np.sum(sigma * sigma) - 2 * k4)
    rate = weak_form_rhs(f, SPEC, CentralQuartic(u))
    assert abs(rate - ref) <= 1e-12 * abs(ref)


def rate_errors(n):
    """Relative errors of <v v^T, Q_h> h^3 (largest entry) and of
    <|v|^4, Q_h> h^3 against the closed forms at the discrete moments."""
    grid = build_grid(3, 6.0, n)
    f = two_bump_state(grid)
    v, dim = grid.coords, grid.dim
    w = grid.cell_volume * f.values
    q = grid.cell_volume * assemble_operator(f, SPEC)
    rho = float(np.sum(w))
    sigma = (v * w[:, None]).T @ v / rho
    v4 = np.sum(v * v, axis=1) ** 2
    tr = np.trace(sigma)
    d_sigma = 4.0 * rho**2 * (tr * np.eye(dim) - dim * sigma)
    d_m4 = rho * (-4.0 * (dim - 1) * (w @ v4) + 4.0 * (dim + 1) * rho * tr**2
                  - 8.0 * rho * np.trace(sigma @ sigma))
    return (np.max(np.abs((v * q[:, None]).T @ v - d_sigma)) / np.max(np.abs(d_sigma)),
            abs(q @ v4 - d_m4) / abs(d_m4))


def test_moment_rates_converge_at_second_order():
    errors = {n: rate_errors(n) for n in (12, 16, 24)}
    for k, rate in enumerate(("d(rho Sigma)/dt", "dM_4/dt")):
        order = math.log(errors[16][k] / errors[24][k]) / math.log(24 / 16)
        assert order >= 1.7, (rate, {n: e[k] for n, e in errors.items()})


def covariance(f):
    """(rho_h, Sigma_h) of f about the origin."""
    w = f.grid.cell_volume * f.values
    rho = float(np.sum(w))
    return rho, (f.grid.coords * w[:, None]).T @ f.grid.coords / rho


def traceless(m):
    return m - np.trace(m) / len(m) * np.eye(len(m))


def covariance_run(n, t_end=0.06):
    """Heun from the anisotropic Gaussian of variances (0.6, 1.0, 1.4) to
    t_end, at the "auto" step cut to the time left; returns the error of
    Sigma_h(t_end) (largest traceless entry of Sigma_h - Sigma, relative to
    that of Sigma), the relative move of tr Sigma_h and the step count."""
    grid = build_grid(3, 6.0, n)
    spec = DistributionSpec("anisotropic_gaussian", {"variances": [0.6, 1.0, 1.4]})
    f = generate_distribution(spec, grid)
    f = f.with_values(f.values / (np.sum(f.values) * grid.cell_volume))
    rho, sigma0 = covariance(f)
    t, steps = 0.0, 0
    while t < t_end:
        dt = min(stability_dt(collision_coefficients(f, SPEC), grid.h), t_end - t)
        f = run(f, SolverConfig(spec=SPEC, dt=dt, steps=1, scheme="heun")).final_state
        t += dt
        steps += 1
    temp = np.trace(sigma0) / 3
    exact = temp * np.eye(3) + traceless(sigma0) * math.exp(-4 * 3 * rho * t_end)
    _, sigma = covariance(f)
    error = np.max(np.abs(traceless(sigma - exact))) / np.max(np.abs(traceless(exact)))
    return error, abs(np.trace(sigma) / np.trace(sigma0) - 1), steps


def test_covariance_follows_its_closed_form():
    # margins fixed before the first run: the error falls from n = 12 to
    # 16 at an observed order >= 1.7, and tr Sigma holds to 1e-12 (it
    # reads 20.4% and 10.4%, order 2.35, in 29 and 53 steps)
    (e12, tr12, _), (e16, tr16, _) = covariance_run(12), covariance_run(16)
    assert e16 < e12
    assert math.log(e12 / e16) / math.log(16 / 12) >= 1.7
    assert max(tr12, tr16) <= 1e-12
