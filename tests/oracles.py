"""Reference computations the tests hold the program against.

The kernel tables here are made one node at a time from the definition
a(z) = psi(|z|) Pi(z), with `projection(z)` and the kernel law, not from the
engine's table formula, so a slip in that formula shows as a mismatch.
They live on the (2n-1)^N grid of node differences: entry d is
z = (d - (n-1)) h componentwise, and both tables are zero at z = 0, which
drops the source cell w = v.  On them sit the O(M^2) direct convolution,
the direct coefficient field A = a*f, and the Coulomb non-parabolic form
of Q.  Beside them sit the per-corner multilinear interpolation and the
moments as `integrate` sums over full-length weights, which the separable
forms in `landau.grid` replace, and the continuum truth of A, D and the
weighted Fisher information for radial states under the 3-D Coulomb
kernel, by 1-D integrals, and the radial trajectories of that equation;
of A also under the power laws psi = r^(gamma+2).
Last, D summed exactly by `math.fsum` from a log-gradient without its
affine part, the reference near equilibrium.
"""

import functools
import itertools
import math

import numpy as np

from landau.errors import ValidationError
from landau.grid import grad_log, gradient, integrate
from landau.kernels import CoulombPsi, collision_coefficients, projection


@functools.lru_cache(maxsize=16)
def _tables(dim, n, h, spec):
    """Read-only (a, psi) difference tables, a of shape (N, N) + (2n-1,)*N."""
    axis = (np.arange(2 * n - 1) - (n - 1)) * h
    z = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    r = np.sqrt(np.sum(z * z, axis=-1))
    psi = np.where(r > 0, spec.psi(r), 0.0)
    a = np.zeros((dim, dim) + psi.shape)
    # flat entry k < M//2 holds z != 0, and entry M-1-k holds -z, where
    # psi(|z|) Pi(z) takes the same value, bit for bit
    flat, zs = a.reshape(dim, dim, -1), z.reshape(-1, dim)
    for k in range(psi.size // 2):
        flat[:, :, k] = flat[:, :, -1 - k] = psi.flat[k] * projection(zs[k])
    a.flags.writeable = psi.flags.writeable = False
    return a, psi


def a_table(grid, spec):
    """The a_ij difference tables, a_ij at [i, j], shape (N, N) + (2n-1,)*N:
    a copy."""
    return _tables(grid.dim, grid.n, grid.h, spec)[0].copy()


def psi_table(grid, spec):
    """The psi difference table, shape (2n-1,)*N: a copy."""
    return _tables(grid.dim, grid.n, grid.h, spec)[1].copy()


def convolve_direct(table, fvals):
    """O(M^2) summation: out[i] = sum_j table[i - j + n - 1] f[j]."""
    n = fvals.shape[0]
    dim = fvals.ndim
    out = np.empty_like(fvals)
    rev = table[(slice(None, None, -1),) * dim]
    for idx in np.ndindex(fvals.shape):
        window = rev[tuple(slice(n - 1 - k, 2 * n - 1 - k) for k in idx)]
        out[idx] = np.sum(window * fvals)
    return out


def coefficients_direct(f, spec):
    """A = a*f at every node by direct summation, shape (size, N, N)."""
    grid, fg = f.grid, f.reshaped()
    a = a_table(grid, spec)
    out = np.empty((grid.size, grid.dim, grid.dim))
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            out[:, i, j] = out[:, j, i] = (
                grid.cell_volume * convolve_direct(a[i, j], fg).ravel())
    return out


def nonparabolic_operator(f, spec):
    """The Coulomb non-conservative form Q(f) = sum_ij A_ij d2_ij f + 8 pi f^2,
    with the engine's A and central differences; c*f = -8 pi f pointwise
    holds for the Coulomb kernel only."""
    if not isinstance(spec, CoulombPsi):
        raise ValidationError("the non-parabolic form needs the Coulomb kernel")
    grid = f.grid
    dim, h = grid.dim, grid.h
    gradf = gradient(f.reshaped(), h)
    Ag = collision_coefficients(f, spec).reshape(grid.shape + (dim, dim))
    out = 8.0 * math.pi * f.values * f.values
    for i in range(dim):
        second = gradient(gradf[i], h)
        for j in range(dim):
            out = out + (Ag[..., i, j] * second[j]).ravel()
    return out


def multilinear_corners(values, axes):
    """`landau.grid._multilinear` as a sum over the 2^N corners: weights
    w0 = 1 - frac and w1 = 1 - w0, each corner formed as
    ((f w_0) w_1) ... w_{N-1} and the corners summed in C order, which
    matches scipy.ndimage.map_coordinates(order=1, mode="constant", cval=0)
    bit for bit."""
    n, dim = values.shape[0], len(axes)
    # the zero layer at index n serves the upper corner of a point at n - 1
    terms = [np.pad(values, (0, 1))]
    inside = []
    for d, x in enumerate(axes):
        ok = (x >= 0) & (x <= n - 1)
        x = np.where(ok, x, 0.0)
        lo = np.floor(x)
        w0 = (1.0 - (x - lo)).reshape((-1,) + (1,) * (dim - 1 - d))
        lo = lo.astype(np.intp)
        corners = []
        for t in terms:
            for c, w in ((0, w0), (1, 1.0 - w0)):
                corners.append(t.take(lo + c, axis=d))
                corners[-1] *= w
        terms = corners
        inside.append(ok)
    out = np.zeros(terms[0].shape)
    for t in terms:
        out += t
    for d, ok in enumerate(inside):
        out[(slice(None),) * d + (~ok,)] = 0.0
    return out


def moments_by_integrate(f):
    """`landau.grid.raw_moments` from `integrate` over full-length weights:
    mass, mean and temperature from |v|^2 - 2 v.u + |u|^2."""
    grid = f.grid
    rho = integrate(f)
    if rho <= 0:
        raise ValidationError("distribution has zero mass")
    u = np.array([integrate(f, grid.coords[:, d]) for d in range(grid.dim)]) / rho
    centered = grid.sq_norm - 2 * (grid.coords @ u) + u @ u
    return rho, u, integrate(f, centered) / (grid.dim * rho)


def _cumulative(y, s):
    """The cumulative trapezoid of y over the points s, 0 at s[0]."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(s))])


def radial_coulomb(f, df, radii, R=12.0, points=200_001):
    """The 3-D Coulomb truth for a radial density f(r) with derivative
    df(r), both vectorized, by cumulative trapezoids on `points` radii in
    [0, R], f taken as 0 beyond R.

    a(z) = Hess |z|, so A = a*f = Hess g with g = |.|*f; a*grad f =
    grad(2/|.|) * f, and Delta(1/|z|) = -4 pi delta.  For radial f,

        g'(r)  = 4 pi [ int_0^r s^2 f (1 - s^2/(3r^2)) ds + (2r/3) int_r^R s f ds ]
        g''(r) = 4 pi [ (2/(3r^3)) int_0^r s^4 f ds + (2/3) int_r^R s f ds ]
        A(v)   = g''(r) vv^T/r^2 + (g'(r)/r) (I - vv^T/r^2)
        D      = 4 pi int r^2 f'^2 g''/f dr - 32 pi^2 int r^2 f^2 dr
        Fisher_w (gamma = -3) = pi int r^2 (f'^2/f) (1 + r^2)^(-3/2) dr
        Hbar   = 4 pi int r^2 f |log f| dr   (0 where f = 0)

    Returns {"A": (g'', g'/r) at `radii`, "D", "D_first": D's first term,
    "fisher_w", "hbar"}; at r = 0 both eigenvalues of A are their limit
    (8 pi/3) int_0^R s f ds.
    """
    s = np.linspace(0.0, R, points)
    fs, dfs = f(s), df(s)
    tail = _cumulative(s * fs, s)
    tail = tail[-1] - tail  # int_s^R
    m2, m4 = _cumulative(s**2 * fs, s), _cumulative(s**4 * fs, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = 4 * math.pi * (2 * m4 / (3 * s**3) + 2 * tail / 3)
        g1_r = 4 * math.pi * (m2 / s - m4 / (3 * s**3) + 2 * tail / 3)
    g2[0] = g1_r[0] = 8 * math.pi / 3 * tail[0]
    score = dfs**2 / fs
    abs_log = np.abs(np.log(np.where(fs > 0, fs, 1.0)))
    first = 4 * math.pi * float(_cumulative(s**2 * score * g2, s)[-1])
    return {
        "A": (np.interp(radii, s, g2), np.interp(radii, s, g1_r)),
        "D": first - 32 * math.pi**2 * float(_cumulative(s**2 * fs**2, s)[-1]),
        "D_first": first,
        "fisher_w": math.pi * float(_cumulative(s**2 * score * (1 + s**2) ** -1.5, s)[-1]),
        "hbar": 4 * math.pi * float(_cumulative(s**2 * fs * abs_log, s)[-1]),
    }


def _power_integral(k, lo, hi):
    """P_k = int_lo^hi rho^k d rho in closed form, the log at k = -1."""
    if k == -1:
        return np.log(hi / lo)
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


def radial_power(f, gamma, radii, R=12.0, points=200):
    """The 3-D truth of A = a*f under psi = r^(gamma+2) for a radial density
    f(r), vectorized, taken as 0 beyond R: (A_rr, A_tt), the eigenvalues of
    A along v and across it, at `radii` in (0, R).

    On the sphere |w| = s the angular integral of a(v - w) is one over
    rho = |v - w| in [|r - s|, r + s].  With c = r^2 + s^2 and the closed
    forms P_k = int_{|r-s|}^{r+s} rho^k d rho (a log at k = -1),

        core = (4 r^2 s^2 - c^2) P_{gamma+1} + 2 c P_{gamma+3} - P_{gamma+5}
        A_rr = 2 pi int s f(s) core / (4 r^3) ds
        A_tt = 2 pi int s f(s) [P_{gamma+3} / r - core / (8 r^3)] ds

    A_rr is the v-hat v-hat component, 2 pi int s^2 f int (rho^(gamma+2) -
    rho^gamma (v-hat . z)^2) rho / (r s) d rho ds with v-hat . z =
    (r^2 - s^2 + rho^2) / (2r), and A_tt = (tr A - A_rr) / 2 with
    tr A = 2 int f psi.  The integrands have a |r - s|^(gamma+4) kink at
    s = r, so each s integral is split there and taken by Gauss-Legendre
    with `points` nodes on [0, r] and on [r, R].
    """
    x, wx = np.polynomial.legendre.leggauss(points)
    x, wx = 0.5 * (x + 1), 0.5 * wx  # on [0, 1]
    uniq, inverse = np.unique(np.asarray(radii, dtype=float), return_inverse=True)
    rr, tt = np.empty(uniq.size), np.empty(uniq.size)
    for start in range(0, uniq.size, 256):
        part = slice(start, start + 256)
        r = uniq[part, None]
        s = np.concatenate([r * x, r + (R - r) * x], axis=1)
        w = np.concatenate([r * wx, (R - r) * wx], axis=1)
        lo, hi, c = np.abs(r - s), r + s, r * r + s * s
        p1, p3, p5 = (_power_integral(gamma + k, lo, hi) for k in (1, 3, 5))
        core = (4 * r * r * s * s - c * c) * p1 + 2 * c * p3 - p5
        sf = 2 * math.pi * w * s * f(s)
        rr[part] = np.sum(sf * core, axis=1) / (4 * r[:, 0] ** 3)
        tt[part] = np.sum(sf * (p3 / r - core / (8 * r**3)), axis=1)
    return rr[inverse], tt[inverse]


def _shifted_log_gradient(f):
    """(eta, mask): xi = `grad_log(f)` less its f-weighted least-squares
    affine part c + lam v over the mask, fitted by `np.linalg.lstsq` on the
    sqrt(f)-scaled design [I, v] and subtracted in extended precision:
    eta on the mask, as np.longdouble."""
    xi, mask = grad_log(f)
    v, sw = f.grid.coords[mask], np.sqrt(f.values[mask])
    m, dim = v.shape
    design = np.zeros((m, dim, dim + 1))
    design[:, range(dim), range(dim)] = 1.0
    design[:, :, dim] = v
    fit = np.linalg.lstsq((design * sw[:, None, None]).reshape(m * dim, dim + 1),
                          (xi[mask] * sw[:, None]).ravel(), rcond=None)[0]
    return xi[mask] - np.longdouble(fit[dim]) * v - fit[:dim], mask


def dissipation_fsum(f, spec):
    """The pair-difference D = h^2N sum_{v < w} f(v) f(w) psi/|z|^2
    sum_{i < j} q_ij^2 of `_shifted_log_gradient`'s eta.  D does not change
    when c + lam v is added to xi (a(z) z = 0), and eta is small near
    equilibrium, so the terms, all >= 0 and each made in extended
    precision, carry D to about 1e-16 relative; `math.fsum` adds them."""
    eta, mask = _shifted_log_gradient(f)
    coords, fv = f.grid.coords[mask], f.values[mask]
    dim = coords.shape[1]

    def rows():
        for v in range(len(fv) - 1):
            z = coords[v] - coords[v + 1:]
            d = eta[v] - eta[v + 1:]
            rsq = np.sum(z * z, axis=1)
            qsq = sum((z[:, i] * d[:, j] - z[:, j] * d[:, i]) ** 2
                      for i in range(dim) for j in range(i + 1, dim))
            yield (fv[v] * fv[v + 1:] * spec.psi(np.sqrt(rsq)) / rsq * qsq).astype(float).tolist()

    return f.grid.cell_volume**2 * math.fsum(itertools.chain.from_iterable(rows()))


def radial_landau(profile, R, m, times, points=20_001):
    """The isotropic 3-D Coulomb Landau equation for a radial density,

        d_t f = r^-2 d_r (r^2 J),   J = g''(r) f' + 8 pi M(r) f / r^2,
        M(r) = int_0^r s^2 f ds,

    with g'' of `radial_coulomb` (A = Hess g, g = |.|*f) and the drift
    a*grad f = 2 grad phi, phi = |.|^-1 * f, phi' = -4 pi M / r^2.

    A finite volume on m cells of [0, R], zero flux at both ends: face
    fluxes take the compact difference of f and the mean of f at the face,
    and M, int s^4 f and int s f by exact per-cell weights, so the mass
    4 pi sum f_k int_cell s^2 telescopes.  `profile(r)` is sampled at the
    cell centres and scaled to mass 1.  Time is `solve_ivp`'s BDF with a
    tridiagonal Jacobian pattern and dense output.

    Returns a dict of arrays over `times`: "H" and "abs_entropy" (int f ln f,
    int f |ln f|), "dH_dt" and "residual" = max |d_t f| / max f of the
    semi-discrete system, "D" and "fisher_w" (gamma = -3) by
    `radial_coulomb` on a cubic spline of ln f, "fisher" = int |grad f|^2 / f
    = 4 pi int_0^R r^2 f (ln f)'^2 dr by the trapezoid rule on `points`
    nodes of the same spline, "l3w" = ||<v>^-3 f||_3,
    "mass", "energy" (int f |v|^2), "moments" {l: int f (1 + |v|^2)^l} for
    l = 2, 3, 4, and "f": per time the density as a vectorized function of
    r, 0 beyond R.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline
    from scipy.sparse import diags

    edges = np.linspace(0.0, R, m + 1)
    lo, hi, faces = edges[:-1], edges[1:], edges[1:-1]
    centres, dr = 0.5 * (lo + hi), R / m
    w1, w2, w4 = (hi**2 - lo**2) / 2, (hi**3 - lo**3) / 3, (hi**5 - lo**5) / 5

    def rate(t, f):
        inner = np.cumsum(f * w2)[:-1]  # M at the interior faces
        g2 = 4 * math.pi * (2 * np.cumsum(f * w4)[:-1] / (3 * faces**3)
                            + 2 * np.cumsum((f * w1)[::-1])[::-1][1:] / 3)
        J = g2 * np.diff(f) / dr + 8 * math.pi * inner * 0.5 * (f[:-1] + f[1:]) / faces**2
        return np.diff(np.concatenate([[0.0], faces**2 * J, [0.0]])) / w2

    f0 = profile(centres)
    f0 = f0 / (4 * math.pi * np.sum(f0 * w2))
    sol = solve_ivp(rate, (0.0, max(times)), f0, method="BDF", rtol=1e-10, atol=1e-14,
                    jac_sparsity=diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(m, m)),
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(sol.message)
    out = {key: [] for key in ("H", "abs_entropy", "dH_dt", "residual", "D", "fisher_w",
                               "fisher", "l3w", "mass", "energy", "f")}
    nodes = np.linspace(0.0, R, points)
    out["moments"] = {l: [] for l in (2, 3, 4)}
    for t in times:
        f = sol.sol(t) if t > 0 else f0
        if np.min(f) <= 0:
            raise RuntimeError(f"the 1-D density reaches {np.min(f)} at t = {t}")
        logf = np.log(f)
        spline = CubicSpline(centres, logf)

        def density(r, spline=spline):
            r = np.asarray(r, dtype=float)
            return np.where(r <= R, np.exp(spline(np.minimum(r, R))), 0.0)

        def derivative(r, spline=spline):
            return spline(r, 1) * np.exp(spline(r))

        truth = radial_coulomb(density, derivative, np.zeros(1), R=R, points=points)
        cell = 4 * math.pi * w2 * f
        out["H"].append(float(np.sum(cell * logf)))
        out["abs_entropy"].append(float(np.sum(cell * np.abs(logf))))
        dfdt = rate(t, f)
        out["dH_dt"].append(4 * math.pi * float(np.sum(w2 * logf * dfdt)))
        out["residual"].append(float(np.max(np.abs(dfdt)) / np.max(f)))
        out["D"].append(truth["D"])
        out["fisher_w"].append(truth["fisher_w"])
        out["fisher"].append(4 * math.pi * float(np.trapezoid(
            nodes**2 * density(nodes) * spline(nodes, 1) ** 2, nodes)))
        weight = (1 + centres**2) ** -1.5
        out["l3w"].append(float(4 * math.pi * np.sum(w2 * (weight * f) ** 3)) ** (1 / 3))
        out["mass"].append(float(np.sum(cell)))
        out["energy"].append(4 * math.pi * float(np.sum(w4 * f)))
        for l, vals in out["moments"].items():
            vals.append(float(np.sum(cell * (1 + centres**2) ** l)))
        out["f"].append(density)
    return {key: val if key in ("f", "moments") else np.array(val) for key, val in out.items()}
