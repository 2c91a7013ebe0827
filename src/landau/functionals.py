"""Scalar functionals of a discrete distribution: moments, entropy, weighted
norms, entropy dissipation, weighted Fisher information, Gaussian-weighted
moment determinants, and the moment-based log-gradient reconstruction.

The entropy dissipation is the pair integral

    D_psi(f) = 1/2 iint f(v) f(w) psi(|v-w|)
               (xi(v)-xi(w))^T Pi(v-w) (xi(v)-xi(w)) dv dw,

with xi = grad(log f), and equivalently

    D_psi(f) = 1/4 sum_{i,j} iint f f psi/|v-w|^2 |q_ij(v,w)|^2 dv dw,
    q_ij(v,w) = (v_i-w_i)(xi_j(v)-xi_j(w)) - (v_j-w_j)(xi_i(v)-xi_i(w)).

The projected form expands into a_ij-kernel convolutions (the engine the
collision coefficients use), which evaluates the identical pair quadrature
in O(M log M); the cross-product form is a direct double sum. In both, the
source cell w = v is skipped and nodes below the positivity floor
contribute nothing.

The reconstruction recovers xi from moments of g(w) = exp(-lam|w|^2) f(w) h^N
over the support, with phi = (1, w_i, w_j): at each node v it solves

    M x = z(v),   M_k = sum_w phi_k(w) (1, w_j, w_i) g(w),   det M = -Gamma,

for x = (v_i xi_j - v_j xi_i, xi_i, -xi_j)(v) and keeps x_1 = xi_i(v).  Here
z_k(v) = sum_w q_ij(v,w) phi_k(w) g(w) plus the Gaussian-weight terms that
integration by parts gives for the sums of xi(w).  The pair sum costs O(m),
not O(m^2), because q_ij is bilinear in six terms,

    q_ij(v,w) = sum_r c_r(v) b_r(w),
    b = (1, w_i, w_j, xi_i, xi_j, w_i xi_j - w_j xi_i),
    c = (v_i xi_j - v_j xi_i, -xi_j, xi_i, v_j, -v_i, 1),

so the pair sums are c @ (b @ (phi g)^T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegeneracyError, NumericError, ValidationError, fits
from .grid import EPS_FLOOR, NORMALIZE_TOL, grad_log, gradient_sqrt, integrate
from .kernels import a_columns, a_pair_sum

# Fixed chunk row-count: reductions are per-chunk np.sum in a fixed order,
# so repeated runs are bit-identical.
_PAIR_CHUNK = 128


# Explicit three-dimensional constants of the Gaussian-moment determinant
# floor: for lam <= lambda0(Hbar), Gamma >= gamma_floor(Hbar) whenever
# the absolute entropy of the (normalized) input is at most Hbar.
LAMBDA0_COEFF = 2.0**-82 * 3.0**-13
GAMMA_FLOOR_COEFF = 2.0**-38 * 3.0**-4


def lambda0(hbar):
    """Largest Gaussian-weight rate for which the determinant floor is proven."""
    return LAMBDA0_COEFF * math.exp(-24.0 * hbar)


def gamma_floor(hbar):
    """Determinant lower bound for normalized inputs with abs-entropy <= hbar."""
    return GAMMA_FLOOR_COEFF * math.exp(-16.0 * hbar)


@dataclass
class MomentSummary:
    """Mass, momentum, energy, entropy, and polynomial-weight moments."""

    mass: float
    momentum: np.ndarray
    energy: float
    entropy: float
    abs_entropy: float
    moments: dict


def moments(f, l_list=()):
    """Midpoint-quadrature moments; f ln f is taken as 0 below the floor."""
    grid = f.grid
    mass = integrate(f)
    momentum = np.array(
        [integrate(f, grid.coords[:, d]) for d in range(grid.dim)]
    )
    energy = 0.5 * integrate(f, grid.sq_norm)
    vals = f.values
    logs = np.where(vals > EPS_FLOOR, np.log(np.where(vals > EPS_FLOOR, vals, 1.0)), 0.0)
    entropy = grid.cell_volume * float(np.sum(vals * logs))
    abs_entropy = grid.cell_volume * float(np.sum(vals * np.abs(logs)))
    mom = {l: integrate(f, polynomial_weight(grid, l, vals > 0)) for l in l_list}
    return MomentSummary(mass, momentum, energy, entropy, abs_entropy, mom)


def polynomial_weight(grid, s, support):
    """(1+|v|^2)^s at the nodes of the mask `support` (True: every node) and
    0 off it, with no overflow warning; NumericError where it is not finite
    on the support."""
    with np.errstate(over="ignore"):
        w = np.where(support, (1.0 + grid.sq_norm) ** s, 0.0)
    if not np.all(np.isfinite(w)):
        raise NumericError(f"the weight (1+|v|^2)^{s:g} is not finite on the nodes it weighs")
    return w


def weighted_lp(f, p, l):
    """Weighted Lebesgue norm ( int ((1+|v|^2)^{l/2} f)^p dv )^{1/p}, taken as
    s (int (g/s)^p dv)^{1/p} with g = (1+|v|^2)^{l/2} f and s its sup over
    the nodes, so no power under- or overflows; p = inf gives s.
    """
    if not p >= 1:  # NaN fails too
        raise ValidationError(f"p must be >= 1 or inf, got {p}")
    if not math.isfinite(l):
        raise ValidationError(f"l must be finite, got {l}")
    g = polynomial_weight(f.grid, l / 2.0, f.values > 0) * f.values
    s = float(np.max(g))
    if s == 0:
        return 0.0
    return s * float(f.grid.cell_volume * np.sum((g / s) ** p)) ** (1.0 / p)


def fisher_sum(f, m):
    """int |grad sqrt(f)|^2 (1+|v|^2)^m dv."""
    grad2 = np.sum(gradient_sqrt(f) ** 2, axis=1)
    w = polynomial_weight(f.grid, m, grad2 > 0)
    return float(f.grid.cell_volume * np.sum(grad2 * w))


def weight_exponent(gamma1):
    """m = min(gamma1/2, -1): the weight (1+|v|^2)^m of the weighted Fisher
    information and of the L^3 norm (`weighted_lp`'s l = 2m)."""
    return min(gamma1 / 2.0, -1.0)


def weighted_fisher(f, gamma1):
    """int |grad sqrt(f)|^2 (1+|v|^2)^{weight_exponent(gamma1)} dv."""
    if not math.isfinite(gamma1):
        raise ValidationError(f"gamma1 must be finite, got {gamma1}")
    return fisher_sum(f, weight_exponent(gamma1))


def _shifted_log_gradient(f):
    """(eta, mask): eta = xi - c - lam v on the mask of `grad_log`, 0 off it,
    with (c, lam) the f-weighted least-squares fit of xi = grad(log f).

    The shift changes each pair's xi(v) - xi(w) by lam (v - w), which
    a(v - w) annihilates, so both forms of D are unchanged in exact
    arithmetic.  Near equilibrium xi is nearly affine (-v/T for a
    Maxwellian), and D of eta does not take a small difference of two large
    sums.
    """
    grid = f.grid
    xi, mask = grad_log(f)
    # weighted by f on every node: off the mask f <= EPS_FLOOR and xi = 0;
    # einsum, not BLAS, for the same bytes at every BLAS thread count
    fv, v, dim = f.values, grid.coords, grid.dim
    mat = np.zeros((dim + 1, dim + 1))
    mat[:dim, :dim] = np.sum(fv) * np.eye(dim)
    mat[:dim, dim] = mat[dim, :dim] = np.einsum("k,kd->d", fv, v)
    mat[dim, dim] = np.einsum("k,k->", fv, grid.sq_norm)
    rhs = np.append(np.einsum("k,kd->d", fv, xi), np.einsum("k,kd,kd->", fv, v, xi))
    try:
        c, lam = np.split(np.linalg.solve(mat, rhs), [dim])
    except np.linalg.LinAlgError:  # no mass, or all of it on one node: no pairs
        return xi, mask
    # c_d + lam v_d depends on v_d alone, which runs over grid.axis: made
    # there in extended precision and split as hi + lo in float64, it is
    # taken off xi in two steps, each rounded relative to its result, so eta,
    # small where xi is nearly affine, keeps its own relative accuracy
    for d in range(dim):
        t = (c[d] + np.longdouble(lam[0]) * grid.axis).reshape((-1,) + (1,) * (dim - 1 - d))
        hi = t.astype(float)
        col = xi[:, d].reshape(grid.shape)  # a view: xi's column d
        col -= hi
        col -= (t - hi).astype(float)
    xi[~mask] = 0.0
    return xi, mask


def _dissipation_projected_conv(f, spec, coeffs=None):
    """Projected-form pair quadrature via kernel convolutions.

    Expanding the projected quadratic in the log-gradient differences turns
    the double sum into a_ij-kernel convolutions against the masked fields
    F = f, G_i = f xi_i, H_ij = f xi_i xi_j, with xi the log-gradient less
    its affine part (`_shifted_log_gradient`; the w = v cell is excluded):

        D = h^N [ sum_ij <H_ij, a_ij*F> - sum_i <G_i, (sum_j a_ij*G_j)_i> ],

    matching the direct pair sum to roundoff.  The second sum is a Parseval
    sum over the spectra of G (`a_pair_sum`).  The first is taken one
    component a_ij*F, i <= j, at a time, in the order of `a_columns`, with
    H_ij = G_i xi_j and the i != j terms counted twice, so no (size, N, N)
    array is made.  When the mask covers every node, F is f bit for bit, so
    the coefficient field A = a*f of f, when given as `coeffs`, holds the
    same components.
    """
    grid = f.grid
    xi, mask = _shifted_log_gradient(f)
    G = np.where(mask, f.values * xi.T, 0.0)  # (N, size)
    if coeffs is not None and mask.all():
        pairs = combinations_with_replacement(range(grid.dim), 2)
        columns = ((i, j, coeffs[:, i, j]) for i, j in pairs)
    else:
        columns = a_columns(grid, spec, np.where(mask, f.values, 0.0).reshape(grid.shape))
    diffusion = 0.0
    H_ij = np.empty(grid.size)
    for i, j, column in columns:
        np.multiply(G[i], xi[:, j], out=H_ij)
        H_ij *= column
        diffusion += (1.0 if i == j else 2.0) * float(np.sum(H_ij))
    del H_ij
    drift = a_pair_sum(grid, spec, G.reshape((grid.dim,) + grid.shape))
    return grid.cell_volume * (diffusion - drift)


def pair_chunks(f, spec, mask):
    """(rows, cols, z, rsq, ff, psi) per chunk of `_PAIR_CHUNK` rows of the
    masked nodes: z = v - w, rsq = |z|^2, ff = f(v) f(w), psi(|z|) on the
    (rows, cols) slices, which cover the strictly upper triangle, each
    unordered pair once; below it, rsq is 1 and ff is 0."""
    coords, fv = f.grid.coords[mask], f.values[mask]
    m = coords.shape[0]
    for start in range(0, m, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, m)
        rows, cols = slice(start, stop), slice(start + 1, m)
        z = coords[rows, None, :] - coords[None, cols, :]
        rsq = np.einsum("pqi,pqi->pq", z, z)
        tri = np.arange(start, stop)[:, None] >= np.arange(start + 1, m)[None, :]
        rsq[tri] = 1.0
        ff = fv[rows, None] * fv[None, cols]
        ff[tri] = 0.0
        yield rows, cols, z, rsq, ff, spec.psi(np.sqrt(rsq))


def entropy_dissipation(f, spec, form="projected", coeffs=None):
    """Entropy-dissipation pair quadrature in either equivalent form, both
    of the log-gradient less its affine part (`_shifted_log_gradient`).

    `coeffs`, the (size, N, N) coefficient field A = a*f of f when already
    made, can spare the projected form one convolution.
    """
    if form not in ("projected", "pairdiff"):
        raise ValidationError(f"unknown form {form!r}")
    if form == "projected":
        return _dissipation_projected_conv(f, spec, coeffs)
    xi, mask = _shifted_log_gradient(f)
    xi = xi[mask]
    dim = f.grid.dim
    h2n = f.grid.cell_volume**2
    total = 0.0
    # The integrand is symmetric under (v, w) exchange: sum strictly-upper
    # pairs once and double.
    for rows, cols, z, rsq, ff, psi in pair_chunks(f, spec, mask):
        dxi = xi[rows, None, :] - xi[None, cols, :]
        qsum = np.zeros_like(rsq)
        for i in range(dim):
            for j in range(i + 1, dim):
                q = z[..., i] * dxi[..., j] - z[..., j] * dxi[..., i]
                qsum += 2.0 * q**2
        total += 0.5 * h2n * float(np.sum(ff * psi / rsq * qsum))
    return total


@dataclass
class GammaDeterminant:
    lam: float
    i: int
    j: int
    gamma_value: float


def check_normalized(f):
    """Validate mass 1, zero momentum, energy-moment N within
    `NORMALIZE_TOL`."""
    ms = moments(f)
    dim = f.grid.dim
    e2 = 2.0 * ms.energy  # int f |v|^2
    if (
        abs(ms.mass - 1.0) > NORMALIZE_TOL
        or float(np.max(np.abs(ms.momentum))) > NORMALIZE_TOL
        or abs(e2 - dim) > NORMALIZE_TOL * dim
    ):
        raise ValidationError(
            "distribution is not normalized: "
            f"mass={ms.mass}, momentum={ms.momentum.tolist()}, int f|v|^2={e2}"
        )
    return ms


def _gamma_matrix(m0, m1, m2, i, j):
    """M[k] = sum_w phi_k(w) (1, w_j, w_i) g(w), phi = (1, w_i, w_j); det M = -Gamma."""
    return np.array(
        [
            [m0, m1[j], m1[i]],
            [m1[i], m2[i, j], m2[i, i]],
            [m1[j], m2[j, j], m2[i, j]],
        ]
    )


def gamma_values(f, lam):
    """((m0, m1, m2), gammas): the zeroth/first/second moments of
    g(w) = exp(-lam |w|^2) f(w) h^N, and Gamma_{lam,i,j} = -det M of
    `_gamma_matrix` keyed (i, j) for every ordered pair of distinct axes."""
    if not lam > 0:  # NaN fails too
        raise ValidationError(f"lam must be > 0, got {lam}")
    grid = f.grid
    g = np.exp(-lam * grid.sq_norm) * f.values * grid.cell_volume
    m = float(np.sum(g)), grid.coords.T @ g, (grid.coords.T * g) @ grid.coords
    axes = range(grid.dim)
    return m, {(i, j): -float(np.linalg.det(_gamma_matrix(*m, i, j)))
               for i in axes for j in axes if i != j}


def gamma_determinant(f, lam, i, j):
    """Negative determinant of the Gaussian-weighted 3x3 moment matrix.

    Quantifies non-concentration of f near the hyperplane structure spanned
    by axes i, j, two distinct integers in [0, N); requires a normalized
    input.
    """
    dim = f.grid.dim
    if not all(fits(k, 0) and 0 <= k < dim for k in (i, j)) or i == j:
        raise ValidationError(f"axes must be distinct integers in [0, {dim}), got {i!r}, {j!r}")
    check_normalized(f)
    return GammaDeterminant(lam=lam, i=i, j=j, gamma_value=gamma_values(f, lam)[1][i, j])


def _pair_factors(v, xi, g, i, j):
    """Factors (c, B) of the pair sums sum_w q_ij(v, w) phi_k(w) g(w) = (c @ B)[v, k]
    over support nodes v, w: c is (m, 6), B = b @ (phi g)^T is (6, 3)."""
    vi, vj, xii, xij = v[:, i], v[:, j], xi[:, i], xi[:, j]
    one = np.ones_like(vi)
    rot = vi * xij - vj * xii
    c = np.stack([rot, -xij, xii, vj, -vi, one], axis=1)
    b = np.stack([one, vi, vj, xii, xij, rot])
    return c, b @ (b[:3] * g).T


def reconstruct_log_gradient_field(f, lam=None):
    """Reconstruct grad(log f) at every support node from weighted moments.

    For each component i the companion axis j is the one maximizing the
    determinant Gamma_{lam,i,j}; a determinant below the entropy-explicit
    floor raises a degeneracy error.  Returns (field, mask) with the field
    of shape (size, dim), zero off-support.
    """
    ms = check_normalized(f)
    if lam is None:
        lam = min(lambda0(ms.abs_entropy), 1e-3)
    (m0, m1, m2), gammas = gamma_values(f, lam)
    floor = gamma_floor(ms.abs_entropy)
    xi, mask = grad_log(f)
    g = np.exp(-lam * f.grid.sq_norm[mask]) * f.values[mask] * f.grid.cell_volume
    dim = f.grid.dim
    out = np.zeros((f.grid.size, dim))
    for i in range(dim):
        j = max((k for k in range(dim) if k != i), key=lambda k: gammas[i, k])
        if gammas[i, j] < floor:
            raise DegeneracyError(
                f"Gamma_(lam,{i},{j}) = {gammas[i, j]} is below the "
                f"floor {floor}: near-concentration on a hyperplane"
            )
        c, B = _pair_factors(f.grid.coords[mask], xi[mask], g, i, j)
        # the Gaussian-weight terms, on the rows of c_3..c_5 = (v_j, -v_i, 1)
        B[3:] += [[-2 * lam * m1[i], m0 - 2 * lam * m2[i, i], -2 * lam * m2[i, j]],
                  [-2 * lam * m1[j], -2 * lam * m2[i, j], m0 - 2 * lam * m2[j, j]],
                  [0.0, -m1[j], m1[i]]]
        out[mask, i] = np.linalg.solve(_gamma_matrix(m0, m1, m2, i, j), (c @ B).T)[1]
    return out, mask

