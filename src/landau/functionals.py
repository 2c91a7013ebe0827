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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError
from .grid import EPS_FLOOR, grad_log, gradient_sqrt, integrate
from .kernels import a_contract, a_convolve

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
    mom = {}
    for l in l_list:
        mom[l] = integrate(f, (1.0 + grid.sq_norm) ** l)
    return MomentSummary(mass, momentum, energy, entropy, abs_entropy, mom)


def weighted_lp(f, p, l):
    """Weighted Lebesgue norm ( int ((1+|v|^2)^{l/2} f)^p dv )^{1/p}.

    p = inf returns the weighted sup over nodes.
    """
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    w = (1.0 + f.grid.sq_norm) ** (l / 2.0)
    g = w * f.values
    if math.isinf(p):
        return float(np.max(g))
    return float(f.grid.cell_volume * np.sum(g**p)) ** (1.0 / p)


def weighted_fisher(f, gamma1):
    """int |grad sqrt(f)|^2 (1+|v|^2)^{min(gamma1/2, -1)} dv."""
    gs = gradient_sqrt(f)
    w = (1.0 + f.grid.sq_norm) ** min(gamma1 / 2.0, -1.0)
    return float(f.grid.cell_volume * np.sum(np.sum(gs**2, axis=1) * w))


def _support_arrays(f):
    """Coordinates, values, and log-gradients restricted to f > floor."""
    xi, mask = grad_log(f)
    idx = np.flatnonzero(mask)
    return f.grid.coords[idx], f.values[idx], xi[idx], idx


def _dissipation_projected_conv(f, spec, coeffs=None):
    """Projected-form pair quadrature via kernel convolutions.

    Expanding the projected quadratic in the log-gradient differences turns
    the double sum into a_ij-kernel convolutions against the masked fields
    F = f, G_i = f xi_i, H_ij = f xi_i xi_j (the w = v cell is excluded):

        D = h^N [ sum_ij <H_ij, a_ij*F> - sum_i <G_i, (sum_j a_ij*G_j)_i> ],

    matching the direct pair sum to roundoff.  When the mask covers every
    node, F is f bit for bit, so the coefficient field A = a*f of f, when
    given as `coeffs`, is a*F.
    """
    grid = f.grid
    xi, mask = grad_log(f)
    F = np.where(mask, f.values, 0.0)
    G = np.where(mask[:, None], f.values[:, None] * xi, 0.0)
    H = G[:, :, None] * xi[:, None, :]
    if coeffs is not None and mask.all():
        aF = coeffs
    else:
        aF = a_convolve(grid, spec, F.reshape(grid.shape))
    aG = a_contract(grid, spec, G.T.reshape((grid.dim,) + grid.shape))
    total = float(np.sum(H * aF)) - float(np.sum(G * aG))
    return grid.cell_volume * total


def entropy_dissipation(f, spec, form="projected", coeffs=None):
    """Entropy-dissipation pair quadrature in either equivalent form.

    `coeffs`, the (size, N, N) coefficient field A = a*f of f when already
    made, can spare the projected form one convolution.
    """
    if form not in ("projected", "pairdiff"):
        raise ValidationError(f"unknown form {form!r}")
    if form == "projected":
        return _dissipation_projected_conv(f, spec, coeffs)
    coords, fv, xi, idx = _support_arrays(f)
    m = coords.shape[0]
    if m == 0:
        return 0.0
    dim = f.grid.dim
    h2n = f.grid.cell_volume**2
    total = 0.0
    # The integrand is symmetric under (v, w) exchange: sum strictly-upper
    # pairs once and double.
    for start in range(0, m, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, m)
        cols = slice(start + 1, m)
        z = coords[start:stop, None, :] - coords[None, cols, :]
        rsq = np.einsum("pqi,pqi->pq", z, z)
        tri = np.arange(start, stop)[:, None] >= np.arange(start + 1, m)[None, :]
        rsq[tri] = 1.0
        ff = fv[start:stop, None] * fv[None, cols]
        ff[tri] = 0.0
        psi = spec.psi(np.sqrt(rsq))
        dxi = xi[start:stop, None, :] - xi[None, cols, :]
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


def check_normalized(f, tol=1e-3):
    """Validate mass 1, zero momentum, energy-moment N within `tol`."""
    ms = moments(f)
    dim = f.grid.dim
    e2 = 2.0 * ms.energy  # int f |v|^2
    if (
        abs(ms.mass - 1.0) > tol
        or float(np.max(np.abs(ms.momentum))) > tol
        or abs(e2 - dim) > tol * dim
    ):
        raise ValidationError(
            "distribution is not normalized: "
            f"mass={ms.mass}, momentum={ms.momentum.tolist()}, int f|v|^2={e2}"
        )
    return ms


def _gaussian_moments(f, lam):
    """Zeroth/first/second weighted moments with weight exp(-lam |w|^2) f(w)."""
    grid = f.grid
    g = np.exp(-lam * grid.sq_norm) * f.values * grid.cell_volume
    m0 = float(np.sum(g))
    m1 = grid.coords.T @ g
    m2 = (grid.coords.T * g) @ grid.coords
    return g, m0, m1, m2


def _gamma_value(m0, m1, m2, i, j):
    mat = np.array(
        [
            [m0, m1[j], m1[i]],
            [m1[i], m2[i, j], m2[i, i]],
            [m1[j], m2[j, j], m2[i, j]],
        ]
    )
    return -float(np.linalg.det(mat))


def gamma_determinant(f, lam, i, j):
    """Negative determinant of the Gaussian-weighted 3x3 moment matrix.

    Quantifies non-concentration of f near the hyperplane structure spanned
    by axes i, j; requires a normalized input.
    """
    if lam <= 0:
        raise ValidationError(f"lam must be > 0, got {lam}")
    if i == j:
        raise ValidationError("axis indices must differ")
    check_normalized(f)
    _, m0, m1, m2 = _gaussian_moments(f, lam)
    return GammaDeterminant(lam=lam, i=i, j=j, gamma_value=_gamma_value(m0, m1, m2, i, j))


def _log_gradient_moment_pack(f, lam):
    """All weighted moment sums needed to reconstruct the log gradient.

    With g(w) = exp(-lam|w|^2) f(w) h^N over support nodes and
    xi = grad log f:
      m0, m1[k], m2[k,l]  -- plain moments,
      s0[l] = sum xi_l g,  s1[k,l] = sum w_k xi_l g,
      s2[k,m,l] = sum w_k w_m xi_l g.
    """
    coords, fv, xi, idx = _support_arrays(f)
    grid = f.grid
    g = np.exp(-lam * np.sum(coords**2, axis=1)) * fv * grid.cell_volume
    m0 = float(np.sum(g))
    m1 = coords.T @ g
    m2 = (coords.T * g) @ coords
    s0 = xi.T @ g
    s1 = (coords.T * g) @ xi
    dim = grid.dim
    s2 = np.empty((dim, dim, dim))
    for k in range(dim):
        s2[k] = (coords.T * (coords[:, k] * g)) @ xi
    return coords, xi, idx, m0, m1, m2, s0, s1, s2


def _reconstruct_component(v, xiv, i, j, lam, m0, m1, m2, s0, s1, s2, gamma):
    """Cramer solve for xi_i(v) from the pair-difference moment system."""
    x1v = v[:, i] * xiv[:, j] - v[:, j] * xiv[:, i]
    # Factorized pair sums Qk(v) = sum_w q_ij(v, w) * {1, w_i, w_j} g(w).
    q1 = (
        x1v * m0
        + xiv[:, i] * m1[j]
        - xiv[:, j] * m1[i]
        - v[:, i] * s0[j]
        + v[:, j] * s0[i]
        + (s1[i, j] - s1[j, i])
    )
    q2 = (
        x1v * m1[i]
        + xiv[:, i] * m2[i, j]
        - xiv[:, j] * m2[i, i]
        - v[:, i] * s1[i, j]
        + v[:, j] * s1[i, i]
        + (s2[i, i, j] - s2[i, j, i])
    )
    q3 = (
        x1v * m1[j]
        + xiv[:, i] * m2[j, j]
        - xiv[:, j] * m2[i, j]
        - v[:, i] * s1[j, j]
        + v[:, j] * s1[j, i]
        + (s2[j, i, j] - s2[j, j, i])
    )
    z1 = q1 + 2 * lam * (v[:, i] * m1[j] - v[:, j] * m1[i])
    z2 = q2 + 2 * lam * v[:, i] * m2[i, j] + v[:, j] * (m0 - 2 * lam * m2[i, i]) - m1[j]
    z3 = q3 - v[:, i] * (m0 - 2 * lam * m2[j, j]) - 2 * lam * v[:, j] * m2[i, j] + m1[i]
    # Determinant of the numerator matrix
    #   [ m0     z1  m1[i]   ]
    #   [ m1[i]  z2  m2[i,i] ]
    #   [ m1[j]  z3  m2[i,j] ]
    # expanded along the middle column; denominator determinant is -gamma.
    num = (
        -z1 * (m1[i] * m2[i, j] - m2[i, i] * m1[j])
        + z2 * (m0 * m2[i, j] - m1[i] * m1[j])
        - z3 * (m0 * m2[i, i] - m1[i] * m1[i])
    )
    return num / (-gamma)


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
    if lam <= 0:
        raise ValidationError(f"lam must be > 0, got {lam}")
    floor = gamma_floor(ms.abs_entropy)
    coords, xi, idx, m0, m1, m2, s0, s1, s2 = _log_gradient_moment_pack(f, lam)
    dim = f.grid.dim
    out = np.zeros((f.grid.size, dim))
    for i in range(dim):
        best_j, best_gamma = -1, -np.inf
        for j in range(dim):
            if j == i:
                continue
            gv = _gamma_value(m0, m1, m2, i, j)
            if gv > best_gamma:
                best_j, best_gamma = j, gv
        if best_gamma < floor:
            raise DegeneracyError(
                f"Gamma_(lam,{i},{best_j}) = {best_gamma} is below the "
                f"floor {floor}: near-concentration on a hyperplane"
            )
        out[idx, i] = _reconstruct_component(
            coords, xi, i, best_j, lam, m0, m1, m2, s0, s1, s2, best_gamma
        )
    mask = np.zeros(f.grid.size, dtype=bool)
    mask[idx] = True
    return out, mask


def reconstruct_log_gradient(f, lam=None, node=0):
    """Reconstructed grad(log f) at one flat node index (see field variant)."""
    field, mask = reconstruct_log_gradient_field(f, lam)
    if not mask[node]:
        raise ValidationError(f"node {node} is below the positivity floor")
    return field[node]
