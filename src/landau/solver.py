"""Conservative time integration of the spatially homogeneous Landau
equation in flux form, the symmetrized weak form, and diagnostic identities.

The weak form is a direct pair sum (`functionals.pair_chunks`) against
`TestFunction`s whose derivatives are closed forms.

The collision operator is assembled as

    Q(f) = div_v ( A grad f - B f ),    A = a*f,  B_i = sum_j a_ij*(d_j f),

with face-centered fluxes: arithmetic-mean coefficients at faces, the
compact difference of f across a face as its normal derivative, and
face-mean drift.  Fluxes through the domain boundary are zero, so the
per-step total of f telescopes and mass is conserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_value, fits
from .functionals import (entropy_dissipation, moments, pair_chunks, weight_exponent,
                          weighted_fisher, weighted_lp)
from .grid import gradient
from .kernels import a_contract, collision_coefficients

CFL_SAFETY = 0.4


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Twice-differentiable test function with analytic derivatives.

    Kinds: "one", ("v", i), "energy" (= |v|^2/2) and "log_f".  "log_f" has
    no values: it selects the dissipation form of `weak_form_rhs`.
    """

    __test__ = False  # not a test case, despite the name

    def __init__(self, kind):
        name, *params = kind if isinstance(kind, tuple) and kind else (kind,)
        known = isinstance(name, str) and name in ("one", "energy", "log_f", "v")
        if not known or len(params) != (name == "v"):
            raise ValidationError(f"unknown test-function kind or arity {kind!r}")
        self.kind = name
        if name == "v":
            self.index = params[0]
            if not fits(self.index, 0) or self.index < 0:
                raise ValidationError(f"test-function axis must be an integer >= 0, got {kind!r}")

    def _derivatives(self, coords):
        """(value, grad, hess) at each row of coords, in closed form: (1, 0, 0)
        for "one", (|v|^2/2, v, I) for "energy" and (v_i, e_i, 0) for ("v", i)."""
        n, dim = coords.shape
        hess = np.zeros((n, dim, dim))
        if self.kind == "one":
            return np.ones(n), np.zeros((n, dim)), hess
        if self.kind == "energy":
            hess[:, range(dim), range(dim)] = 1.0
            return 0.5 * np.sum(coords**2, axis=1), coords.copy(), hess
        if self.kind == "log_f":
            raise ValidationError("log_f has no free-standing value or derivatives")
        if self.index >= dim:
            raise ValidationError(f"test-function axis {self.index} on a {dim}-D grid")
        return coords[:, self.index].copy(), np.eye(dim)[np.full(n, self.index)], hess


# ---------------------------------------------------------------------------
# operator assembly and stepping


def _sides(arr, d):
    """Views (lo, hi) of arr on either side of the faces normal to axis d:
    the face between nodes k and k+1 has lo[k] and hi[k]."""
    lead = (slice(None),) * d
    return arr[lead + (slice(0, -1),)], arr[lead + (slice(1, None),)]


def _face_mean(arr, axis, out=None):
    lo, hi = _sides(arr, axis)
    out = np.add(lo, hi, out=out)
    out *= 0.5
    return out


def _face_diff(arr, axis, h, out=None):
    lo, hi = _sides(arr, axis)
    out = np.subtract(hi, lo, out=out)
    out /= h
    return out


def stability_dt(coeffs, h):
    """Explicit parabolic bound CFL_SAFETY * h^2 / max_v trace(A(v)) for the
    (size, N, N) coefficient field A = `coeffs`.

    The trace bounds the axis-summed diffusion stiffness of the full-tensor
    stencil, which is what limits an explicit step in several dimensions.
    """
    tr = float(np.max(np.trace(coeffs, axis1=1, axis2=2)))
    if tr <= 0:
        return math.inf
    return CFL_SAFETY * h * h / tr


def _project_conservative(grid, fluxes, fg):
    """Correct face fluxes so momentum and energy defects vanish exactly.

    The rates of change of the momentum components and of the energy are
    exact linear functionals of the face fluxes (summation by parts against
    v and |v|^2/2).  The continuum flux annihilates them; the discrete one
    leaves O(h^2) defects.  Subtracting (alpha_d + beta v_face) weighted by
    the face-min of f, with (alpha, beta) solved from a (dim+1)-square
    system, removes the defects without touching the mass telescoping.
    The face-min weight vanishes at faces touching an empty cell, so the
    corrections cannot push those cells negative.
    """
    dim = grid.dim
    weights = [np.minimum(*_sides(fg, d)) for d in range(dim)]
    mid = grid.axis[:-1] + 0.5 * grid.h  # the axis coordinate of each face
    vface = [np.broadcast_to(mid.reshape((-1,) + (1,) * (dim - 1 - d)), weights[d].shape)
             for d in range(dim)]
    mat = np.zeros((dim + 1, dim + 1))
    rhs = np.zeros(dim + 1)
    for d in range(dim):
        w, v = weights[d], vface[d]
        sw = float(np.sum(w))
        swv = float(np.sum(w * v))
        mat[d, d] = sw
        mat[d, dim] = swv
        mat[dim, d] = swv
        mat[dim, dim] += float(np.sum(w * v * v))
        rhs[d] = float(np.sum(fluxes[d]))
        rhs[dim] += float(np.sum(fluxes[d] * v))
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return fluxes
    for d in range(dim):
        fluxes[d] = fluxes[d] - weights[d] * (sol[d] + sol[dim] * vface[d])
    return fluxes


def _limit_fluxes(grid, fluxes, fg, dt):
    """Donor-cell positivity bound on face fluxes.

    A face flux moves mass out of its donor cell; capping the amount any
    face can extract in one step of size dt at the donor content divided
    by the number of faces keeps the update nonnegative.  The cap only
    binds where the donor is nearly empty, i.e. where the unlimited flux
    is discretization noise anyway.
    """
    dim, h = grid.dim, grid.h
    cap = h / (2.0 * dim * dt)
    for d in range(dim):
        lo, hi = _sides(fg, d)
        # positive flux donates from the hi cell, negative from the lo cell
        fluxes[d] = np.clip(fluxes[d], -cap * lo, cap * hi)
    return fluxes


@dataclass
class _Fields:
    """The coefficient field A = a*f of one state, shape (size, N, N) and
    component-major (`kernels.a_convolve`), and its unlimited face fluxes."""

    A: np.ndarray
    fluxes: list


def _face_fluxes(f, spec, coeffs=None):
    """Face fluxes of the flux-form scheme, before the positivity limiter
    and the conservative projection."""
    grid = f.grid
    if coeffs is None:
        coeffs = collision_coefficients(f, spec)
    dim, h = grid.dim, grid.h
    fg = f.reshaped()
    gradf = gradient(fg, h)
    # Drift B_i = sum_j a_ij*(d_j f), the identity b*f = a*grad f with the
    # discrete gradient: the flux then vanishes when grad f is parallel to
    # v f, which keeps the equilibrium residual at the quadrature level.
    B = a_contract(grid, spec, gradf)
    fluxes = []
    for d in range(dim):
        # the diffusive flux sum_j A_dj d_j f: face-mean coefficients times the
        # compact difference of f for j = d and the face mean of grad f otherwise
        flux = np.zeros(_sides(fg, d)[0].shape)
        term, df_face = np.empty_like(flux), np.empty_like(flux)
        for j in range(dim):
            # A and B are component-major, so each component is contiguous
            _face_mean(coeffs[:, d, j].reshape(grid.shape), d, out=term)
            if j == d:
                term *= _face_diff(fg, d, h, out=df_face)
            else:
                term *= _face_mean(gradf[j], d, out=df_face)
            flux += term
        # minus the drift: face-mean B_d times the face mean of f
        _face_mean(B[:, d].reshape(grid.shape), d, out=term)
        term *= _face_mean(fg, d, out=df_face)
        flux -= term
        fluxes.append(flux)
        # the temporaries go before the next axis's arrays are made: kept
        # alive, they leave holes in the heap that raise the peak RSS
        del term, df_face
    return _Fields(coeffs, fluxes)


def assemble_operator(f, spec, coeffs=None, conservative=True, dt=None, fluxes=None):
    """Flux-form right-hand side Q(f) sampled at nodes (flat array).

    flux_i = sum_j A_ij d_j f - B_i f with face-centered discretization:
    arithmetic-mean coefficients at faces, compact normal derivative, and
    centered drift.  Boundary fluxes are zero, so the output sums to
    roundoff (exact mass).  When a step size dt is given, face fluxes are
    capped by the donor-cell positivity bound for that dt.  With
    `conservative`, fluxes are then projected so the discrete momentum and
    energy rates vanish exactly.  `fluxes` are the state's unlimited face
    fluxes when they are already made.
    """
    grid = f.grid
    dim, h = grid.dim, grid.h
    fg = f.reshaped()
    if fluxes is None:
        fluxes = _face_fluxes(f, spec, coeffs=coeffs).fluxes
    fluxes = list(fluxes)  # the limiter and the projection replace entries
    if dt is not None:
        fluxes = _limit_fluxes(grid, fluxes, fg, dt)
    if conservative:
        fluxes = _project_conservative(grid, fluxes, fg)
    out = np.zeros(grid.shape)
    for d in range(dim):
        # node k gains F_(k+1/2) - F_(k-1/2); boundary faces carry no flux
        lo, hi = _sides(out, d)
        rate = fluxes[d] / h
        lo += rate
        hi -= rate
    return out.ravel()


def _advance(f, spec, dt, scheme, fields):
    """One explicit step from f, whose `_face_fluxes` are `fields`; returns
    (new distribution, clipped mass fraction)."""
    k1 = assemble_operator(f, spec, dt=dt, fluxes=fields.fluxes)
    if scheme == "euler":
        new = f.values + dt * k1
    else:  # "heun", the only other scheme `SolverConfig` admits
        mid = f.with_values(np.maximum(f.values + dt * k1, 0.0))
        k2 = assemble_operator(mid, spec, dt=dt)
        new = f.values + 0.5 * dt * (k1 + k2)
    clipped = float(-np.sum(np.minimum(new, 0.0))) + 0.0  # + 0.0: never -0.0
    total = float(np.sum(f.values))
    frac = clipped / total if total > 0 else 0.0
    return f.with_values(np.maximum(new, 0.0)), frac


def _step_size(dt, A, h):
    """The step from a state with coefficient field A: the stability bound
    for dt = "auto", else dt, which must not exceed that bound.  A state
    with no diffusion (max tr A <= 0, as at zero mass) has no "auto" step."""
    bound = stability_dt(A, h)
    if dt == "auto":
        if bound == math.inf:
            raise ValidationError("dt = 'auto' needs a state with max tr A > 0")
        return bound
    if dt > bound * (1.0 + 1e-9):
        raise ValidationError(
            f"dt = {dt} exceeds the parabolic stability bound {bound}"
        )
    return float(dt)


@dataclass
class SolverConfig:
    spec: object
    dt: object = "auto"  # "auto" or a float
    steps: int = 100
    scheme: str = "euler"  # "euler" or "heun"
    l_list: tuple = (1.0, 2.0)
    k_list: tuple = (1.0,)
    cadence: int = 0  # 0 -> steps // 20, at least 1
    gamma1: float = None  # None -> the kernel exponent
    keep_snapshots: bool = False  # retain (t, state) at the cadence steps

    def __post_init__(self):
        # values are read by the config rule, then stored as floats
        if not (self.dt == "auto" or fits(self.dt, 0.0) and self.dt > 0):
            raise ValidationError(f"dt must be 'auto' or a finite number > 0, got {self.dt!r}")
        for name, default in (("steps", 0), ("cadence", 0), ("l_list", [0.0]),
                              ("k_list", [0.0]), ("gamma1", None)):
            check_value(getattr(self, name), default, name)
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.cadence < 0:
            raise ValidationError(f"cadence must be >= 0, got {self.cadence}")
        if self.scheme not in ("euler", "heun"):
            raise ValidationError(f"scheme must be 'euler' or 'heun', got {self.scheme!r}")
        if not all(k > 0 for k in self.k_list):
            raise ValidationError(f"k_list entries must be > 0, got {self.k_list}")
        self.l_list = tuple(map(float, self.l_list))
        self.k_list = tuple(map(float, self.k_list))
        self.cadence = self.cadence or max(1, self.steps // 20)
        self.gamma1 = float(self.spec.gamma if self.gamma1 is None else self.gamma1)


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    mass: float
    momentum: np.ndarray
    energy: float
    entropy: float
    clipped_mass: float
    dissipation: float = math.nan
    moments_l: dict = field(default_factory=dict)
    fisher_w: float = math.nan
    l3w_norm: float = math.nan
    lp_net: dict = field(default_factory=dict)


@dataclass
class TimeSeries:
    records: list
    dissipation_integral: float
    l3w_integral: float
    final_state: object
    snapshots: list = field(default_factory=list)  # (t, state) at cadence


def _heavy_diagnostics(f, config, rec, fields):
    rec.dissipation = entropy_dissipation(f, config.spec, form="projected",
                                          coeffs=fields.A)
    rec.fisher_w = weighted_fisher(f, config.gamma1)
    rec.l3w_norm = weighted_lp(f, 3.0, 2.0 * weight_exponent(config.gamma1))
    for k in config.k_list:
        rec.lp_net[k] = lp_energy_balance(f, config.spec, k, fields)


def run(f0, config):
    """Step the scheme, recording diagnostics.

    Cheap conserved quantities and the entropy are recorded every step;
    pair-sum diagnostics (dissipation, weighted norms, L^p balance) at the
    configured cadence and at both endpoints.

    Each state gets one coefficient field: A = a*f and the unlimited face
    fluxes with their drift are made once, right after the state, and
    serve the step from it, its entropy dissipation and its L^p balance
    for every k.
    """
    f, t, clipped = f0, 0.0, 0.0
    records, snapshots = [], []
    d_int = l3_int = 0.0
    prev = None  # the last heavy record
    for istep in range(config.steps + 1):
        if istep:
            dt = _step_size(config.dt, fields.A, f.grid.h)
            f, clipped = _advance(f, config.spec, dt, config.scheme, fields)
            t += dt
        fields = None  # the old state's fields go before the new ones are made
        fields = _face_fluxes(f, config.spec)
        heavy = istep % config.cadence == 0 or istep == config.steps
        ms = moments(f, config.l_list if heavy else ())
        rec = DiagnosticsRecord(
            step=istep, t=t, mass=ms.mass, momentum=ms.momentum, energy=ms.energy,
            entropy=ms.entropy, clipped_mass=clipped, moments_l=ms.moments,
        )
        if heavy:
            _heavy_diagnostics(f, config, rec, fields)
            if prev is not None:
                d_int += 0.5 * (prev.dissipation + rec.dissipation) * (t - prev.t)
                l3_int += 0.5 * (prev.l3w_norm + rec.l3w_norm) * (t - prev.t)
            prev = rec
            if config.keep_snapshots:
                snapshots.append((t, f))
        records.append(rec)

    return TimeSeries(
        records=records, dissipation_integral=d_int, l3w_integral=l3_int,
        final_state=f, snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# weak form and L^p balance


def weak_form_rhs(f, spec, phi, with_scale=False):
    """Symmetrized weak form of the collision operator against phi.

        int Q(f,f) phi = 1/2 sum_ij iint f f a_ij(v-w) (d2_ij phi(v) + d2_ij phi(w))
                        + sum_i  iint f f b_i(v-w) (d_i phi(v) - d_i phi(w)),

    by direct double sum over node pairs: the integrand is symmetric in
    (v, w), so each unordered pair (`functionals.pair_chunks`) counts twice.  For
    phi = log f the gradient-difference (pair-difference) representation is
    used instead, which is the same quantity after integrating by parts in
    the pair variables and stays well defined near vacuum: the result is
    minus the entropy dissipation.
    """
    if phi.kind == "log_f":
        val = -entropy_dissipation(f, spec, form="pairdiff")
        return (val, abs(val)) if with_scale else val
    live = f.values > 0
    coords = f.grid.coords[live]
    _, gphi, hphi = phi._derivatives(coords)
    total = gross = 0.0
    for rows, cols, z, rsq, ff, psi in pair_chunks(f, spec, live):
        # a_ij = psi (delta_ij - z_i z_j / r^2);  b_i = -(N-1) psi z_i / r^2
        hsum = hphi[rows, None] + hphi[None, cols]
        tr = np.trace(hsum, axis1=-2, axis2=-1)
        zhz = np.einsum("pqi,pqij,pqj->pq", z, hsum, z)
        a_term = 0.5 * psi * (tr - zhz / rsq)
        gdiff = gphi[rows, None] - gphi[None, cols]
        b_term = -(f.grid.dim - 1) * psi / rsq * np.sum(z * gdiff, axis=-1)
        total += float(np.sum(ff * (a_term + b_term)))
        gross += float(np.sum(ff * (np.abs(a_term) + np.abs(b_term))))
    scale = 2.0 * f.grid.cell_volume**2  # each unordered pair stands for two
    return (scale * total, scale * gross) if with_scale else scale * total


def lp_energy_balance(f, spec, k, fields=None):
    """The rate of int f^(k+1)/(k+1) under the scheme: h^N <f^k, Q_h f>, Q_h
    the conservative scheme of `assemble_operator`.  `fields` are the
    `_face_fluxes` of f when they are already made."""
    if not (k > 0 and math.isfinite(k)):  # NaN fails too
        raise ValidationError(f"k must be finite and > 0, got {k}")
    if fields is None:
        fields = _face_fluxes(f, spec)
    rate = assemble_operator(f, spec, fluxes=fields.fluxes)
    return f.grid.cell_volume * float(np.sum(f.values**k * rate))


def moment_tracking(series, l):
    """Summary of the time evolution of the moment M_l along a run."""
    pts = [
        (r.t, r.moments_l[l]) for r in series.records if l in r.moments_l
    ]
    if len(pts) < 4:
        raise ValidationError(
            f"need at least 4 sampled values of M_{l}, got {len(pts)}"
        )
    t = np.array([p[0] for p in pts])
    m = np.array([p[1] for p in pts])
    deg = min(3, len(pts) - 1)
    coef = np.polyfit(t, m, deg)
    fit = np.polyval(coef, t)
    scale = max(float(np.max(m) - np.min(m)), 1e-12 * float(np.max(np.abs(m))))
    resid = float(np.max(np.abs(m - fit))) / scale if scale > 0 else 0.0
    return {
        "sup": float(np.max(m)),
        "initial": float(m[0]),
        "fit_degree": deg,
        "polynomial_growth": bool(resid <= 0.25),
    }
