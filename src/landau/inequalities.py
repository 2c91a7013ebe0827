"""Numerical verification of the quantitative inequalities: the weighted
Fisher-information bound by the entropy dissipation, the weighted Sobolev
embedding, the convolution (Young) bound, moment-weighted interpolation, and
the Gaussian-determinant floor.

Each checker returns an :class:`InequalityReport`; `holds` means
lhs <= rhs * (1 + 1e-9), the multiplicative tolerance absorbing roundoff
without hiding violations.  Checkers whose constant is only known as an
unspecified composition report the ratio lhs/rhs with
constant_used = "ratio-only" instead of asserting a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .functionals import (
    check_normalized,
    entropy_dissipation,
    fisher_sum,
    gamma_floor,
    gamma_values,
    lambda0,
    weight_exponent,
    weighted_fisher,
    weighted_lp,
)
from .grid import integrate
from .kernels import CoulombPsi, psi_convolve

HOLDS_TOL = 1e-9

# Explicit constant of the radial entropy-dissipation bound:
# 108 * 13^(3/2) * (16 pi / 3)^(4/3).
EDD_RADIAL_CONSTANT = 108.0 * 13.0**1.5 * (16.0 * math.pi / 3.0) ** (4.0 / 3.0)

# Explicit constants of the three-dimensional Coulomb Sobolev bound.
SOBOLEV_MASS_CONSTANT = 6.0 / math.sqrt(math.pi)
SOBOLEV_FISHER_CONSTANT = 8.0 / (3.0 * math.sqrt(math.pi))


@dataclass
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    constant_used: object
    holds: bool
    slack: float
    inputs: dict = field(default_factory=dict)


def _report(name, lhs, rhs, constant, inputs):
    """The report of lhs <= rhs; a "ratio-only" row asserts no bound, records
    the ratio lhs/rhs in its inputs and holds when the ratio is finite."""
    if constant == "ratio-only":
        inputs["ratio"] = lhs / rhs if rhs else math.inf
        holds = math.isfinite(inputs["ratio"])
    else:
        holds = lhs <= rhs * (1.0 + HOLDS_TOL)
    slack = rhs / lhs if lhs > 0 else math.inf
    return InequalityReport(
        name=name, lhs=lhs, rhs=rhs, constant_used=constant,
        holds=bool(holds), slack=float(slack), inputs=inputs,
    )


def radial_deviation(f):
    """Max relative deviation of f under 90-degree axis rotations."""
    if f.grid.dim != 3:
        raise ValidationError("radiality check requires dimension 3")
    arr = f.reshaped()
    peak = float(np.max(arr))
    if peak == 0:
        return 0.0
    dev = 0.0
    for axes in ((0, 1), (0, 2), (1, 2)):
        dev = max(dev, float(np.max(np.abs(arr - np.rot90(arr, axes=axes)))))
    return dev / peak


def check_edd_theorem(f, spec, mode="radial_explicit"):
    """Weighted Fisher information controlled by the entropy dissipation.

    radial_explicit (dimension 3, Coulomb kernel, radially symmetric and
    normalized input):

        int |grad sqrt f|^2 (1+|v|^2)^(-3/2)
            <= 108 * 13^(3/2) * (16 pi/3)^(4/3) * exp(16 Hbar / 3)
               * (2 + (128/3) D)

    with Hbar the absolute entropy and D the Coulomb entropy dissipation.
    ratio mode asserts nothing and reports lhs/(1 + D).
    """
    if mode not in ("radial_explicit", "ratio"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "ratio":
        dissipation = entropy_dissipation(f, spec, form="projected")
        g1 = spec.gamma
        lhs = weighted_fisher(f, g1)
        rhs = 1.0 + dissipation
        return _report("edd_ratio", lhs, rhs, "ratio-only",
                       {"dissipation": dissipation, "gamma1": g1})
    if f.grid.dim != 3 or not isinstance(spec, CoulombPsi):
        raise ValidationError(
            "the explicit bound requires dimension 3 and the Coulomb kernel"
        )
    dev = radial_deviation(f)
    if dev > 1e-3:
        raise ValidationError(
            f"input is not radially symmetric (deviation {dev:.2e} > 1e-3)"
        )
    ms = check_normalized(f)
    # D is the costly term: an input the checks above reject never pays for it
    dissipation = entropy_dissipation(f, spec, form="projected")
    hbar = ms.abs_entropy
    lhs = weighted_fisher(f, -3.0)
    rhs = (
        EDD_RADIAL_CONSTANT
        * math.exp(16.0 * hbar / 3.0)
        * (2.0 + 128.0 / 3.0 * dissipation)
    )
    return _report(
        "edd_radial_explicit", lhs, rhs, EDD_RADIAL_CONSTANT,
        {"hbar": hbar, "dissipation": dissipation, "radial_deviation": dev},
    )


def check_sobolev(f, gamma1, variant="general", q=None):
    """Weighted Sobolev embedding of f in terms of mass, energy, and the
    weighted Fisher information.

    general (ratio-only, N >= 3; for N = 2 an exponent q must be supplied):

        ( int f^(N/(N-2)) (1+|v|^2)^((N/(N-2)) m) )^((N-2)/N)
            <= C [ int f (1+|v|^2) + int |grad sqrt f|^2 (1+|v|^2)^m ],
        m = weight_exponent(gamma1).

    coulomb_explicit (N = 3, gamma1 = -3):

        ( int f^3 (1+|v|^2)^(-9/2) )^(1/3)
            <= (6/sqrt(pi)) int f + (8/(3 sqrt(pi))) int |grad sqrt f|^2 w,

    verified with the stronger weight w = (1+|v|^2)^(-3/2) of the general
    form; the variant with w = (1+|v|^2)^(+3/2) is reported alongside.
    """
    dim = f.grid.dim
    if variant == "coulomb_explicit":
        if dim != 3:
            raise ValidationError("the explicit constants require dimension 3")
        lhs = weighted_lp(f, 3.0, -3.0)
        mass = integrate(f)
        fisher_general = weighted_fisher(f, -3.0)
        fisher_display = fisher_sum(f, 1.5)
        rhs = SOBOLEV_MASS_CONSTANT * mass + SOBOLEV_FISHER_CONSTANT * fisher_general
        rhs_display = (
            SOBOLEV_MASS_CONSTANT * mass + SOBOLEV_FISHER_CONSTANT * fisher_display
        )
        return _report(
            "sobolev_coulomb_explicit", lhs, rhs,
            (SOBOLEV_MASS_CONSTANT, SOBOLEV_FISHER_CONSTANT),
            {
                "mass": mass,
                "fisher_general_weight": fisher_general,
                "fisher_display_weight": fisher_display,
                "rhs_display_weight": rhs_display,
                "holds_display_weight": bool(lhs <= rhs_display * (1 + HOLDS_TOL)),
            },
        )
    if variant != "general":
        raise ValidationError(f"unknown variant {variant!r}")
    if dim == 2:
        if q is None:
            raise ValidationError("dimension 2 requires an explicit exponent q")
        p = float(q)
    else:
        p = dim / (dim - 2.0)
    lhs = weighted_lp(f, p, 2.0 * weight_exponent(gamma1))
    bracket = integrate(f, 1.0 + f.grid.sq_norm) + weighted_fisher(f, gamma1)
    return _report("sobolev_general", lhs, bracket, "ratio-only",
                   {"gamma1": gamma1, "exponent": p})


def _unit_ball_power_norm(p, r, dim):
    """|| x -> |x|^p 1_{|x| <= 1} ||_{L^r}; finite iff p r + dim > 0."""
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return (surface / (p * r + dim)) ** (1.0 / r)


def check_young(f, spec, R, r):
    """Convolution bound for very soft kernels on a centered ball.

        int_{R^N} int_{|w| <= R} f(v) f(w) psi(|v-w|) dv dw
            <= C ||f||_1 ( ||f||_{L^1_2} + ||f 1_{|.| <= R}||_{r'} ),

    for psi = |z|^(gamma2+2), gamma2 in (-4,-2), with C assembled from the
    proof chain (splitting at |v-w| = 1, Young's convolution inequality, and
    ||f||_1 <= ||f||_{L^1_2}): C = max(6, || |x|^(gamma2+2) 1_{<=1} ||_r),
    the chain's max(5 K1 + K2, K2 || . ||_r) for the envelope
    psi <= K1 |z|^2 + K2 |z|^(gamma2+2), with K1 = K2 = 1.

    The node double sum on the left, diagonal w = v excluded, is the
    psi-table convolution h^N sum_v f(v) (psi * f 1_{|.| <= R})(v).
    """
    gamma2 = spec.gamma
    if not (-4.0 < gamma2 < -2.0):
        raise ValidationError(f"gamma2 must lie in (-4, -2), got {gamma2}")
    dim = f.grid.dim
    rmax = dim / (-gamma2 - 2.0)
    if not (1.0 <= r < rmax):
        raise ValidationError(f"r must lie in [1, {rmax}), got {r}")
    if not R > 0:  # NaN fails too
        raise ValidationError(f"R must be > 0, got {R}")
    rprime = math.inf if r == 1.0 else r / (r - 1.0)

    fball = f.with_values(np.where(f.grid.sq_norm <= R * R, f.values, 0.0))
    lhs = integrate(f, psi_convolve(f.grid, spec, fball.reshaped()))
    norm1 = integrate(f)
    norm12 = weighted_lp(f, 1.0, 2.0)
    normrp = weighted_lp(fball, rprime, 0.0)
    cpsi = _unit_ball_power_norm(gamma2 + 2.0, r, dim)
    constant = max(6.0, cpsi)
    rhs = constant * norm1 * (norm12 + normrp)
    return _report(
        "young_convolution", lhs, rhs, constant,
        {"R": R, "r": r, "r_prime": rprime, "gamma2": gamma2,
         "kernel_tail_norm": cpsi},
    )


def check_interpolation(f, q1, l1, q2, l2, beta):
    """Weighted-norm interpolation  ||f||_{q,l} <= ||f||_{q1,l1}^beta
    ||f||_{q2,l2}^(1-beta)  with 1/q = beta/q1 + (1-beta)/q2 and
    l = beta l1 + (1-beta) l2.
    """
    for q in (q1, q2):
        if not (q >= 1.0):
            raise ValidationError(f"exponents must be >= 1, got {q}")
    if not (0.0 <= beta <= 1.0):
        raise ValidationError(f"beta must lie in [0, 1], got {beta}")
    inv = beta / q1 + (1.0 - beta) / q2  # an infinite exponent adds +0.0
    q = math.inf if inv == 0.0 else 1.0 / inv
    l = beta * l1 + (1.0 - beta) * l2
    lhs = weighted_lp(f, q, l)
    n1 = weighted_lp(f, q1, l1)
    n2 = weighted_lp(f, q2, l2)
    rhs = n1**beta * n2 ** (1.0 - beta)
    return _report(
        "interpolation", lhs, rhs, 1.0,
        {"q": q, "l": l, "q1": q1, "l1": l1, "q2": q2, "l2": l2, "beta": beta},
    )


def check_gamma_lower_bound(f, hbar):
    """Entropy-explicit floor of the Gaussian-weighted moment determinant.

    At lam0 = 2^-82 3^-13 exp(-24 hbar), every Gamma_{lam0,i,j} of a
    normalized f with absolute entropy <= hbar is at least
    2^-38 3^-4 exp(-16 hbar).
    """
    if f.grid.dim != 3:
        raise ValidationError("the explicit floor requires dimension 3")
    ms = check_normalized(f)
    if ms.abs_entropy > hbar:
        raise ValidationError(
            f"abs-entropy {ms.abs_entropy} exceeds the assumed bound {hbar}"
        )
    lam = lambda0(hbar)
    floor = gamma_floor(hbar)
    gammas = gamma_values(f, lam)[1]
    return _report(
        "gamma_lower_bound", floor, min(gammas.values()), floor,
        {"hbar": hbar, "lambda0": lam,
         "gamma_values": {f"{i}{j}": g for (i, j), g in gammas.items()}},
    )


def moment_condition(gamma1, gamma2):
    """Admissibility of the kernel exponent pair for moment propagation:
    (gamma2 + 2) (1 - weight_exponent(gamma1)) > -4.

    Strict inequality: pairs landing on the boundary (up to roundoff) fail.
    """
    return (gamma2 + 2.0) * (1.0 - weight_exponent(gamma1)) > -4.0 + 1e-12
