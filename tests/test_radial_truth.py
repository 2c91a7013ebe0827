"""The program's A, D and weighted Fisher information against the continuum
truth of a radial state under the 3-D Coulomb kernel (`oracles.radial_coulomb`),
and the program's D and today's scheme against radial trajectories of the
equation itself (`oracles.radial_landau`), along which the paper's
time-integrated bounds and the monotone Fisher information are checked.

The snapshot states are table H's shells f = exp(-(r - c)^2 / (2 w^2)), not
normalized, on [-6, 6]^3: (c, w) = (2, 0.5) and (1.5, 0.6).  The first one's
1-D D is 2292.944953543, and the 1-D integrals agree to 2e-10 between
(R, points) = (12, 2e5) and (14, 4e5); the second one's is 614.03627178.
"""

import math

import numpy as np
import pytest

from landau.functionals import entropy_dissipation, moments, weighted_fisher
from landau.grid import NORMALIZE_TOL, DiscreteDistribution, build_grid
from landau.inequalities import (
    EDD_RADIAL_CONSTANT,
    SOBOLEV_FISHER_CONSTANT,
    SOBOLEV_MASS_CONSTANT,
)
from landau.kernels import CoulombPsi, collision_coefficients
from landau.solver import SolverConfig, run, stability_dt
from oracles import radial_coulomb, radial_landau

RESOLUTIONS = (16, 24, 32)
SHELLS = ((2.0, 0.5), (1.5, 0.6))  # table H's (centre, width)


def gaussian_shell(centre, width, scale=1.0, beta=1.0):
    """(f, f') of r -> scale exp(-(beta r - centre)^2 / (2 width^2))."""
    def f(r):
        return scale * np.exp(-((beta * r - centre) ** 2) / (2 * width**2))

    def df(r):
        return -beta * (beta * r - centre) / width**2 * f(r)

    return f, df


shell, shell_derivative = gaussian_shell(*SHELLS[0])


@pytest.fixture(scope="module")
def errors():
    """{(centre, width): {quantity: [error at each n of RESOLUTIONS]}} for
    each of SHELLS: A as max|A - A_true| / max|A_true| over |v| < 4.5, D and
    Fisher_w relative to the truth."""
    return {pair: shell_errors(*gaussian_shell(*pair)) for pair in SHELLS}


def shell_errors(profile, derivative):
    out = {"A": [], "D": [], "fisher_w": []}
    spec = CoulombPsi()
    for n in RESOLUTIONS:
        grid = build_grid(3, 6.0, n)
        r = np.sqrt(grid.sq_norm)
        truth = radial_coulomb(profile, derivative, r)
        along, across = truth["A"]
        u = grid.coords / r[:, None]
        uu = u[:, :, None] * u[:, None, :]
        exact = along[:, None, None] * uu + across[:, None, None] * (np.eye(3) - uu)
        f = DiscreteDistribution(grid, profile(r))
        inner = r < 4.5
        A = collision_coefficients(f, spec)
        out["A"].append(np.max(np.abs(A - exact)[inner]) / np.max(np.abs(exact[inner])))
        out["D"].append(entropy_dissipation(f, spec) / truth["D"] - 1)
        out["fisher_w"].append(weighted_fisher(f, -3.0) / truth["fisher_w"] - 1)
    return out


def test_shell_dissipation_reference():
    truth = radial_coulomb(shell, shell_derivative, np.zeros(1))
    assert truth["D"] == pytest.approx(2292.944953543, rel=1e-8)


@pytest.mark.parametrize("quantity", ["A", "D", "fisher_w"])
def test_program_converges_to_truth(errors, quantity):
    # second order in h = 2L/n, read between n = 24 and 32 with the margin
    # 1.5 fixed in advance (D reads -17.96%, -8.42%, -4.85%: order 1.92;
    # on the second shell -31.5%, -15.5%, -9.15%: order 1.84)
    for pair in SHELLS:
        e16, e24, e32 = (abs(e) for e in errors[pair][quantity])
        assert e16 > e24 > e32, pair
        assert math.log(e24 / e32) / math.log(32 / 24) >= 1.5, pair


def test_second_shell_dissipation_reference():
    truth = radial_coulomb(*gaussian_shell(*SHELLS[1]), np.zeros(1))
    assert truth["D"] == pytest.approx(614.03627178, rel=1e-8)


def test_maxwellian_abs_entropy():
    # Hbar of the unit Maxwellian, whose log is negative everywhere:
    # int f (3/2 ln 2 pi + r^2/2) = (3/2)(ln 2 pi + 1)
    truth = radial_coulomb(*gaussian_shell(0.0, 1.0, (2 * math.pi) ** -1.5), np.zeros(1))
    assert abs(truth["hbar"] - 1.5 * (math.log(2 * math.pi) + 1)) <= 1e-9


def _half_line_moment(k, centre, width):
    """int_0^inf s^k exp(-(s - centre)^2 / (2 width^2)) ds, by s = centre +
    width t and J_j = int_a^inf t^j e^(-t^2/2) dt, a = -centre/width:
    J_0 = sqrt(pi/2) erfc(a/sqrt 2), J_1 = e^(-a^2/2) and
    J_j = a^(j-1) e^(-a^2/2) + (j - 1) J_(j-2)."""
    a = -centre / width
    J = [math.sqrt(math.pi / 2) * math.erfc(a / math.sqrt(2)), math.exp(-a * a / 2)]
    for j in range(2, k + 1):
        J.append(a ** (j - 1) * math.exp(-a * a / 2) + (j - 1) * J[j - 2])
    return width * sum(math.comb(k, j) * centre ** (k - j) * width**j * J[j]
                       for j in range(k + 1))


# Gaussian shells of width 1 fixed before the run; a dilated shell's shape
# depends on centre/width alone, and past centre 5.75 it underflows on [0, 12]
CONSTANT_SHELLS = tuple(0.25 * k for k in range(24))


def test_radial_constant_is_far_below_the_explicit_one():
    # K = Fisher_w / (e^(16 Hbar / 3) (2 + (128/3) D)) of each shell dilated
    # to mass 1 and int f |v|^2 = 3: the paper's constant bounds it; the
    # largest K reads 9.6e-12, 2.3e16 times below EDD_RADIAL_CONSTANT
    s = np.linspace(0.0, 12.0, 200_001)
    for centre in CONSTANT_SHELLS:
        m2, m4 = (_half_line_moment(k, centre, 1.0) for k in (2, 4))
        beta = math.sqrt(m4 / (3 * m2))
        f, df = gaussian_shell(centre, 1.0, beta**3 / (4 * math.pi * m2), beta)
        assert np.min(f(s)) > 1e-300, centre
        truth = radial_coulomb(f, df, np.zeros(1))
        k = truth["fisher_w"] / (math.exp(16 * truth["hbar"] / 3) * (2 + 128 / 3 * truth["D"]))
        assert k <= EDD_RADIAL_CONSTANT, centre


def test_maxwellian_dissipation_vanishes():
    # D's two terms cancel for the Maxwellian, to the quadrature's accuracy
    truth = radial_coulomb(lambda r: np.exp(-r * r / 2), lambda r: -r * np.exp(-r * r / 2),
                           np.zeros(1))
    assert abs(truth["D"]) <= 1e-8 * truth["D_first"]


# ---------------------------------------------------------------------------
# trajectories: `oracles.radial_landau` against itself, the program's D and
# today's scheme


def s2(r):
    """Table K's S2: a Gaussian of temperature 0.5 plus a shell at r = 1.2."""
    return 0.7 * math.pi**-1.5 * np.exp(-r * r) + 0.075 * np.exp(-((r - 1.2) ** 2) / 0.32)


S2_R, S2_L = 4.0, 3.5  # the 1-D domain [0, R] and the 3-D box [-L, L]^3
TIMES = (0.0, 0.1, 0.25, 0.5, 1.0)


def s2_state(n):
    grid = build_grid(3, S2_L, n)
    values = s2(np.sqrt(grid.sq_norm))
    return DiscreteDistribution(grid, values / (np.sum(values) * grid.cell_volume))


@pytest.fixture(scope="module")
def s2_runs():
    """Today's scheme from S2 at n = 12 and 16, Euler at the "auto" step,
    for the whole number of steps that comes nearest t = 0.25."""
    spec, out = CoulombPsi(), {}
    for n in (12, 16):
        f0 = s2_state(n)
        steps = round(0.25 / stability_dt(collision_coefficients(f0, spec), f0.grid.h))
        series = run(f0, SolverConfig(spec, steps=steps, cadence=steps))
        out[n] = (series.records[-1].t, series.final_state, series.records[-1].dissipation)
    return out


@pytest.fixture(scope="module")
def s2_truth(s2_runs):
    """S2's 1-D reference at m = 400, 800 and 1600 cells, at TIMES and, for
    m = 800, at the end times of `s2_runs`."""
    extra = tuple(t for t, _, _ in s2_runs.values())
    return {m: radial_landau(s2, S2_R, m, TIMES + (extra if m == 800 else ()))
            for m in (400, 800, 1600)}


@pytest.mark.parametrize("quantity", ["H", "D"])
def test_reference_converges_at_second_order(s2_truth, quantity):
    # at t = 1.0: H reads order 2.00 and D 2.00
    k = TIMES.index(1.0)
    x400, x800, x1600 = (s2_truth[m][quantity][k] for m in (400, 800, 1600))
    assert math.log2(abs(x400 - x800) / abs(x800 - x1600)) >= 1.7


def test_reference_entropy_rate_is_its_dissipation(s2_truth):
    # the semi-discrete -dH/dt against `radial_coulomb`'s D of the spline:
    # 1.0e-4, 1.6e-4 and 3.1e-4 apart at m = 800
    out = s2_truth[800]
    for k in (TIMES.index(t) for t in (0.1, 0.25, 0.5)):
        assert abs(-out["dH_dt"][k] / out["D"][k] - 1) <= 1e-3


def test_reference_conserves_mass_and_keeps_energy(s2_truth):
    out = s2_truth[1600]
    assert np.max(np.abs(out["mass"] - 1.0)) <= 1e-12
    assert np.max(np.abs(out["energy"] / out["energy"][0] - 1)) <= 1e-4


def test_reference_maxwellian_is_steady():
    # J = 0 for f ~ exp(-r^2/2) up to the O(dr^2) of the fluxes: the
    # residual max |d_t f| / max f falls at second order in m and is at
    # most 1e-4 at m = 800 (6.0e-5 and 1.5e-5), and D reads -4.2e-8, where
    # S2's is 5.5e-3 at t = 1
    residual = []
    for m in (400, 800):
        out = radial_landau(lambda r: np.exp(-r * r / 2), 6.0, m, (0.0,))
        residual.append(out["residual"][0])
    assert residual[1] <= 1e-4
    assert math.log2(residual[0] / residual[1]) >= 1.7
    assert abs(out["D"][0]) <= 1e-6


def test_program_dissipation_converges_to_the_trajectory(s2_truth):
    # the truth at t = 1.0 on the 3-D grid; margins fixed before the first
    # run: order >= 1 between n = 16 and 24, and at most 20% at n = 24
    # (it reads +8.9% and +4.1%, order 1.95)
    k = TIMES.index(1.0)
    errors = []
    for n in (16, 24):
        grid = build_grid(3, S2_L, n)
        f = DiscreteDistribution(grid, s2_truth[800]["f"][k](np.sqrt(grid.sq_norm)))
        errors.append(abs(entropy_dissipation(f, CoulombPsi()) / s2_truth[800]["D"][k] - 1))
    assert errors[1] < errors[0] and errors[1] <= 0.2
    assert math.log(errors[0] / errors[1]) / math.log(24 / 16) >= 1.0


def test_scheme_l1_error_against_the_trajectory(s2_runs, s2_truth):
    # margins fixed before the first run: the L1 error falls from n = 12 to
    # 16, is at most 0.1 at n = 16, and its observed order is >= 0.8
    # (it reads 2.8e-2 and 1.9e-2, order 1.35); D_run / D_true is not
    # asserted: it reads 1.80 and 1.39
    truth = s2_truth[800]
    errors = []
    for k, n in enumerate((12, 16)):
        _, f, _ = s2_runs[n]
        exact = truth["f"][len(TIMES) + k](np.sqrt(f.grid.sq_norm))
        errors.append(float(np.sum(np.abs(f.values - exact)) * f.grid.cell_volume))
    assert errors[1] < errors[0] and errors[1] <= 0.1
    assert math.log(errors[0] / errors[1]) / math.log(16 / 12) >= 0.8


def test_scheme_moment_change_against_the_trajectory(s2_runs, s2_truth):
    # the change M_2(T) - M_2(0), M_l = int f (1 + |v|^2)^l, of the run
    # against the truth's on the same nodes; margins fixed before the first
    # run: the error falls from n = 12 to 16 and is at most half of the
    # truth's change at n = 16 (it reads -40.2% and -32.5%; l = 3 and 4 are
    # not asserted: they read -52.2%, -43.1% and -66.8%, -56.9%)
    def m2(f):
        return moments(f, (2.0,)).moments[2.0]

    truth = s2_truth[800]["f"]
    errors = []
    for k, n in enumerate((12, 16)):
        _, f, _ = s2_runs[n]
        exact = [DiscreteDistribution(f.grid, truth[i](np.sqrt(f.grid.sq_norm)))
                 for i in (TIMES.index(0.0), len(TIMES) + k)]
        errors.append(abs((m2(f) - m2(s2_state(n))) / (m2(exact[1]) - m2(exact[0])) - 1))
    assert errors[1] < errors[0] and errors[1] <= 0.5


# ---------------------------------------------------------------------------
# the paper's time-integrated bounds along exact radial trajectories


def normalized(profile):
    """r -> profile(beta r), with beta such that int f |v|^2 = 3 int f; the
    1-D solve then scales the mass to 1."""
    s = np.linspace(0.0, 20.0, 200_001)
    f = profile(s)
    beta = math.sqrt(np.trapezoid(s**4 * f, s) / (3 * np.trapezoid(s**2 * f, s)))
    return lambda r: profile(beta * np.asarray(r))


def shell_s1(r):
    """Table K's S1: a shell of radius 1 and width 0.3."""
    return np.exp(-((r - 1.0) ** 2) / 0.18)


@pytest.mark.parametrize("profile", [shell_s1, s2], ids=["shell", "S2"])
def test_time_integrated_bounds_hold(profile):
    # for normalized radial Coulomb data, with Hbar the largest absolute
    # entropy on [0, T] and the trapezoid rule on 81 samples of [0, 2]:
    #   int Fisher_w <= C_EDD e^(16 Hbar / 3) (2T + (128/3) int D)
    #   int ||<v>^-3 f||_3 <= (6/sqrt(pi)) rho T + (8/(3 sqrt(pi))) int Fisher_w
    times = np.linspace(0.0, 2.0, 81)
    out = radial_landau(normalized(profile), 6.0, 800, times)
    assert np.max(np.abs(out["mass"] - 1.0)) <= NORMALIZE_TOL
    assert np.max(np.abs(out["energy"] - 3.0)) <= 3 * NORMALIZE_TOL
    for T in (0.5, 1.0, 2.0):
        k = int(np.searchsorted(times, T)) + 1
        fisher, dissipation, l3w = (float(np.trapezoid(out[key][:k], times[:k]))
                                    for key in ("fisher_w", "D", "l3w"))
        hbar = float(np.max(out["abs_entropy"][:k]))
        edd = EDD_RADIAL_CONSTANT * math.exp(16 * hbar / 3) * (2 * T + 128 / 3 * dissipation)
        assert fisher <= edd
        assert l3w <= SOBOLEV_MASS_CONSTANT * T + SOBOLEV_FISHER_CONSTANT * fisher


# ---------------------------------------------------------------------------
# the Fisher information along exact radial trajectories

FISHER_TIMES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("profile", [shell_s1, s2], ids=["S1", "S2"])
def test_reference_fisher_information_does_not_increase(profile):
    # Guillen and Silvestre (arXiv 2311.09420): along smooth, positive,
    # rapidly decaying solutions of the 3-D space-homogeneous Landau
    # equation, Coulomb included, I(f) = int |grad f|^2 / f does not
    # increase.  S1 and S2 are smooth, positive and of Gaussian tails; the
    # 1-D truth is theirs up to its own error, |I_800 - I_1600|, which is
    # the slack each rise gets at its two ends.  That error must stay at
    # most 1e-4 of I, so the slack is small: it reads at most 2.3e-5 of I,
    # while S1 falls from 12.945 to 6.294 and S2 from 5.779 to 4.573
    coarse, fine = (radial_landau(profile, S2_R, m, FISHER_TIMES)["fisher"]
                    for m in (800, 1600))
    error = np.abs(fine - coarse)
    assert np.all(error <= 1e-4 * fine)
    assert np.all(np.diff(fine) <= error[:-1] + error[1:])
