"""The program's A, D and weighted Fisher information against the continuum
truth of a radial state under the 3-D Coulomb kernel (`oracles.radial_coulomb`).

The state is the shell f = exp(-(r - 2)^2 / (2 * 0.5^2)), not normalized, on
[-6, 6]^3.  Its 1-D D is 2292.944953543; the 1-D integrals agree to 2e-10
between (R, points) = (12, 2e5) and (14, 4e5).
"""

import math

import numpy as np
import pytest

from landau.functionals import entropy_dissipation, weighted_fisher
from landau.grid import DiscreteDistribution, build_grid
from landau.kernels import CoulombPsi, collision_coefficients
from oracles import radial_coulomb

RESOLUTIONS = (16, 24, 32)


def shell(r):
    return np.exp(-((r - 2.0) ** 2) / (2 * 0.5**2))


def shell_derivative(r):
    return -(r - 2.0) / 0.5**2 * shell(r)


@pytest.fixture(scope="module")
def errors():
    """{quantity: [error at each n of RESOLUTIONS]}: A as max|A - A_true| /
    max|A_true| over |v| < 4.5, D and Fisher_w relative to the truth."""
    out = {"A": [], "D": [], "fisher_w": []}
    spec = CoulombPsi()
    for n in RESOLUTIONS:
        grid = build_grid(3, 6.0, n)
        r = np.sqrt(grid.sq_norm)
        truth = radial_coulomb(shell, shell_derivative, r)
        along, across = truth["A"]
        u = grid.coords / r[:, None]
        uu = u[:, :, None] * u[:, None, :]
        exact = along[:, None, None] * uu + across[:, None, None] * (np.eye(3) - uu)
        f = DiscreteDistribution(grid, shell(r))
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
    # 1.5 fixed in advance (D reads -17.96%, -8.42%, -4.85%: order 1.92)
    e16, e24, e32 = (abs(e) for e in errors[quantity])
    assert e16 > e24 > e32
    assert math.log(e24 / e32) / math.log(32 / 24) >= 1.5


def test_maxwellian_dissipation_vanishes():
    # D's two terms cancel for the Maxwellian, to the quadrature's accuracy
    truth = radial_coulomb(lambda r: np.exp(-r * r / 2), lambda r: -r * np.exp(-r * r / 2),
                           np.zeros(1))
    assert abs(truth["D"]) <= 1e-8 * truth["D_first"]
