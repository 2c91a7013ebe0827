"""Acceptance suite: one test per shipped guarantee, at stated tolerances."""

import math
import time

import numpy as np
import pytest

from landau.families import DistributionSpec, generate_distribution
from landau.functionals import (
    entropy_dissipation,
    gamma_floor,
    gamma_values,
    lambda0,
    moments,
    reconstruct_log_gradient_field,
)
from landau.grid import DiscreteDistribution, build_grid
from landau.inequalities import (
    check_edd_theorem,
    check_gamma_lower_bound,
    check_interpolation,
    check_sobolev,
    moment_condition,
)
from landau.kernels import CoulombPsi
from landau.solver import (
    SolverConfig,
    TestFunction,
    lp_energy_balance,
    moment_tracking,
    run,
    weak_form_rhs,
)

SPEC = CoulombPsi()

# Reference solver scenario: symmetric bimodal relaxation at 24 nodes/axis.
# The tight box keeps the thermal width well resolved (sigma/h ~ 2.7), which
# is what makes the dissipation functional track -dH/dt through mid-run.
RUN_HALF_WIDTH = 3.0
RUN_SEPARATION = 1.5
RUN_TEMPERATURE = 0.45
RUN_STEPS = 200
RUN_MID = 100


def spec_dist(grid, kind, params, normalize=True):
    return generate_distribution(
        DistributionSpec(kind, params, normalize=normalize), grid
    )


def mass_normalized(grid, kind, params):
    f = generate_distribution(DistributionSpec(kind, params), grid)
    return f.with_values(f.values / (float(np.sum(f.values)) * grid.cell_volume))


def random_positive(grid, rng):
    vals = rng.random(grid.size) * np.exp(-0.5 * grid.sq_norm)
    vals /= np.sum(vals) * grid.cell_volume
    return DiscreteDistribution(grid, vals)


RADIAL_FAMILIES = [
    ("maxwellian", {"temperature": 1.0}),
    ("radial_shell", {"radius": 2.0, "width": 0.5}),
    ("radial_heavy_tail", {"exponent": 4.0}),
    (
        "mixture",
        {
            "components": [
                {"kind": "maxwellian", "params": {"temperature": 0.6}},
                {"kind": "maxwellian", "params": {"temperature": 1.6}},
            ],
            "weights": [0.5, 0.5],
        },
    ),
    (
        "mixture",
        {
            "components": [
                {"kind": "maxwellian", "params": {"temperature": 1.0}},
                {"kind": "radial_shell", "params": {"radius": 1.5, "width": 0.6}},
            ],
            "weights": [0.7, 0.3],
        },
    ),
]

GENERATOR_FAMILIES = RADIAL_FAMILIES + [
    ("bimaxwellian", {"separation": 1.6, "temperature": 0.6}),
    ("anisotropic_gaussian", {"variances": [0.8, 1.0, 1.2]}),
]


@pytest.fixture(scope="module")
def reference_run():
    grid = build_grid(3, RUN_HALF_WIDTH, 24)
    f0 = mass_normalized(
        grid,
        "bimaxwellian",
        {"separation": RUN_SEPARATION, "temperature": RUN_TEMPERATURE},
    )
    cfg = SolverConfig(
        spec=SPEC,
        steps=RUN_STEPS,
        cadence=10,
        l_list=(1.0, 2.0),
        k_list=(1.0,),
        keep_snapshots=True,
    )
    t0 = time.time()
    series = run(f0, cfg)
    return series, time.time() - t0


def test_criterion_01_radial_dissipation_bound_with_slack():
    t0 = time.time()
    grid = build_grid(3, 6.0, 24)
    for kind, params in RADIAL_FAMILIES:
        rep = check_edd_theorem(spec_dist(grid, kind, params), SPEC)
        assert rep.holds, (kind, params)
        assert rep.slack >= 10.0, (kind, rep.slack)
    assert time.time() - t0 <= 300.0


def test_criterion_02_dissipation_dual_forms_agree():
    t0 = time.time()
    rng = np.random.default_rng(42)
    grid = build_grid(3, 4.0, 8)
    for _ in range(100):
        f = random_positive(grid, rng)
        d1 = entropy_dissipation(f, SPEC, form="projected")
        d2 = entropy_dissipation(f, SPEC, form="pairdiff")
        assert abs(d1 - d2) <= 1e-10 * abs(d2)
    assert time.time() - t0 <= 60.0


def test_criterion_03_dissipation_vanishes_at_equilibrium():
    grid = build_grid(3, 5.0, 16)
    maxw = spec_dist(grid, "maxwellian", {"temperature": 1.0})
    bimodal = spec_dist(
        grid, "bimaxwellian", {"separation": 0.2, "temperature": 0.99}
    )
    d_eq = entropy_dissipation(maxw, SPEC)
    d_perturbed = entropy_dissipation(bimodal, SPEC)
    assert d_eq <= 1e-3 * d_perturbed


def test_criterion_04_sobolev_explicit_constants():
    for n in (16, 24):
        grid = build_grid(3, 6.0, n)
        for kind, params in GENERATOR_FAMILIES:
            f = spec_dist(grid, kind, params)
            rep = check_sobolev(f, -3.0, variant="coulomb_explicit")
            assert rep.holds, (kind, n)
            assert "holds_display_weight" in rep.inputs


def test_criterion_05_gamma_floor_and_closed_form():
    grid = build_grid(3, 6.0, 24)
    for kind, params in (RADIAL_FAMILIES[0], RADIAL_FAMILIES[1]):
        f = spec_dist(grid, kind, params)
        for hbar in (6.0, 8.0):
            rep = check_gamma_lower_bound(f, hbar)
            assert rep.holds, (kind, hbar)
            assert rep.rhs >= gamma_floor(hbar)
    # closed form for the standard Gaussian: (1 + 2 lam)^(-13/2)
    maxw = spec_dist(grid, "maxwellian", {"temperature": 1.0})
    for lam in (0.01, 0.1, 0.5):
        got = gamma_values(maxw, lam)[1][0, 1]
        want = (1.0 + 2.0 * lam) ** (-6.5)
        assert got == pytest.approx(want, rel=5e-3), lam
    assert lambda0(6.0) > 0.0


def test_criterion_06_log_gradient_reconstruction_order():
    cases = [
        ("maxwellian", {"temperature": 1.0},
         lambda c: -c),
        ("anisotropic_gaussian", {"variances": [0.8, 1.0, 1.2]},
         lambda c: -c / np.array([0.8, 1.0, 1.2])[None, :]),
    ]
    for kind, params, exact in cases:
        errs = []
        for n in (12, 24):
            grid = build_grid(3, 6.0, n)
            f = spec_dist(grid, kind, params)
            field, mask = reconstruct_log_gradient_field(f)
            want = exact(grid.coords)
            core = (grid.sq_norm < 4.0) & mask
            scale = float(np.max(np.abs(want[core])))
            errs.append(
                float(np.max(np.abs((field - want)[core]))) / scale
            )
        assert errs[0] / errs[1] >= 3.5, (kind, errs)


def test_criterion_07_conservation_and_h_theorem(reference_run):
    series, elapsed = reference_run
    recs = series.records
    r0, rT = recs[0], recs[-1]
    total_clip = sum(r.clipped_mass for r in recs)
    assert abs(rT.mass - r0.mass) - total_clip <= 1e-12 * r0.mass
    p_scale = max(float(np.max(np.abs(r0.momentum))), math.sqrt(2 * r0.energy))
    assert float(np.max(np.abs(rT.momentum - r0.momentum))) <= 1e-3 * p_scale
    assert abs(rT.energy - r0.energy) <= 1e-3 * r0.energy
    H = [r.entropy for r in recs]
    assert max(np.diff(H)) <= 1e-8
    # mid-run entropy production matches the dissipation functional
    i = RUN_MID
    dhdt = (H[i + 1] - H[i - 1]) / (recs[i + 1].t - recs[i - 1].t)
    mid = min(
        (r for r in recs if not math.isnan(r.dissipation)),
        key=lambda r: abs(r.step - i),
    )
    assert abs(-dhdt - mid.dissipation) <= 0.10 * mid.dissipation
    assert elapsed <= 600.0


def test_criterion_08_weak_form_conservation():
    rng = np.random.default_rng(7)
    grid = build_grid(3, 3.0, 6)
    phis = [TestFunction("one"), TestFunction(("v", 0)),
            TestFunction(("v", 1)), TestFunction(("v", 2)),
            TestFunction("energy")]
    for _ in range(50):
        f = random_positive(grid, rng)
        for phi in phis:
            val, gross = weak_form_rhs(f, SPEC, phi, with_scale=True)
            assert abs(val) <= 1e-8 * max(gross, 1e-30)
        lhs = weak_form_rhs(f, SPEC, TestFunction("log_f"))
        d = entropy_dissipation(f, SPEC, form="pairdiff")
        assert abs(lhs + d) <= 1e-8 * abs(d)


def test_criterion_09_moment_propagation(reference_run):
    series, _ = reference_run
    rep = moment_tracking(series, 2.0)
    assert math.isfinite(rep["sup"])
    assert rep["polynomial_growth"] and rep["fit_degree"] <= 3
    assert moment_condition(-3.0, -3.0) is True
    g = -2.0 * math.sqrt(3.0)
    assert moment_condition(g, g) is False


def test_criterion_10_lp_energy_identity(reference_run):
    series, _ = reference_run
    snaps = series.snapshots
    times = np.array([t for t, _ in snaps])
    e2 = np.array(
        [0.5 * s.grid.cell_volume * float(np.sum(s.values**2)) for _, s in snaps]
    )
    fd = (e2[2:] - e2[:-2]) / (times[2:] - times[:-2])
    nets = np.array(
        [lp_energy_balance(s, SPEC, 1.0) for _, s in snaps[1:-1]]
    )
    active = np.abs(fd) >= 0.2 * np.max(np.abs(fd))
    rel = np.abs(nets[active] - fd[active]) / np.abs(fd[active])
    assert float(np.max(rel)) <= 0.05


def test_criterion_11_interpolation_suite():
    rng = np.random.default_rng(1234)
    grid = build_grid(3, 2.0, 6)
    for _ in range(100):
        f = DiscreteDistribution(grid, rng.random(grid.size))
        q1 = rng.uniform(1.0, 2.0)
        q2 = rng.uniform(2.5, 4.0)
        beta = rng.uniform(0.05, 0.95)
        rep = check_interpolation(
            f, q1, rng.uniform(-1.0, 2.0), q2, rng.uniform(-1.0, 2.0), beta
        )
        assert rep.holds
    # endpoints reduce to identities
    f = DiscreteDistribution(grid, rng.random(grid.size))
    for beta in (0.0, 1.0):
        rep = check_interpolation(f, 2.0, 1.0, 3.0, -0.5, beta)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-13)
