"""Flux-form solver: stability, conservation, consistency, weak forms."""

import math
import weakref

import numpy as np
import pytest

import landau.cli
import landau.kernels
import landau.solver

from landau.errors import ValidationError
from landau.families import DistributionSpec, generate_distribution
from landau.functionals import entropy_dissipation
from landau.grid import EPS_FLOOR, DiscreteDistribution, build_grid
from landau.kernels import CoulombPsi, PowerLawPsi, collision_coefficients
from landau.solver import (
    SolverConfig,
    TestFunction,
    assemble_operator,
    lp_energy_balance,
    moment_tracking,
    run,
    stability_dt,
    weak_form_rhs,
)
from oracles import nonparabolic_operator

SPEC = CoulombPsi()


def maxwellian(grid, temperature=1.0, mean=None):
    p = {"temperature": temperature}
    if mean is not None:
        p["mean"] = mean
    return generate_distribution(
        DistributionSpec("maxwellian", p, normalize=True), grid
    )


def bimodal(grid, separation=1.6, temperature=0.6):
    return generate_distribution(
        DistributionSpec(
            "bimaxwellian",
            {"separation": separation, "temperature": temperature},
            normalize=True,
        ),
        grid,
    )


def advance(f, dt, steps=1, scheme="euler"):
    """The state `steps` steps of size dt after f."""
    return run(f, SolverConfig(spec=SPEC, dt=dt, steps=steps, scheme=scheme)).final_state


def random_state(grid, rng):
    vals = rng.random(grid.size) * np.exp(
        -0.5 * np.sum(grid.coords**2, axis=1)
    )
    vals /= np.sum(vals) * grid.cell_volume
    return DiscreteDistribution(grid, vals)


class TestStability:
    def test_oversized_dt_rejected(self):
        grid = build_grid(3, 5.0, 10)
        f = maxwellian(grid)
        coeffs = collision_coefficients(f, SPEC)
        bound = stability_dt(coeffs, grid.h)
        with pytest.raises(ValidationError):
            advance(f, 10.0 * bound)
        # at the bound itself the step is accepted
        advance(f, bound)

    def test_bound_scales_with_h_squared(self):
        vals = []
        for n in (10, 20):
            grid = build_grid(3, 5.0, n)
            f = maxwellian(grid)
            coeffs = collision_coefficients(f, SPEC)
            vals.append(stability_dt(coeffs, grid.h))
        # trace of the diffusion matrix is h-independent up to quadrature
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.3)


class TestTimeOrder:
    def test_heun_second_order_euler_first(self):
        # self-convergence to T = 2 x the stability bound against a
        # 64-substep Heun run: halving dt divides the L^1 error by about 4
        # for Heun and by about 2 for Euler
        grid = build_grid(3, 4.0, 10)
        f0 = bimodal(grid)
        T = 2.0 * stability_dt(collision_coefficients(f0, SPEC), grid.h)

        def solve(scheme, substeps):
            return advance(f0, T / substeps, substeps, scheme).values

        ref = solve("heun", 64)
        for scheme, lo, hi in (("heun", 3.0, math.inf), ("euler", 1.5, 2.5)):
            errs = [grid.cell_volume * float(np.sum(np.abs(solve(scheme, m) - ref)))
                    for m in (4, 8, 16)]
            for coarse, fine in zip(errs, errs[1:]):
                assert lo < coarse / fine < hi, (scheme, errs)


class TestConservation:
    def test_mass_exact_per_step(self):
        grid = build_grid(3, 5.0, 12)
        f = bimodal(grid)
        coeffs = collision_coefficients(f, SPEC)
        dt = stability_dt(coeffs, grid.h)
        records = run(f, SolverConfig(spec=SPEC, dt=dt, steps=5)).records
        for rec in records[1:]:
            assert rec.mass == pytest.approx(records[0].mass, abs=1e-13)

    def test_momentum_energy_projected_out(self):
        grid = build_grid(3, 5.0, 12)
        f = bimodal(grid)
        Q = assemble_operator(f, SPEC)
        cv = grid.cell_volume
        for d in range(3):
            assert abs(cv * float(np.sum(Q * grid.coords[:, d]))) < 1e-12
        en_rate = 0.5 * cv * float(np.sum(Q * np.sum(grid.coords**2, axis=1)))
        assert abs(en_rate) < 1e-12


class TestConsistency:
    def test_flux_form_matches_nonparabolic_form(self):
        # the two discretizations converge to the same operator on a
        # far-from-equilibrium state: their integrated difference shrinks
        # under refinement
        errs = []
        for n in (12, 32):
            grid = build_grid(3, 5.0, n)
            f = bimodal(grid)
            q1 = assemble_operator(f, SPEC, conservative=False)
            q2 = nonparabolic_operator(f, SPEC)
            cv = grid.cell_volume
            errs.append(
                cv * float(np.sum(np.abs(q1 - q2)))
                / (cv * float(np.sum(np.abs(q2))))
            )
        assert errs[1] < 0.5 * errs[0]

    def test_nonparabolic_coulomb_cc_is_pointwise(self):
        # for the Coulomb kernel c*f = -8 pi f, so Q - sum_ij A_ij d2_ij f = 8 pi f^2
        grid = build_grid(3, 3.0, 8)
        f = maxwellian(grid)
        A = collision_coefficients(f, SPEC).reshape(grid.shape + (3, 3))
        grad = np.gradient(f.reshaped(), grid.h, edge_order=2)
        diffusion = np.zeros(grid.shape)
        for i in range(3):
            second = np.gradient(grad[i], grid.h, edge_order=2)
            for j in range(3):
                diffusion += A[..., i, j] * second[j]
        rest = nonparabolic_operator(f, SPEC) - diffusion.ravel()
        np.testing.assert_allclose(
            rest, 8.0 * math.pi * f.values**2,
            rtol=1e-12, atol=1e-13 * float(np.max(np.abs(diffusion))),
        )

    def test_nonparabolic_form_needs_coulomb(self):
        f = maxwellian(build_grid(3, 3.0, 6))
        with pytest.raises(ValidationError):
            nonparabolic_operator(f, PowerLawPsi(-2.5))

    @staticmethod
    def truncated_ball():
        # a state with exactly-empty cells outside a ball
        grid = build_grid(3, 5.0, 12)
        base = maxwellian(grid, temperature=0.4)
        vals = np.where(
            np.sum(grid.coords**2, axis=1) < 4.0, base.values, 0.0
        )
        vals /= np.sum(vals) * grid.cell_volume
        return DiscreteDistribution(grid, vals)

    def test_limited_step_preserves_positivity(self):
        f = self.truncated_ball()
        grid = f.grid
        coeffs = collision_coefficients(f, SPEC)
        dt = stability_dt(coeffs, grid.h)

        def undershoot(q):
            new = f.values + dt * q
            return float(-np.sum(np.minimum(new, 0.0))) / float(np.sum(f.values))

        raw = undershoot(assemble_operator(f, SPEC, coeffs=coeffs))
        limited = undershoot(assemble_operator(f, SPEC, coeffs=coeffs, dt=dt))
        assert raw > 1e-9  # the unlimited update does overdraw empty cells
        assert limited < 1e-3 * raw

    def test_clipped_fraction_is_never_negative_zero(self):
        # a step that clips nothing reports +0.0; a step ten times the
        # stable one still overdraws some empty cells, and reports what it
        # clips
        f = self.truncated_ball()
        fields = landau.solver._face_fluxes(f, SPEC)
        dt = stability_dt(fields.A, f.grid.h)
        for scheme in ("euler", "heun"):
            clipped = landau.solver._advance(f, SPEC, dt, scheme, fields)[1]
            assert math.copysign(1.0, clipped) == 1.0 and clipped == 0.0
        assert landau.solver._advance(f, SPEC, 10 * dt, "euler", fields)[1] > 0

    def test_equilibrium_residual_second_order(self):
        errs = []
        for n in (16, 32):
            grid = build_grid(3, 5.0, n)
            f = maxwellian(grid)
            q = assemble_operator(f, SPEC)
            errs.append(grid.cell_volume * float(np.sum(np.abs(q))))
        assert errs[0] / errs[1] > 2.4


class TestWeakForm:
    def test_conserved_test_functions_vanish(self):
        rng = np.random.default_rng(3)
        grid = build_grid(3, 3.0, 6)
        phis = [TestFunction("one"), TestFunction(("v", 0)),
                TestFunction(("v", 2)), TestFunction("energy")]
        for _ in range(50):
            f = random_state(grid, rng)
            vals = [weak_form_rhs(f, SPEC, p, with_scale=True) for p in phis]
            for v, gross in vals:
                assert abs(v) <= 1e-8 * max(gross, 1e-30)

    def test_log_f_gives_minus_dissipation(self):
        # log f is tested through the pair-difference form by definition;
        # the projected engine form is computed independently of it
        rng = np.random.default_rng(11)
        grid = build_grid(3, 3.0, 6)
        f = random_state(grid, rng)
        lhs = weak_form_rhs(f, SPEC, TestFunction("log_f"))
        d = entropy_dissipation(f, SPEC, form="projected")
        assert lhs == pytest.approx(-d, rel=1e-10)

    @pytest.mark.parametrize("kind", ["one", "energy"])
    def test_derivatives_match_finite_differences(self, kind):
        derivatives = TestFunction(kind)._derivatives
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        _, g, hess = derivatives(pts)
        eps = 1e-6
        for d in range(3):
            e = np.zeros(3)
            e[d] = eps
            (v_hi, g_hi, _), (v_lo, g_lo, _) = derivatives(pts + e), derivatives(pts - e)
            fd_g = (v_hi - v_lo) / (2 * eps)
            assert np.max(np.abs(fd_g - g[:, d])) < 1e-6
            fd_h = (g_hi - g_lo) / (2 * eps)
            assert np.max(np.abs(fd_h - hess[:, :, d])) < 1e-5

    @pytest.mark.parametrize("kind", [
        "v", ("v", 0, 1), ("cutoff_power", 1.0), "two", ("two", 1), ()])
    def test_kind_and_arity_validated(self, kind):
        with pytest.raises(ValidationError):
            TestFunction(kind)

    @pytest.mark.parametrize("axis", [1.7, True, -1, "0", None])
    def test_v_axis_must_be_an_integer_at_least_zero(self, axis):
        with pytest.raises(ValidationError):
            TestFunction(("v", axis))

    def test_v_axis_beyond_the_grid_raises(self):
        coords = np.zeros((2, 3))
        with pytest.raises(ValidationError):
            TestFunction(("v", 5))._derivatives(coords)
        assert np.array_equal(TestFunction(("v", 2))._derivatives(coords)[1], [[0, 0, 1]] * 2)


class TestLpBalance:
    def test_dissipation_nonnegative(self):
        rng = np.random.default_rng(7)
        grid = build_grid(3, 4.0, 10)
        f = random_state(grid, rng)
        for k in (1.0, 2.0):
            diss, drift, net = lp_energy_balance(f, SPEC, k)
            assert diss >= 0.0
            assert net == pytest.approx(drift - diss)

    def test_near_equilibrium_net_small(self):
        # net reports the exact discrete rate, which at coarse resolution
        # includes genuine settling toward the scheme's fixed point; keep
        # the thermal width at >= 2 cells so that residual stays small
        grid = build_grid(3, 3.5, 16)
        f = maxwellian(grid)
        diss, drift, net = lp_energy_balance(f, SPEC, 1.0)
        assert abs(net) < 0.05 * max(diss, abs(drift))

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_net_is_the_rate_of_the_scheme(self, k):
        # d/dt int f^(k+1)/(k+1) = int f^k Q(f), with Q the conservative scheme
        grid = build_grid(3, 4.0, 8)
        f = random_state(grid, np.random.default_rng(17))
        vals = f.values.copy()
        vals[::7] = EPS_FLOOR * 0.5
        vals[3::11] = 0.0
        for state in (f, DiscreteDistribution(grid, vals)):
            fq = state.values**k * assemble_operator(state, SPEC)
            net = lp_energy_balance(state, SPEC, k)[2]
            expected = grid.cell_volume * float(np.sum(fq))
            assert abs(net - expected) <= 1e-12 * grid.cell_volume * float(np.sum(np.abs(fq)))

    def test_k_validation(self):
        grid = build_grid(3, 4.0, 6)
        with pytest.raises(ValidationError):
            lp_energy_balance(maxwellian(grid), SPEC, 0.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_k_must_be_finite(self, k):
        grid = build_grid(3, 4.0, 6)
        with pytest.raises(ValidationError):
            lp_energy_balance(maxwellian(grid), SPEC, k)


@pytest.fixture(scope="module")
def series():
    grid = build_grid(3, 5.0, 16)
    f0 = bimodal(grid)
    cfg = SolverConfig(spec=SPEC, steps=40, l_list=(0.0, 1.0, 2.0),
                       keep_snapshots=True)
    return run(f0, cfg)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -1e-3}, {"dt": math.nan}, {"dt": "abc"}, {"dt": True},
        {"steps": 0}, {"steps": 2.5}, {"steps": "x"},
        {"cadence": -1}, {"cadence": 1.5}, {"scheme": "rk4"},
        {"dt": "1e-4"}, {"l_list": "12"}, {"l_list": [math.nan]}, {"l_list": 2.0},
        {"l_list": [True]}, {"k_list": [0]}, {"k_list": [-1.0]}, {"k_list": [math.inf]},
        {"k_list": ["1"]}, {"gamma1": math.nan}, {"gamma1": "-3"}, {"gamma1": False},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(spec=SPEC, **kwargs)

    def test_lists_stored_as_floats(self):
        cfg = SolverConfig(spec=SPEC, l_list=[1, 2.5], k_list=(2,), gamma1=-3)
        assert cfg.l_list == (1.0, 2.5) and cfg.k_list == (2.0,)
        assert all(type(x) is float for x in cfg.l_list + cfg.k_list)
        assert type(cfg.gamma1) is float and cfg.gamma1 == -3.0

    def test_defaults_resolved_in_place(self):
        cfg = SolverConfig(spec=PowerLawPsi(-2.0), steps=100)
        assert cfg.cadence == 5 and cfg.gamma1 == -2.0
        assert SolverConfig(spec=SPEC, steps=7).cadence == 1

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, "abc", True])
    def test_step_rejects_bad_dt(self, dt):
        with pytest.raises(ValidationError, match="finite number > 0"):
            SolverConfig(spec=SPEC, dt=dt)

    def test_step_auto_is_the_first_run_step(self):
        f = maxwellian(build_grid(3, 4.0, 8))
        first = run(f, SolverConfig(spec=SPEC, steps=1)).records[1]
        assert first.t == stability_dt(collision_coefficients(f, SPEC), f.grid.h)

    def test_zero_mass_has_no_auto_step(self):
        # max tr A = 0 bounds no step; an infinite one would make 0 * inf = NaN
        zero = DiscreteDistribution(build_grid(3, 4.0, 8), np.zeros(8**3))
        with pytest.raises(ValidationError, match="'auto'"):
            run(zero, SolverConfig(spec=SPEC, steps=2))


class TestRun:

    def test_entropy_monotone(self, series):
        H = [r.entropy for r in series.records]
        assert max(np.diff(H)) <= 1e-8

    def test_mass_accounting(self, series):
        r0, rT = series.records[0], series.records[-1]
        total_clip = sum(r.clipped_mass for r in series.records)
        assert abs(rT.mass - r0.mass) <= total_clip + 1e-12

    def test_snapshots_recorded(self, series):
        assert len(series.snapshots) >= 3
        t0, s0 = series.snapshots[0]
        assert t0 == 0.0
        assert s0.grid.size == 16**3

    def test_moment_tracking(self, series):
        rep0 = moment_tracking(series, 0.0)
        assert rep0["sup"] == pytest.approx(rep0["initial"], rel=1e-10)
        rep2 = moment_tracking(series, 2.0)
        assert rep2["polynomial_growth"]
        with pytest.raises(ValidationError):
            moment_tracking(series, 9.0)

    def test_dissipation_integral_positive(self, series):
        assert series.dissipation_integral > 0.0
        assert math.isfinite(series.l3w_integral)

    def test_record_contract(self):
        # heavy samples at every cadence step and the last; light records
        # carry no heavy value, and the time integrals are trapezoid sums
        # over the heavy records in step order
        f0 = random_state(build_grid(3, 3.0, 8), np.random.default_rng(31))
        cfg = SolverConfig(spec=SPEC, steps=7, cadence=3, l_list=(0.0, 2.0), k_list=(1.0, 2.0))
        series = run(f0, cfg)
        assert [r.step for r in series.records] == list(range(8))
        heavy_steps = (0, 3, 6, 7)
        heavy = [r for r in series.records if r.step in heavy_steps]
        for rec in heavy:
            assert list(rec.moments_l) == list(cfg.l_list)
            assert list(rec.lp_net) == list(cfg.k_list)
            values = [rec.dissipation, rec.fisher_w, rec.l3w_norm, *rec.lp_net.values()]
            assert all(map(math.isfinite, values))
        header, *rows = landau.cli._diagnostics_rows(series, cfg)
        heavy_columns = [c for c in header if c in ("D", "fisher_w", "l3w_norm")
                         or c.startswith(("M_", "lp_net_"))]
        assert len(heavy_columns) == 7
        for rec, row in zip(series.records, rows):
            read = [row[header.index(c)] for c in heavy_columns]
            if rec.step in heavy_steps:
                assert all(math.isfinite(float(x)) for x in read)
            else:
                assert (rec.moments_l, rec.lp_net) == ({}, {})
                assert read == ["nan"] * 7
        d_int = l3_int = 0.0
        for a, b in zip(heavy, heavy[1:]):
            d_int += 0.5 * (a.dissipation + b.dissipation) * (b.t - a.t)
            l3_int += 0.5 * (a.l3w_norm + b.l3w_norm) * (b.t - a.t)
        assert (series.dissipation_integral, series.l3w_integral) == (d_int, l3_int)


class TestStateFields:
    """A run makes one coefficient field per state and hands it to the step
    from the state and to the heavy diagnostics at it."""

    K_LIST = (1.0, 2.0)

    @staticmethod
    def relax(f0, k_list=K_LIST):
        cfg = SolverConfig(spec=SPEC, steps=4, cadence=2, k_list=k_list,
                           keep_snapshots=True)
        return run(f0, cfg)

    @staticmethod
    def assert_diagnostics_reproduced(series, k_list):
        heavy = [r for r in series.records if not math.isnan(r.dissipation)]
        assert [r.t for r in heavy] == [t for t, _ in series.snapshots]
        for rec, (_, s) in zip(heavy, series.snapshots):
            assert rec.dissipation == entropy_dissipation(s, SPEC)
            for k in k_list:
                assert rec.lp_net[k] == lp_energy_balance(s, SPEC, k)[2]

    def test_diagnostics_equal_standalone_calls(self):
        f0 = random_state(build_grid(3, 3.0, 8), np.random.default_rng(17))
        series = self.relax(f0)
        assert all(np.all(s.values > EPS_FLOOR) for _, s in series.snapshots)
        self.assert_diagnostics_reproduced(series, self.K_LIST)

    def test_floored_nodes_fall_back_to_a_star_F(self):
        # D convolves the masked F, not f; at this scale F leaves out a
        # share of the mass, so a*F is far from A = a*f
        grid = build_grid(3, 3.0, 8)
        f0 = DiscreteDistribution(
            grid, EPS_FLOOR * np.random.default_rng(19).uniform(0.5, 1.5, grid.size))
        series = self.relax(f0)
        for _, s in series.snapshots:
            assert 0 < np.count_nonzero(s.values <= EPS_FLOOR) < grid.size
        self.assert_diagnostics_reproduced(series, self.K_LIST)

    def test_heavy_diagnostics_leave_the_fields_untouched(self):
        # the step after a heavy sample reuses the fields the diagnostics read
        f = random_state(build_grid(3, 3.0, 8), np.random.default_rng(29))
        fields = landau.solver._face_fluxes(f, SPEC)
        A, fluxes = fields.A.copy(), [flux.copy() for flux in fields.fluxes]
        for k in (1.0, 2.0):
            assert lp_energy_balance(f, SPEC, k, fields) == lp_energy_balance(f, SPEC, k)
        assert np.array_equal(fields.A, A)
        assert all(map(np.array_equal, fields.fluxes, fluxes))

    def test_one_state_fields_alive(self, monkeypatch):
        # a run drops each state's fields before it makes the next state's
        made = []
        face_fluxes = landau.solver._face_fluxes

        def tracked(f, spec, coeffs=None):
            assert all(ref() is None for ref in made)
            fields = face_fluxes(f, spec, coeffs)
            made.append(weakref.ref(fields.A))
            return fields

        monkeypatch.setattr(landau.solver, "_face_fluxes", tracked)
        f0 = random_state(build_grid(3, 3.0, 16), np.random.default_rng(23))
        series = self.relax(f0)
        assert len(made) == series.records[-1].step + 1

    @pytest.mark.parametrize("k_list", [(1.0,), (1.0, 2.0)])
    def test_transform_budget(self, monkeypatch, k_list):
        calls = []
        for name in ("_forward", "_quadrature"):
            def counted(*args, _fn=getattr(landau.kernels, name), **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(landau.kernels, name, counted)
        monkeypatch.setattr(landau.kernels, "_LAYOUT", {})  # the tables start cold
        f0 = random_state(build_grid(3, 3.0, 8), np.random.default_rng(17))
        series = self.relax(f0, k_list)
        steps = series.records[-1].step
        heavy = len(series.snapshots)
        # per state A (1 + 6) and the drift (3 + 3); per heavy sample the
        # three forward transforms of D's Parseval drift term; the cold
        # build of the tables makes none
        assert len(calls) == (steps + 1) * 13 + heavy * 3
