"""Velocity grid, distributions, quadrature, gradients, and normalization."""

import json
import math
import warnings

import numpy as np
import pytest

from landau.errors import DegeneracyError, NumericError, ValidationError
from landau.functionals import moments
from landau.grid import (
    DiscreteDistribution,
    NormalizationTransform,
    VelocityGrid,
    build_grid,
    gradient_sqrt,
    grad_log,
    integrate,
    normalize,
    raw_moments,
)
from oracles import moments_by_integrate, multilinear_corners


def maxwellian(grid, temperature=1.0, mean=None):
    mean = np.zeros(grid.dim) if mean is None else np.asarray(mean, dtype=float)
    d2 = np.sum((grid.coords - mean) ** 2, axis=1)
    norm = (2.0 * math.pi * temperature) ** (grid.dim / 2.0)
    return DiscreteDistribution(grid, np.exp(-0.5 * d2 / temperature) / norm)


class TestBuildGrid:
    def test_cell_centered_coordinates(self):
        g = build_grid(2, 2.0, 4)
        assert g.h == pytest.approx(1.0)
        np.testing.assert_allclose(g.axis, [-1.5, -0.5, 0.5, 1.5])
        assert g.coords.shape == (16, 2)
        # C-order flat indexing: last axis varies fastest
        np.testing.assert_allclose(g.coords[1], [-1.5, -0.5])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            build_grid(1, 2.0, 4)
        with pytest.raises(ValidationError):
            build_grid(3, -1.0, 4)
        with pytest.raises(ValidationError):
            build_grid(3, 2.0, 3)

    @pytest.mark.parametrize("args", [
        (3, 6.0, 8.7), (3, 6.0, 8.0), (3.0, 6.0, 8), (True, 6.0, 8), (3, 6.0, True),
        ("3", 6.0, 8), (3, 6.0, "8"), (3, "6", 8), (3, math.nan, 8), (3, math.inf, 8),
        (3, True, 8),
    ], ids=["n=8.7", "n=8.0", "dim=3.0", "dim=True", "n=True", "dim='3'", "n='8'",
            "L='6'", "L=nan", "L=inf", "L=True"])
    def test_sizes_read_by_the_config_rule(self, args):
        # a library caller gets the config rule too: no truncation, no
        # parsing, no bool, a finite half-width
        with pytest.raises(ValidationError):
            build_grid(*args)

    def test_half_width_keeps_integrals_finite(self):
        # h^N must be a normal float > 0 and the largest node |v|^2 finite:
        # h^3 overflows, h^3 underflows to 0, and in 2-D |v|^2 overflows
        # while h^2 does not
        for args in ((3, 1e300, 8), (3, 1e-300, 8), (2, 1.3e154, 4)):
            with pytest.raises(ValidationError, match="half_width"):
                build_grid(*args)
        g = build_grid(3, 1e-100, 8)
        assert g.cell_volume == g.h**3 > 0 and np.all(np.isfinite(g.sq_norm))

    def test_integer_half_width_is_a_float(self):
        g = build_grid(3, 6, 8)
        assert (g.dim, g.half_width, g.n) == (3, 6.0, 8)
        assert type(g.half_width) is float

    def test_memory_budget_guard(self):
        from landau.errors import ResourceError

        with pytest.raises(ResourceError):
            build_grid(3, 2.0, 4096)

    def test_coordinates_are_bounded_before_they_are_built(self, monkeypatch, traced_peak):
        # at a budget of 4^6 nodes, 4^6 nodes in 6-D pass the node count but
        # their coordinates would take twice those of 16^3; the refusal comes
        # before the meshgrid, so it allocates less than one coordinate column
        from landau import grid as grid_module
        from landau.errors import ResourceError

        monkeypatch.setattr(grid_module, "DEFAULT_MAX_NODES", 4**6)

        def refused():
            with pytest.raises(ResourceError, match="take 196608 bytes, over the 98304 bytes"):
                build_grid(6, 1.0, 4)

        assert traced_peak(refused) < 4**6 * 8
        assert build_grid(3, 1.0, 16).coords.nbytes == 98304


class TestDiscreteDistribution:
    def test_rejects_negative_and_nonfinite(self):
        g = build_grid(2, 1.0, 4)
        with pytest.raises(ValidationError):
            DiscreteDistribution(g, np.full(16, -1.0))
        with pytest.raises(NumericError):
            DiscreteDistribution(g, np.full(16, math.nan))

    def test_json_round_trip(self, tmp_path):
        g = build_grid(2, 1.5, 6)
        f = maxwellian(g)
        path = tmp_path / "f.json"
        f.save(path)
        back = DiscreteDistribution.load(path)
        assert back.grid.same_layout(g)
        np.testing.assert_array_equal(back.values, f.values)

    def test_load_rejects_negative_values(self, tmp_path):
        path = tmp_path / "bad.json"
        obj = {"dim": 2, "half_width": 1.0, "nodes_per_axis": 4, "values": [0.0] * 16}
        obj["values"][3] = -0.5
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            DiscreteDistribution.load(path)

    @pytest.mark.parametrize("change", [
        {"nodes_per_axis": 4.9},
        {"nodes_per_axis": "4"},
        {"dim": 2.0},
        {"half_width": "1"},
        {"half_width": math.inf},
    ])
    def test_load_is_strict(self, tmp_path, change):
        # grid sizes are never truncated or parsed from strings
        obj = {"dim": 2, "half_width": 1.0, "nodes_per_axis": 4, "values": [0.0] * 16}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**obj, **change}))
        with pytest.raises(ValidationError):
            DiscreteDistribution.load(path)

    def test_load_needs_an_object_with_every_key(self):
        for obj in [[1.0] * 16, {"dim": 2, "half_width": 1.0, "values": [0.0] * 16}]:
            with pytest.raises(ValidationError):
                DiscreteDistribution.from_json_dict(obj)


class TestIntegrate:
    def test_gaussian_mass_close_to_one(self):
        g = build_grid(3, 6.0, 16)
        f = maxwellian(g)
        assert integrate(f) == pytest.approx(1.0, abs=5e-4)

    def test_zero_distribution(self):
        g = build_grid(2, 1.0, 4)
        f = DiscreteDistribution(g, np.zeros(16))
        assert integrate(f) == 0.0

    def test_odd_weight_on_symmetric_f_vanishes(self):
        g = build_grid(3, 4.0, 12)
        f = maxwellian(g)
        val = integrate(f, weight=g.coords[:, 0])
        assert abs(val) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = build_grid(2, 2.0, 8)
        fa = DiscreteDistribution(g, rng.random(g.size))
        fb = DiscreteDistribution(g, rng.random(g.size))
        w = rng.standard_normal(g.size)
        lhs = integrate(
            DiscreteDistribution(g, 2.0 * fa.values + 3.0 * fb.values), weight=w
        )
        rhs = 2.0 * integrate(fa, weight=w) + 3.0 * integrate(fb, weight=w)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_nonfinite_weight_on_support_raises(self):
        g = build_grid(2, 1.0, 4)
        f = DiscreteDistribution(g, np.ones(16))
        w = np.ones(16)
        w[0] = math.inf
        with pytest.raises(NumericError):
            integrate(f, weight=w)

    def test_overflowing_sum_raises_without_a_warning(self):
        # every product f w of M_4 is finite on this state; their sum is not
        g = build_grid(3, 6.0, 8)
        f = DiscreteDistribution(g, np.full(g.size, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                moments(f, (4.0,))


class TestGradientSqrt:
    def test_constant_function_zero_in_interior(self):
        g = build_grid(2, 2.0, 8)
        f = DiscreteDistribution(g, np.ones(g.size))
        grad = gradient_sqrt(f)
        interior = np.all(np.abs(g.coords) < g.half_width - g.h, axis=1)
        assert np.max(np.abs(grad[interior])) == 0.0

    def test_single_cell_locality(self):
        g = build_grid(2, 2.0, 8)
        vals = np.zeros(g.size)
        vals[g.size // 2 + 3] = 1.0
        grad = gradient_sqrt(DiscreteDistribution(g, vals))
        touched = np.flatnonzero(np.any(grad != 0.0, axis=1))
        # only the cell itself and its axis neighbors can respond
        idx = np.unravel_index(g.size // 2 + 3, g.shape)
        expect = set()
        for d in range(2):
            for off in (-1, 0, 1):
                j = list(idx)
                j[d] += off
                if 0 <= j[d] < g.n:
                    expect.add(np.ravel_multi_index(j, g.shape))
        assert set(touched) <= expect

    def test_maxwellian_analytic_gradient(self):
        g = build_grid(3, 5.0, 24)
        f = maxwellian(g)
        grad = gradient_sqrt(f)
        exact = -0.5 * g.coords * np.sqrt(f.values)[:, None]
        # compare away from the outer layer where tails are truncated
        interior = g.sq_norm < 9.0
        # central differences: error ~ h^2 |d3 sqrt(M)|/6 ~ 3e-3 at h = 0.42
        err = np.max(np.abs(grad[interior] - exact[interior]))
        assert err < 5e-3

    def test_second_order_in_weighted_norm(self):
        errs = []
        for n in (16, 32):
            g = build_grid(3, 4.0, n)
            f = maxwellian(g)
            grad = gradient_sqrt(f)
            exact = -0.5 * g.coords * np.sqrt(f.values)[:, None]
            w = (1.0 + g.sq_norm) ** -1.5
            err2 = g.cell_volume * np.sum(w * np.sum((grad - exact) ** 2, axis=1))
            errs.append(math.sqrt(err2))
        assert errs[0] / errs[1] > 3.5


class TestGradLog:
    def test_gaussian_log_gradient(self):
        g = build_grid(3, 5.0, 20)
        f = maxwellian(g)
        xi, mask = grad_log(f)
        interior = mask & (g.sq_norm < 4.0)
        err = np.max(np.abs(xi[interior] + g.coords[interior]))
        assert err < 5e-2

    def test_floored_corner_changes_only_its_stencils(self):
        # log f is quadratic, so the `gradient` stencils are exact on
        # it; a floored corner may change only the nodes whose stencil holds
        # it: the corner and its three neighbours
        g = build_grid(3, 4.0, 16)
        vals = np.exp(-0.5 * g.sq_norm)
        vals[0] = 0.0
        xi, mask = grad_log(DiscreteDistribution(g, vals))
        far = mask & (np.linalg.norm(g.coords - g.coords[0], axis=1) > 1.1 * g.h)
        assert np.count_nonzero(mask & ~far) == 3
        assert np.max(np.abs(xi[far] + g.coords[far])) <= 1e-12
        assert not np.any(xi[~mask])


class TestNormalize:
    def test_already_normalized_is_identity(self):
        g = build_grid(3, 6.0, 20)
        f = maxwellian(g)
        out, tr = normalize(f)
        # fixed point up to the normalization tolerance
        assert tr.amplitude == pytest.approx(1.0, abs=5e-3)
        assert tr.dilation == pytest.approx(1.0, abs=5e-3)
        assert np.max(np.abs(tr.shift)) < 5e-3
        assert integrate(out) == pytest.approx(1.0, abs=1e-3)

    def test_exact_state_is_returned_unchanged(self):
        # at L = 8 the unit Maxwellian's raw moments are exact to 5e-12, so
        # the first transform is the identity and nothing is resampled
        f = maxwellian(build_grid(3, 8.0, 20))
        out, tr = normalize(f)
        assert tr.is_identity
        assert np.array_equal(out.values, f.values)

    def test_shift_recovered(self):
        g = build_grid(3, 6.0, 24)
        u = np.array([0.4, -0.2, 0.1])
        f = maxwellian(g, mean=u)
        out, tr = normalize(f)
        np.testing.assert_allclose(tr.shift, u, atol=5e-3)
        mom = integrate(out, weight=g.coords[:, 0])
        assert abs(mom) <= 1e-3

    def test_outputs_within_tolerance_for_families(self):
        from landau.families import DistributionSpec, generate_distribution

        g = build_grid(3, 6.0, 16)
        specs = [
            DistributionSpec("maxwellian", {"temperature": 1.3}),
            DistributionSpec("bimaxwellian", {"separation": 1.0, "temperature": 1.0}),
            DistributionSpec("radial_shell", {"radius": 2.0, "width": 0.6}),
        ]
        for spec in specs:
            f = generate_distribution(spec, g)
            out, _ = normalize(f)
            mass = integrate(out)
            mom = integrate(out, weight=g.coords[:, 0])
            en = integrate(out, weight=g.sq_norm)
            assert abs(mass - 1.0) <= 1e-3
            assert abs(mom) <= 1e-3
            assert abs(en - 3.0) <= 3e-3

    def test_zero_mass_raises(self):
        g = build_grid(2, 1.0, 4)
        with pytest.raises(ValidationError):
            normalize(DiscreteDistribution(g, np.zeros(16)))
        with pytest.raises(ValidationError):
            raw_moments(DiscreteDistribution(g, np.zeros(16)))

    @pytest.mark.parametrize("dim, n", [(2, 12), (3, 10), (4, 6)])
    def test_moments_from_marginals_match_integrate(self, dim, n):
        rng = np.random.default_rng(dim)
        g = build_grid(dim, 4.0, n)
        for mean in (np.zeros(dim), rng.uniform(-1.0, 1.0, dim)):
            f = maxwellian(g, temperature=0.8, mean=mean)
            f = f.with_values(f.values * (0.5 + rng.random(g.size)))
            rho, u, temp = raw_moments(f)
            ref_rho, ref_u, ref_temp = moments_by_integrate(f)
            assert abs(rho - ref_rho) <= 1e-13 * ref_rho
            # the mean is relative to the velocity scale, not to itself
            assert np.max(np.abs(u - ref_u)) <= 1e-13 * max(1.0, np.max(np.abs(ref_u)))
            assert abs(temp - ref_temp) <= 1e-13 * ref_temp

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_verify_families_normalize_as_with_corner_forms(self, n, monkeypatch):
        # the separable interpolation and marginal moments take the steps
        # the corner sum and the integrate moments take, to round-off
        from landau import grid as grid_module
        from landau.cli import VERIFY_KEYS
        from landau.families import DistributionSpec, generate_distribution

        resample = grid_module._resample
        count = [0]

        def counted(*args):
            count[0] += 1
            return resample(*args)

        monkeypatch.setattr(grid_module, "_resample", counted)
        g = build_grid(3, 6.0, n)
        for family in VERIFY_KEYS["families"]:
            spec = DistributionSpec.from_json_dict({**family, "normalize": False})
            f = generate_distribution(spec, g)
            runs = []
            for forms in ((grid_module._multilinear, raw_moments),
                          (multilinear_corners, moments_by_integrate)):
                with monkeypatch.context() as m:
                    m.setattr(grid_module, "_multilinear", forms[0])
                    m.setattr(grid_module, "raw_moments", forms[1])
                    count[0] = 0
                    _, tr = normalize(f)
                    runs.append((count[0], tr))
            (steps, tr), (ref_steps, ref) = runs
            assert steps == ref_steps > 0, family["kind"]
            assert tr.amplitude == pytest.approx(ref.amplitude, rel=1e-12, abs=0)
            assert tr.dilation == pytest.approx(ref.dilation, rel=1e-12, abs=0)
            assert np.max(np.abs(np.subtract(tr.shift, ref.shift))) <= 1e-12

    def test_degenerate_covariance_raises(self):
        g = build_grid(2, 1.0, 8)
        vals = np.zeros(g.size)
        center = np.argmin(g.sq_norm)
        vals[center] = 1.0
        with pytest.raises(DegeneracyError):
            normalize(DiscreteDistribution(g, vals))

    def test_transform_compose(self):
        a = NormalizationTransform(2.0, 3.0, (1.0, 0.0))
        b = NormalizationTransform(0.5, 2.0, (0.0, 4.0))
        c = a.compose(b)
        assert c.amplitude == pytest.approx(1.0)
        assert c.dilation == pytest.approx(6.0)
        np.testing.assert_allclose(c.shift, (1.0, 12.0))
