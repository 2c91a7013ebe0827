"""Generator families of velocity distributions used by scenarios and
verification suites: Gaussians, bimodal states, shells, heavy tails, and
mixtures, each optionally normalized to mass 1 / zero momentum / energy
moment N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_value, read_config
from .grid import DiscreteDistribution, normalize


# Each family's parameters and their defaults, read by the config rule
# (`errors.read_config`): a type marks a required parameter.  A one-item
# per-axis list applies to every axis; empty weights are equal weights.
PARAMS = {
    "maxwellian": {"temperature": 1.0, "mean": [0.0]},
    "bimaxwellian": {"separation": 2.0, "temperature": 1.0, "axis": 0},
    "anisotropic_gaussian": {"variances": [1.0], "mean": [0.0]},
    "radial_shell": {"radius": 2.0, "width": 0.5},
    "radial_heavy_tail": {"exponent": 4.0},
    "mixture": {"components": list, "weights": []},
    "custom_file": {"path": str},
}


@dataclass
class DistributionSpec:
    """A family `kind` with its `params`, read against `PARAMS` at
    construction, so a bad parameter fails before any state is built."""

    kind: str
    params: dict = field(default_factory=dict)
    normalize: bool = False

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        check_value(self.normalize, False, "normalize")
        self.params = read_config(self.params, PARAMS[self.kind], f"{self.kind} params")
        if self.kind == "mixture":
            self.params["components"] = [
                c if isinstance(c, DistributionSpec) else DistributionSpec.from_json_dict(c)
                for c in self.params["components"]]
            check_value(self.params["weights"], [0.0], "weights")

    @staticmethod
    def from_json_dict(obj):
        return DistributionSpec(**read_config(
            obj, {"kind": str, "params": {}, "normalize": False}, "distribution spec"
        ))


def _maxwellian_values(grid, temperature, mean):
    if temperature <= 0:
        raise ValidationError(f"temperature must be > 0, got {temperature}")
    d2 = np.sum((grid.coords - mean[None, :]) ** 2, axis=1)
    return (
        (2.0 * math.pi * temperature) ** (-grid.dim / 2.0)
        * np.exp(-d2 / (2.0 * temperature))
    )


def _per_axis(values, grid, name):
    """A list of one value per axis, or of one value for every axis, as an
    array of length grid.dim."""
    if len(values) not in (1, grid.dim):
        raise ValidationError(f"{name} needs 1 or {grid.dim} entries, got {values}")
    return np.broadcast_to(np.asarray(values, dtype=float), (grid.dim,))


def _raw_values(spec, grid):
    kind, p = spec.kind, spec.params
    if kind == "maxwellian":
        return _maxwellian_values(grid, p["temperature"], _per_axis(p["mean"], grid, "mean"))
    if kind == "bimaxwellian":
        if not 0 <= p["axis"] < grid.dim:
            raise ValidationError(f"axis must lie in [0, {grid.dim}), got {p['axis']}")
        u = np.zeros(grid.dim)
        u[p["axis"]] = 0.5 * p["separation"]
        return 0.5 * (
            _maxwellian_values(grid, p["temperature"], u)
            + _maxwellian_values(grid, p["temperature"], -u)
        )
    if kind == "anisotropic_gaussian":
        var = _per_axis(p["variances"], grid, "variances")
        if np.any(var <= 0):
            raise ValidationError("variances must be positive")
        mean = _per_axis(p["mean"], grid, "mean")
        q = np.sum((grid.coords - mean[None, :]) ** 2 / var[None, :], axis=1)
        norm = (2.0 * math.pi) ** (-grid.dim / 2.0) / math.sqrt(float(np.prod(var)))
        return norm * np.exp(-0.5 * q)
    if kind == "radial_shell":
        radius, width = p["radius"], p["width"]
        if radius <= 0 or width <= 0:
            raise ValidationError("radius and width must be > 0")
        r = np.sqrt(grid.sq_norm)
        return np.exp(-((r - radius) ** 2) / (2.0 * width**2))
    if kind == "radial_heavy_tail":
        expo = p["exponent"]
        if expo <= (grid.dim + 2.0) / 2.0:
            raise ValidationError(
                f"exponent {expo} gives an infinite energy moment"
            )
        return (1.0 + grid.sq_norm) ** (-expo)
    if kind == "mixture":
        comps = p["components"]
        if not comps:
            raise ValidationError("mixture needs a nonempty component list")
        weights = p["weights"] or [1.0 / len(comps)] * len(comps)
        if len(weights) != len(comps) or any(w < 0 for w in weights):
            raise ValidationError("mixture weights must be nonnegative, one per component")
        out = np.zeros(grid.size)
        for w, comp in zip(weights, comps):
            cf = _sample(comp, grid)  # an empty component adds nothing
            out += w * cf.values / max(np.sum(cf.values), 1e-300)
        return out
    path = p["path"]  # custom_file
    loaded = DiscreteDistribution.load(path)
    if not loaded.grid.same_layout(grid):
        raise ValidationError(
            f"distribution in {path} has layout "
            f"{loaded.grid!r}, expected {grid!r}"
        )
    return loaded.values


def _sample(spec, grid):
    """The family of `spec` sampled on `grid`, of any mass."""
    f = DiscreteDistribution(grid, _raw_values(spec, grid))
    if spec.normalize:
        f, _ = normalize(f)
    return f


def generate_distribution(spec, grid):
    """Sample the family of the `DistributionSpec` spec at the cell centers
    of `grid`; a state of zero mass there raises ValidationError."""
    f = _sample(spec, grid)
    if not f.values.any():
        raise ValidationError(f"{spec.kind} state has zero mass on this grid")
    return f
