"""Uniform cell-centered velocity grids, quadrature, gradients, and normalization.

All integrals over velocity space are midpoint sums ``h^N * sum(...)`` on a
uniform tensor grid with nodes at the cell centers
``v_d(i) = -L + (i + 0.5) h``, ``h = 2L/n``.  Densities are implicitly
extended by zero outside the box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneracyError, NumericError, ResourceError, ValidationError,
                     check_value, read_config)

# Below this value a node contributes 0 to log/sqrt functionals
# (consistent with f ln f -> 0 as f -> 0).
EPS_FLOOR = 1e-30

# Guard against accidentally allocating enormous tensor grids; read at each
# grid construction, so a test can monkeypatch it.
DEFAULT_MAX_NODES = 2**24

# A normalized state has mass 1, zero momentum and energy moment N within
# this tolerance (relative for the energy moment); `normalize` stops at a
# quarter of it, or after NORMALIZE_MAX_ITER resamples.
NORMALIZE_TOL = 1e-3
NORMALIZE_MAX_ITER = 12


class VelocityGrid:
    """Uniform cell-centered grid on [-L, L]^N.

    Parameters
    ----------
    dim : int
        Velocity-space dimension N >= 2.
    half_width : float
        Box half-width L > 0 (same on every axis).
    nodes_per_axis : int
        Number of cells n >= 4 per axis; spacing h = 2L/n.
    """

    def __init__(self, dim, half_width, nodes_per_axis):
        # read by the config rule: sizes are never truncated, and a
        # half-width is a finite number
        check_value(dim, 0, "dim")
        check_value(half_width, 0.0, "half_width")
        check_value(nodes_per_axis, 0, "nodes_per_axis")
        if dim < 2:
            raise ValidationError(f"dim must be >= 2, got {dim}")
        if not (half_width > 0):
            raise ValidationError(f"half_width must be > 0, got {half_width}")
        if nodes_per_axis < 4:
            raise ValidationError(f"nodes_per_axis must be >= 4, got {nodes_per_axis}")
        # n >= 2, so n^dim > the budget once dim reaches its bit length;
        # the first test spares the power of a huge dim
        if dim >= DEFAULT_MAX_NODES.bit_length() or nodes_per_axis ** dim > DEFAULT_MAX_NODES:
            raise ResourceError(
                f"{nodes_per_axis}^{dim} nodes exceed the budget of {DEFAULT_MAX_NODES}"
            )
        self.dim = dim
        self.half_width = float(half_width)
        self.n = nodes_per_axis
        self.h = 2.0 * self.half_width / self.n
        self.axis = -self.half_width + (np.arange(self.n) + 0.5) * self.h
        self.axis.flags.writeable = False
        self.shape = (self.n,) * self.dim
        self.size = self.n ** self.dim
        # (size, dim) node coordinates, first axis slowest (C order).
        mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        self.coords = np.stack([m.ravel() for m in mesh], axis=-1)
        self.coords.flags.writeable = False
        self.sq_norm = np.sum(self.coords**2, axis=1)
        self.sq_norm.flags.writeable = False

    @property
    def cell_volume(self):
        return self.h ** self.dim

    def same_layout(self, other):
        return (
            self.dim == other.dim
            and self.n == other.n
            and self.half_width == other.half_width
        )

    def __repr__(self):
        return f"VelocityGrid(dim={self.dim}, half_width={self.half_width}, n={self.n})"


def build_grid(dim, half_width, nodes_per_axis):
    """Construct a :class:`VelocityGrid` (validating arguments)."""
    return VelocityGrid(dim, half_width, nodes_per_axis)


# the keys of a stored distribution, all required; sizes are never truncated
STATE_KEYS = {"dim": int, "half_width": float, "nodes_per_axis": int, "values": list}


class DiscreteDistribution:
    """Nonnegative density sampled at the cell centers of a grid.

    `values` is flat in C order (first axis slowest).
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float).ravel()
        if values.size != grid.size:
            raise ValidationError(
                f"values has {values.size} entries, grid has {grid.size} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("distribution values must be finite")
        if np.any(values < 0):
            raise ValidationError("distribution values must be nonnegative")
        self.grid = grid
        self.values = values
        self.values.flags.writeable = False

    def reshaped(self):
        return self.values.reshape(self.grid.shape)

    def with_values(self, values):
        return DiscreteDistribution(self.grid, values)

    def to_json_dict(self):
        return {
            "dim": self.grid.dim,
            "half_width": self.grid.half_width,
            "nodes_per_axis": self.grid.n,
            "values": self.values.tolist(),
        }

    def save(self, path):
        # json.dumps encodes in one shot, with the C encoder; json.dump
        # never uses it
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json_dict()))

    @staticmethod
    def from_json_dict(obj):
        """Read a stored distribution by the config rule; its values must
        be JSON numbers."""
        obj = read_config(obj, STATE_KEYS, "distribution")
        grid = build_grid(obj["dim"], obj["half_width"], obj["nodes_per_axis"])
        values = np.asarray(obj["values"])
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"distribution values must be numbers, not {values.dtype}")
        return DiscreteDistribution(grid, values)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return DiscreteDistribution.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class NormalizationTransform:
    """Affine change of unknown and variables f(v) -> a f(b v + c)."""

    amplitude: float
    dilation: float
    shift: tuple

    @property
    def is_identity(self):
        return (
            abs(self.amplitude - 1.0) < 1e-9
            and abs(self.dilation - 1.0) < 1e-9
            and max(abs(s) for s in self.shift) < 1e-9
        )

    def compose(self, other):
        """Transform equivalent to applying self first, then `other`."""
        a = self.amplitude * other.amplitude
        b = self.dilation * other.dilation
        c = tuple(
            self.dilation * oc + sc for oc, sc in zip(other.shift, self.shift)
        )
        return NormalizationTransform(a, b, c)


def integrate(f, weight=None):
    """Midpoint quadrature h^N * sum_k w_k f_k, with `weight` None (w = 1)
    or an array of per-node values."""
    w = 1.0 if weight is None else np.asarray(weight, dtype=float)
    prod = f.values * w
    if not np.all(np.isfinite(prod[f.values > 0])):
        raise NumericError("non-finite weight value on the support of f")
    # np.sum uses fixed-order pairwise summation: bit-reproducible.
    return f.grid.cell_volume * float(np.sum(np.where(f.values > 0, prod, 0.0)))


def _gradient_nd(field, h):
    """Second-order gradient (central interior, one-sided boundary).

    Returns an array of shape (dim,) + field.shape.
    """
    return np.stack(np.gradient(field, h, edge_order=2), axis=0)


def gradient_sqrt(f):
    """Gradient of sqrt(f), shape (size, dim); zero where f vanishes."""
    g = np.sqrt(np.where(f.values > EPS_FLOOR, f.values, 0.0)).reshape(f.grid.shape)
    grads = _gradient_nd(g, f.grid.h)
    return grads.reshape(f.grid.dim, f.grid.size).T


def grad_log(f):
    """Node-wise estimate of grad(log f) and its validity mask.

    One rule on every axis of every state, at each node above EPS_FLOOR:
    the `_gradient_nd` stencil (central inside, second-order one-sided at
    the box faces) where it touches only nodes above the floor; otherwise a
    two-point difference toward a neighbour above the floor, forward first;
    otherwise 0.  An all-positive state gets `_gradient_nd(log f)` bit for
    bit.  Returns (xi, mask) with xi of shape (size, dim), zero off the
    mask, and mask true where f > EPS_FLOOR.
    """
    grid = f.grid
    vals = f.reshaped()
    mask = vals > EPS_FLOOR
    logf = np.log(np.where(mask, vals, 1.0))
    xi = _gradient_nd(logf, grid.h)
    for d in range(grid.dim):
        lf, mk, comp = (np.moveaxis(a, d, 0) for a in (logf, mask, xi[d]))
        up_ok = np.roll(mk, -1, axis=0)
        dn_ok = np.roll(mk, 1, axis=0)
        up_ok[-1] = dn_ok[0] = False
        # the nodes of the `_gradient_nd` stencil: k +- 1 inside, and
        # 0, 1, 2 and n-3, n-2, n-1 at the faces
        stencil_ok = up_ok & dn_ok
        stencil_ok[0] = up_ok[0] & mk[2]
        stencil_ok[-1] = dn_ok[-1] & mk[-3]
        fwd = (np.roll(lf, -1, axis=0) - lf) / grid.h
        comp[...] = np.select(
            [stencil_ok, up_ok, dn_ok], [comp, fwd, np.roll(fwd, 1, axis=0)], default=0.0
        )
        comp[~mk] = 0.0
    return xi.reshape(grid.dim, grid.size).T, mask.ravel()


def raw_moments(f):
    """(mass, mean-velocity vector, scalar temperature) of f from its per-axis marginals
    m_d, the temperature as sum_d sum_k (v_k - u_d)^2 m_d[k]: >= 0, with no cancellation."""
    grid, dims = f.grid, range(f.grid.dim)
    m = grid.cell_volume * np.array(
        [f.reshaped().sum(axis=tuple(k for k in dims if k != d)) for d in dims])
    rho = float(np.sum(m[0]))
    if rho <= 0:
        raise ValidationError("distribution has zero mass")
    u = m @ grid.axis / rho
    return rho, u, float(np.sum((grid.axis - u[:, None]) ** 2 * m)) / (grid.dim * rho)


def _multilinear(values, axes):
    """Multilinear interpolation of `values`, shape (n,)*N, at the tensor
    product of the per-axis fractional indices `axes` (N 1-D arrays); zero
    at a point outside [0, n-1] on some axis.

    Separable: one two-point pass per axis, gathering `lo` and `lo + 1`
    with weights w0 = 1 - frac and w1 = 1 - w0.  A point outside [0, n-1]
    gets both weights 0, and at n - 1 the upper index clamps with weight 0,
    so an integer coordinate returns the gathered value exactly.
    """
    n = values.shape[0]
    for d, x in enumerate(axes):
        ok = (x >= 0) & (x <= n - 1)
        lo = np.floor(np.where(ok, x, 0.0))
        w0 = np.where(ok, 1.0 - (x - lo), 0.0)
        w0, w1 = (w.reshape((-1,) + (1,) * (values.ndim - 1 - d))
                  for w in (w0, np.where(ok, 1.0 - w0, 0.0)))
        lo = lo.astype(np.intp)
        upper = values.take(np.minimum(lo + 1, n - 1), axis=d)
        upper *= w1
        values = values.take(lo, axis=d)
        values *= w0
        values += upper
    return values


def _resample(f, transform):
    """Sample a f(b v + c) back onto the grid by multilinear interpolation
    (`_multilinear`, one pass per axis)."""
    grid = f.grid
    a, b = transform.amplitude, transform.dilation
    # node v maps to source point b v + c, one axis at a time; convert to
    # fractional indices.
    axes = [(b * grid.axis + c + grid.half_width) / grid.h - 0.5 for c in transform.shift]
    out = a * _multilinear(f.reshaped(), axes).ravel()
    np.maximum(out, 0.0, out=out)
    return f.with_values(out)


def normalize(f):
    """Rescale f to mass 1, zero momentum, and energy moment ∫f|v|² = N.

    Returns (normalized distribution, recorded transform).  Raises
    ValidationError on zero mass and DegeneracyError when the temperature is
    degenerate relative to the grid scale.
    """
    grid = f.grid
    rho, u, temp = raw_moments(f)
    if temp < 1e-12 * grid.half_width**2:
        raise DegeneracyError(f"temperature {temp} is degenerate on this grid")

    total = NormalizationTransform(1.0, 1.0, (0.0,) * grid.dim)
    current = f
    for _ in range(NORMALIZE_MAX_ITER):
        b = np.sqrt(temp)
        a = temp ** (grid.dim / 2.0) / rho
        step = NormalizationTransform(a, b, tuple(u))
        total = total.compose(step)
        if step.is_identity:
            break
        current = _resample(current, step)
        rho, u, temp = raw_moments(current)
        if rho > 0:
            # interpolation perturbs the mass; a scalar rescale fixes it
            # exactly without another resample
            current = current.with_values(current.values / rho)
            total = total.compose(
                NormalizationTransform(1.0 / rho, 1.0, (0.0,) * grid.dim)
            )
            rho, u, temp = 1.0, u, temp
        err = max(
            abs(rho - 1.0),
            float(np.max(np.abs(u))),
            abs(grid.dim * temp * rho + rho * (u @ u) - grid.dim) / grid.dim,
        )
        if err <= 0.25 * NORMALIZE_TOL:
            break
    return current, total
