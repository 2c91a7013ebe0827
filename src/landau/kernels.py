"""Collision-kernel laws, the perpendicular projection, and the kernel
convolution engine behind the coefficient field a*f.

A kernel law is the one place that evaluates psi and knows its power-law
envelope (gamma1, gamma2, K1, K2).  For an isotropic kernel psi(|z|) the
coefficient function of the pair difference z = v - w is

    a_ij(z) = psi(r) (delta_ij - z_i z_j / r^2),         r = |z|,

and the field is the node quadrature (a_ij*g)(v) = h^N sum_{w != v}
a_ij(v - w) g(w).

Convolution engine.  Each a_ij is tabulated on the (2n-1)^N grid of node
differences z = v - w, with a zero at z = 0 that drops the source cell
w = v.  Their full linear convolution at v + (n-1) is sum_w table[v - w +
(n-1)] g(w), the table entry of z = (v - w) h, so the slice [n-1 : 2n-1]
per axis is the node quadrature.  Both are zero-padded to P = the
smallest 5-smooth length >= 2n-1 per axis; the product of their real
spectra is the period-P circular convolution, which adds linear index
m +- P onto m.  The linear indices span 0..3n-3, and for kept m in
[n-1, 2n-2], m + P > 3n-3 and m - P < 0, so the kept slice is alias-free.

The engine keeps one entry per (grid layout, kernel), and at most one
entry at a time: a new layout drops the old entry before it builds
anything.  The entry owns the spectra of the a_ij, i <= j, and of psi,
each made on first use (the a_ij tables one at a time), and reused complex
work buffers: one per field component, one for products and one for the
summands of `a_contract`.  Each call overwrites the buffers it reads, and
every result is a fresh array.

Every transform is a sequence of NumPy 1-D passes that skips the lines
holding only padding.  `_forward` runs a real pass along the last axis of
the data, then complex passes along axes 0, 1, ..., N-2, each over the slab
whose lines still hold data.  `_quadrature` runs unscaled inverse complex
passes along axes 0, ..., N-2 in place, keeping only the valid slice
[n-1, 2n-1) after each, then the unscaled inverse real pass on the last
axis, then the factor 1/P^N.  This is the pass order, axis order and
scaling of pocketfft's n-D real transforms (as in scipy.fft.rfftn and
irfftn), each line goes through the same 1-D plan, and a line is
transformed the same way whether or not its neighbours are, so the
results are bit-identical to the full n-D transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, read_tagged

_SANDWICH_RADII = np.logspace(-3.0, 3.0, 1000)


@dataclass(frozen=True)
class PowerLawPsi:
    """psi(r) = r^(gamma+2)."""

    gamma: float

    def __post_init__(self):
        # the Landau range, from Coulomb (-3) to the hardest potential (1);
        # NaN fails both comparisons
        if not -3.0 <= self.gamma <= 1.0:
            raise ValidationError(f"power-law gamma must lie in [-3, 1], got {self.gamma}")

    @property
    def is_coulomb(self):
        return False

    # a pure power law is its own envelope
    gamma1 = gamma2 = property(lambda self: self.gamma)
    K1 = K2 = property(lambda self: 1.0)

    def psi(self, r):
        p = self.gamma + 2.0
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(r > 0, r, 1.0) ** p
        if p < 0:
            out = np.where(r > 0, out, np.inf)
        elif p == 0:
            out = np.where(r >= 0, 1.0, out)
        else:
            out = np.where(r > 0, out, 0.0)
        return out if out.ndim else float(out)

    def to_json_dict(self):
        return {"kind": "power_law", "gamma": self.gamma}


@dataclass(frozen=True)
class CoulombPsi(PowerLawPsi):
    """psi(r) = 1/r in dimension 3."""

    gamma: float = -3.0

    def __post_init__(self):
        if self.gamma != -3.0:
            raise ValidationError("Coulomb kernel has gamma = -3")

    @property
    def is_coulomb(self):
        return True

    def to_json_dict(self):
        return {"kind": "coulomb"}


@dataclass(frozen=True)
class BracketedPsi:
    """A user-supplied psi sandwiched between explicit power-law envelopes.

    Asserts, on a log-spaced sample of radii,

        K3 * min(1, r^(gamma1+2))  <=  psi(r)  <=  K1 * r^(2-delta) + K2 * r^(gamma2+2).
    """

    K1: float
    K2: float
    K3: float
    delta: float
    gamma1: float
    gamma2: float
    psi_fn: object
    label: str = "bracketed"

    def __post_init__(self):
        if not (self.K1 > 0 and self.K2 > 0 and self.K3 > 0):
            raise ValidationError("K1, K2, K3 must be positive")
        if not (0 < self.delta <= 2):
            raise ValidationError(f"delta must be in (0, 2], got {self.delta}")
        if self.gamma1 > 0:
            raise ValidationError(f"gamma1 must be <= 0, got {self.gamma1}")
        g2 = self.gamma2
        if not (-4 < g2 < 0) or g2 == -2:
            raise ValidationError(
                f"gamma2 must lie in (-4,-2) or (-2,0), got {g2}"
            )
        r = _SANDWICH_RADII
        vals = np.asarray([self.psi_fn(x) for x in r], dtype=float)
        if np.any(vals < 0):
            raise ValidationError("psi must be nonnegative")
        lower = self.K3 * np.minimum(1.0, r ** (self.gamma1 + 2.0))
        upper = self.K1 * r ** (2.0 - self.delta) + self.K2 * r ** (g2 + 2.0)
        slack = 1.0 + 1e-12
        if np.any(vals * slack < lower) or np.any(vals > upper * slack):
            k = int(
                np.argmax((vals * slack < lower) | (vals > upper * slack))
            )
            raise ValidationError(
                f"sandwich bound violated at r = {r[k]}: "
                f"{lower[k]} <= {vals[k]} <= {upper[k]} fails"
            )

    @property
    def is_coulomb(self):
        return False

    def psi(self, r):
        if np.ndim(r) == 0:
            if r == 0:
                return math.inf if self.gamma1 + 2.0 < 0 else float(self.psi_fn(0.0))
            return float(self.psi_fn(r))
        r = np.asarray(r, dtype=float)
        return np.asarray([self.psi(x) for x in r.ravel()]).reshape(r.shape)

    def to_json_dict(self):
        return {
            "kind": "bracketed",
            "K1": self.K1,
            "K2": self.K2,
            "K3": self.K3,
            "delta": self.delta,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "label": self.label,
        }


# The kernel laws a JSON object can name, with their parameters; a
# bracketed law needs a callable psi and has no JSON form.
KERNELS = {"coulomb": {}, "power_law": {"gamma": float}}


def psi_spec_from_json(obj):
    """Parse the tagged-union JSON form of a kernel law."""
    params = read_tagged(obj, "kind", KERNELS, "kernel")
    if params["kind"] == "coulomb":
        return CoulombPsi()
    return PowerLawPsi(params["gamma"])


def psi_eval(spec, r):
    """Kernel value psi(r); +inf at r = 0 for negative exponents."""
    if r < 0:
        raise ValidationError(f"radius must be >= 0, got {r}")
    return spec.psi(r)


def projection(z):
    """Orthogonal projection onto the hyperplane perpendicular to z."""
    z = np.asarray(z, dtype=float)
    rsq = float(z @ z)
    if rsq == 0:
        raise ValidationError("projection is undefined at z = 0")
    return np.eye(z.size) - np.outer(z, z) / rsq


def _difference_grid(grid, spec):
    """z components, |z|^2 (1 at z = 0) and psi(|z|) (0 at z = 0) on the
    (2n-1)^N difference grid; entry d is z = (d - (n-1)) * h componentwise."""
    n, h, dim = grid.n, grid.h, grid.dim
    axis = (np.arange(2 * n - 1) - (n - 1)) * h
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    rsq = sum(m**2 for m in mesh)
    rsq[(n - 1,) * dim] = 1.0
    psi = np.asarray(spec.psi(np.sqrt(rsq)), dtype=float)
    psi[(n - 1,) * dim] = 0.0
    return mesh, rsq, psi


def _a_table_items(grid, spec):
    """((i, j), a_ij table) for i <= j, made one at a time; each table is
    zero at z = 0 (the source cell w = v)."""
    mesh, rsq, psi = _difference_grid(grid, spec)
    center = (grid.n - 1,) * grid.dim
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            tab = -psi * mesh[i] * mesh[j] / rsq
            if i == j:
                tab += psi
            tab[center] = 0.0
            yield (i, j), tab


def _a_tables(grid, spec):
    """All a_ij tables for i <= j, keyed (i, j), for the direct oracle."""
    return dict(_a_table_items(grid, spec))


def _fast_len(m):
    """The smallest 2^a 3^b 5^c >= m >= 1."""
    k = m
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def _padded_shape(grid):
    return (_fast_len(2 * grid.n - 1),) * grid.dim


def _forward(g, shape, out=None):
    """Real spectrum of g zero-padded to `shape`, shape[:-1] + (P//2+1,).

    Written into `out` when given, whatever it held, or a fresh array: only
    the padding the passes read is zeroed, since the passes overwrite the rest.
    """
    data = tuple(slice(m) for m in g.shape[:-1])
    if out is None:
        out = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    for ax in range(g.ndim - 1):
        out[(slice(None),) * ax + (slice(g.shape[ax], None),) + data[ax + 1:]] = 0
    np.fft.rfft(g, shape[-1], axis=-1, out=out[data])
    for ax in range(g.ndim - 1):
        part = out[(slice(None),) * (ax + 1) + data[ax + 1:]]
        np.fft.fft(part, axis=ax, out=part)
    return out


def _quadrature(grid, spectrum, shape, out=None):
    """h^N times the valid slice of the inverse transform, written into the
    flat `out` (a strided column of the caller's result will do) or a fresh
    array, and returned.

    The complex passes run in place, so `spectrum` must be a work buffer
    the caller no longer needs.
    """
    valid = slice(grid.n - 1, 2 * grid.n - 1)
    x = spectrum
    for ax in range(grid.dim - 1):
        np.fft.ifft(x, axis=ax, norm="forward", out=x)
        x = x[(slice(None),) * ax + (valid,)]
    x = np.fft.irfft(x, shape[-1], axis=-1, norm="forward")[..., valid]
    if out is None:
        out = np.empty(grid.size)
    block = out.reshape(grid.shape)  # a view: out is 1-D with one stride
    np.multiply(x, 1.0 / math.prod(shape), out=block)
    block *= grid.cell_volume
    return out


class _Layout:
    """What the engine keeps for one (grid layout, kernel).

    The a_ij spectra (i <= j, keyed both ways) and the psi spectrum are made
    on first use.  The complex work buffers, one per field component, one
    for products and one for the summands of `a_contract`, are reused by
    every call; each call overwrites what it reads.
    """

    def __init__(self, grid, spec):
        self.grid, self.spec = grid, spec
        self.shape = _padded_shape(grid)
        half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        self.field_hat = [np.empty(half, dtype=complex) for _ in range(grid.dim)]
        self.product = np.empty(half, dtype=complex)
        self.term = np.empty(half, dtype=complex)
        self._a = self._psi = None

    def a_spectra(self):
        if self._a is None:
            spectra = {}
            for (i, j), tab in _a_table_items(self.grid, self.spec):
                spectra[(i, j)] = spectra[(j, i)] = _forward(tab, self.shape)
            self._a = spectra
        return self._a

    def psi_spectrum(self):
        if self._psi is None:
            self._psi = _forward(_difference_grid(self.grid, self.spec)[2], self.shape)
        return self._psi


# (dim, half_width, n, spec) -> _Layout; one layout only
_LAYOUT = {}


def _layout(grid, spec):
    key = (grid.dim, grid.half_width, grid.n, spec)
    try:
        hit = _LAYOUT.get(key)
    except TypeError:  # unhashable spec (callable payload): never kept
        return _Layout(grid, spec)
    if hit is None:
        _LAYOUT.clear()  # drop the old layout before the new one fills
        hit = _LAYOUT[key] = _Layout(grid, spec)
    return hit


def _symmetric(grid, fill):
    """(size, N, N) tensor whose column (i, j), i <= j, fill(i, j, column)
    writes; column (j, i) is a copy."""
    out = np.empty((grid.size, grid.dim, grid.dim))
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            fill(i, j, out[:, i, j])
            out[:, j, i] = out[:, i, j]
    return out


def a_convolve(grid, spec, g):
    """The tensor field a*g for a scalar field g of shape grid.shape.

    Returns (size, N, N), symmetric: one forward transform of g and one
    inverse per component i <= j.
    """
    lay = _layout(grid, spec)
    spectra = lay.a_spectra()
    g_hat = _forward(g, lay.shape, out=lay.field_hat[0])

    def fill(i, j, column):
        np.multiply(spectra[(i, j)], g_hat, out=lay.product)
        _quadrature(grid, lay.product, lay.shape, out=column)

    return _symmetric(grid, fill)


def a_contract(grid, spec, g):
    """The vector field sum_j a_ij*g_j for g of shape (N,) + grid.shape.

    Returns (size, N): one forward transform per component of g, the sum
    over j taken on the spectra, and one inverse per component i.
    """
    lay = _layout(grid, spec)
    spectra = lay.a_spectra()
    g_hat = [_forward(comp, lay.shape, out=buf) for comp, buf in zip(g, lay.field_hat)]
    out = np.empty((grid.size, grid.dim))
    acc = lay.product
    for i in range(grid.dim):
        acc.fill(0)  # the sum starts from 0, which sets the signs of zeros
        for j in range(grid.dim):
            acc += np.multiply(spectra[(i, j)], g_hat[j], out=lay.term)
        _quadrature(grid, acc, lay.shape, out=out[:, i])
    return out


def psi_convolve(grid, spec, g):
    """psi*g for a scalar field g, flattened; the source cell w = v is
    dropped."""
    lay = _layout(grid, spec)
    psi_hat = lay.psi_spectrum()
    g_hat = _forward(g, lay.shape, out=lay.field_hat[0])
    return _quadrature(grid, np.multiply(psi_hat, g_hat, out=lay.product), lay.shape)


def _convolve_direct(table, fvals):
    """O(M^2) reference summation: out[i] = sum_j table[i - j + n - 1] f[j]."""
    n = fvals.shape[0]
    dim = fvals.ndim
    out = np.empty_like(fvals)
    rev = table[(slice(None, None, -1),) * dim]
    for idx in np.ndindex(fvals.shape):
        window = rev[tuple(slice(n - 1 - k, 2 * n - 1 - k) for k in idx)]
        out[idx] = np.sum(window * fvals)
    return out


def collision_coefficients(f, spec, method="fft"):
    """The diffusion matrix A = a*f at every node by quadrature: shape
    (size, N, N), symmetric positive semidefinite at every node.

    `method="fft"` runs the convolution engine; `method="direct"` is the
    exact-summation reference (O(M^2), for small grids and testing), which
    the engine matches to roundoff.
    """
    if method not in ("direct", "fft"):
        raise ValidationError(f"unknown method {method!r}")
    grid, fg = f.grid, f.reshaped()
    if method == "fft":
        return a_convolve(grid, spec, fg)
    tabs = _a_tables(grid, spec)

    def fill(i, j, column):
        column[:] = grid.cell_volume * _convolve_direct(tabs[(i, j)], fg).ravel()

    return _symmetric(grid, fill)
