"""Collision-kernel laws, the perpendicular projection, and the kernel
convolution engine behind the coefficient field a*f.

A kernel law is the one place that evaluates psi and knows its power-law
envelope (gamma1, gamma2, K1, K2).  For an isotropic kernel psi(|z|) the
coefficient function of the pair difference z = v - w is

    a_ij(z) = psi(r) (delta_ij - z_i z_j / r^2),         r = |z|,

and the field is the node quadrature (a_ij*g)(v) = h^N sum_{w != v}
a_ij(v - w) g(w).

Convolution engine.  Each a_ij is stored wrapped on the period-P grid,
P = the smallest 5-smooth length >= 2n-1 per axis: index k along an axis
holds z = k h for k in [0, n), z = (k - P) h for k in (P - n, P), and zero
between, with a zero at z = 0 that drops the source cell w = v.  The field
g is zero-padded to P, and the product of their spectra is the period-P
circular convolution, whose entry v is sum_w table[(v - w) mod P] g(w).
For kept v in [0, n) and nodes w in [0, n), v - w lies in [-(n-1), n-1],
and (v - w) mod P is the table entry of z = (v - w) h, because the z >= 0
indices [0, n) and the z < 0 indices [P-n+1, P) do not meet when P >=
2n-1.  So the slice [0, n) per axis is the node quadrature, alias-free.

The spectra are real.  a_ij(-z) = a_ij(z), so the wrapped table is even
on the period-P grid, table[-k mod P] = table[k], and the transform of a
real even sequence is real; its computed imaginary part is round-off,
below 1e-15 of the real part, and is dropped, so each spectrum is a
float64 array of shape P^(N-1) x (P/2+1).  Each table is tabulated only on
its z >= 0 octant (n^N nodes) and unfolded by parity into a float view of
one work buffer before its transform: a_ii is even along every axis, and
a_ij with i != j is odd along axes i and j and even along the others; psi
is even.

The drift term sum_i <g_i, sum_j a_ij*g_j> of the dissipation is a
Parseval sum over the spectra g_i^ of the padded g_i, with no inverse
transform.  g_i vanishes off the nodes, so its node sum against the
circular convolution is the sum over the whole period, P^-N sum_k Re S(k)
with S(k) = sum_ij conj(g_i^(k)) a_ij^(k) g_j^(k) over the full spectrum.
On the half spectrum each last-axis bin also stands for its mirror, weight
2, except bin 0 and, for even P, bin P/2, weight 1.

The engine keeps one entry per (grid layout, kernel), and at most one
entry at a time: a new layout drops the old entry before it builds
anything.  The entry owns the real spectra of the a_ij, i <= j, and of
psi, each made on first use (the a_ij tables one at a time), and N reused
complex half-spectrum work buffers, one per field component.  A scalar
field's spectrum sits in the first buffer and each product with a kernel
spectrum is formed, and inverted in place, in the last.  The contraction
sum_j a_ij^ g_j^ runs slab by slab along the leading spectral axis, in
N + 1 slab temporaries of about `_SLAB_BYTES`, and `a_contract` writes each
slab's sums back over the g_i spectra, whose inverses then run in place.
A cold build unfolds and transforms its tables inside the buffers too.
Each call overwrites the buffers it reads, and every result is a fresh
array; no call makes a temporary the size of a work buffer.

Every transform is a sequence of NumPy 1-D passes that skips the lines
holding only padding.  `_forward` runs a real pass along the last axis of
the data, then complex passes along axes 0, 1, ..., N-2, each over the slab
whose lines still hold data.  `_quadrature` runs unscaled inverse complex
passes along axes 0, ..., N-2 in place, keeping only the valid slice
[0, n) after each, then the unscaled inverse real pass on the last
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

# Bytes of one slab of the spectral contraction, rounded down to whole rows
# of the leading spectral axis (at least one, at most all).  The N + 1 slab
# temporaries then stay in cache; 96 KiB was the fastest size of a measured
# sweep at P = 32, 48 and 64.
_SLAB_BYTES = 96 * 1024


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


def _difference_fields(axis, dim, spec):
    """Per-axis z, |z|^2 (1 at z = 0), psi(|z|) (0 at z = 0) and the index
    of z = 0 on the tensor grid with `axis` (which holds 0) on each of `dim`
    axes; the z are an open mesh that broadcasts to the full grid."""
    z = [axis.reshape((-1,) + (1,) * (dim - 1 - d)) for d in range(dim)]
    origin = (int(np.flatnonzero(axis == 0)[0]),) * dim
    rsq = sum(c**2 for c in z)
    rsq[origin] = 1.0
    psi = np.asarray(spec.psi(np.sqrt(rsq)), dtype=float)
    psi[origin] = 0.0
    return z, rsq, psi, origin


def _a_table_items(z, rsq, psi, origin):
    """((i, j), a_ij table) for i <= j, made one at a time from the
    `_difference_fields`; each table is zero at z = 0 (the source cell
    w = v)."""
    for i in range(len(z)):
        for j in range(i, len(z)):
            tab = -psi * z[i] * z[j] / rsq
            if i == j:
                tab += psi
            tab[origin] = 0.0
            yield (i, j), tab


def _a_tables(grid, spec):
    """All a_ij tables for i <= j, keyed (i, j), on the (2n-1)^N grid of
    node differences (entry d is z = (d - (n-1)) h componentwise): the
    direct-sum oracle's tables."""
    n = grid.n
    axis = (np.arange(2 * n - 1) - (n - 1)) * grid.h
    return dict(_a_table_items(*_difference_fields(axis, grid.dim, spec)))


def _octant_fields(grid, spec):
    """`_difference_fields` on the z >= 0 octant, entry k at z = k h."""
    return _difference_fields(np.arange(grid.n) * grid.h, grid.dim, spec)


def _unfold(octant, odd, out):
    """Write into `out` (P^N, zero off the table) the wrapped table whose
    z >= 0 octant is `octant`: index k along an axis holds z = k h for
    k < n and z = (k - P) h for k > P - n.  The table is odd along the
    axes in `odd` and even along the others."""
    n, dim, P = octant.shape[0], octant.ndim, out.shape[0]
    out[(slice(n),) * dim] = octant
    for ax in range(dim):
        head, tail = (slice(None),) * ax, (slice(n),) * (dim - 1 - ax)
        src = out[head + (slice(n - 1, 0, -1),) + tail]  # z = (n-1) h, ..., h
        dst = out[head + (slice(P - n + 1, P),) + tail]  # z = -(n-1) h, ..., -h
        if ax in odd:
            np.negative(src, out=dst)
        else:
            dst[...] = src


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
    """h^N times the valid slice [0, n) of the inverse transform, written
    into the flat `out` (a strided column of the caller's result will do)
    or a fresh array, and returned.

    The complex passes run in place, so `spectrum` must be a work buffer
    the caller no longer needs.
    """
    valid = slice(grid.n)
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

    The real a_ij spectra (i <= j, keyed both ways) and the real psi
    spectrum are made on first use.  The N complex half-spectrum work
    buffers `field_hat`, one per field component, are reused by every call;
    each call overwrites what it reads.  A cold build runs inside them too,
    so every entry point makes the spectra it needs before its first
    forward transform.
    """

    def __init__(self, grid, spec):
        self.grid, self.spec = grid, spec
        self.shape = _padded_shape(grid)
        half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        self.field_hat = [np.empty(half, dtype=complex) for _ in range(grid.dim)]
        self._a = self._psi = None

    def _real_spectra(self, octants):
        """{key: real spectrum} of the wrapped tables unfolded from the
        (key, octant, odd axes) items, one at a time.  Each table is
        unfolded into a float view of the first field buffer, which holds
        P^(N-1)(P/2+1) complex >= P^N floats, and transformed into the last
        one (N >= 2); the imaginary part, round-off of an even table, is
        dropped."""
        wrapped = self.field_hat[0].view(float).ravel()[:math.prod(self.shape)]
        wrapped = wrapped.reshape(self.shape)
        wrapped.fill(0)
        spectra = {}
        for key, octant, odd in octants:
            _unfold(octant, odd, wrapped)
            spectra[key] = _forward(wrapped, self.shape, out=self.field_hat[-1]).real.copy()
        return spectra

    def a_spectra(self):
        # a_ij is odd along axes i and j when i != j, even along the others
        if self._a is None:
            items = _a_table_items(*_octant_fields(self.grid, self.spec))
            spectra = self._real_spectra((ij, tab, {ij[0]} ^ {ij[1]}) for ij, tab in items)
            self._a = {**spectra, **{(j, i): s for (i, j), s in spectra.items()}}
        return self._a

    def psi_spectrum(self):
        if self._psi is None:
            psi = _octant_fields(self.grid, self.spec)[2]
            self._psi = self._real_spectra([(None, psi, ())])[None]
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

    Returns (size, N, N), symmetric: one forward transform of g, into the
    first field buffer, and one inverse per component i <= j, in place in
    the last one.
    """
    lay = _layout(grid, spec)
    spectra = lay.a_spectra()
    g_hat = _forward(g, lay.shape, out=lay.field_hat[0])
    work = lay.field_hat[-1]

    def fill(i, j, column):
        np.multiply(spectra[(i, j)], g_hat, out=work)
        _quadrature(grid, work, lay.shape, out=column)

    return _symmetric(grid, fill)


def a_contract(grid, spec, g):
    """The vector field sum_j a_ij*g_j for g of shape (N,) + grid.shape.

    Returns (size, N): one forward transform per component of g, the sum
    over j taken on the spectra slab by slab and written back over the g_i
    spectra, and one inverse per component i, in place there.
    """
    lay = _layout(grid, spec)
    for g_hat, acc in _slab_contractions(lay, g):
        for dst, src in zip(g_hat, acc):
            dst[...] = src
    del acc  # the slab temporaries
    out = np.empty((grid.size, grid.dim))
    for i, buf in enumerate(lay.field_hat):
        _quadrature(grid, buf, lay.shape, out=out[:, i])
    return out


def a_pair_sum(grid, spec, g):
    """sum_i <g_i, (sum_j a_ij*g_j)_i> over the nodes for g of shape
    (N,) + grid.shape: the node sum of g times `a_contract(grid, spec, g)`.

    A Parseval sum over the spectra, with no inverse transform: one forward
    transform per component of g.  The products Re(conj(g_i^) s_i^) of a
    slab are summed pairwise (np.sum) and the slab sums added in order,
    which keeps the round-off of a dissipation that is a small difference
    of large sums near the node-space value.
    """
    lay = _layout(grid, spec)
    P = lay.shape[-1]
    edges = [0, P // 2] if P % 2 == 0 else [0]  # last-axis bins without a mirror
    total = 0.0
    for g_hat, acc in _slab_contractions(lay, g):
        for g_i, s_i in zip(g_hat, acc):
            # (re, im) pair products, in the slab sum they no longer need
            prod = np.multiply(s_i.view(float), g_i.view(float), out=s_i.view(float))
            prod = prod.reshape(s_i.shape + (2,))
            total += 2.0 * float(np.sum(prod)) - sum(float(np.sum(prod[..., k, :])) for k in edges)
    return total * grid.cell_volume / math.prod(lay.shape)


def _slab_contractions(lay, g):
    """The spectra of the components of g, in the field buffers, taken
    slab by slab along the leading spectral axis: for each slab, the g_i^
    slabs (views of the buffers) and the N sums sum_j a_ij^ g_j^ over it.

    Each sum starts from zeros, which sets the signs of zeros, and adds
    j = 0, ..., N-1 in order, as a sum over the whole arrays would, so the
    values are the same bit for bit.  The sums and the product they add are
    N + 1 slab temporaries, which the next slab overwrites.
    """
    spectra = lay.a_spectra()  # before the transforms: a cold build uses the buffers
    g_hat = [_forward(comp, lay.shape, out=buf) for comp, buf in zip(g, lay.field_hat)]
    rows = min(len(g_hat[0]), max(1, _SLAB_BYTES // g_hat[0][0].nbytes))
    slab = (rows,) + g_hat[0].shape[1:]
    acc = [np.empty(slab, dtype=complex) for _ in g_hat]
    term = np.empty(slab, dtype=complex)
    for start in range(0, len(g_hat[0]), rows):
        rs = slice(start, start + rows)
        g_s = [gh[rs] for gh in g_hat]
        m = len(g_s[0])  # the last slab may be short
        acc_s = [a[:m] for a in acc]
        for i, a in enumerate(acc_s):
            a.fill(0)
            for j, gj in enumerate(g_s):
                a += np.multiply(spectra[(i, j)][rs], gj, out=term[:m])
        yield g_s, acc_s


def psi_convolve(grid, spec, g):
    """psi*g for a scalar field g, flattened; the source cell w = v is
    dropped."""
    lay = _layout(grid, spec)
    psi_hat = lay.psi_spectrum()
    g_hat = _forward(g, lay.shape, out=lay.field_hat[0])
    work = np.multiply(psi_hat, g_hat, out=lay.field_hat[-1])
    return _quadrature(grid, work, lay.shape)


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
