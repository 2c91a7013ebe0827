"""Collision-kernel laws, the perpendicular projection, and the kernel
convolution engine behind the coefficient field a*f.

A kernel law is the one place that evaluates psi, and every law is a power
law psi(r) = r^(gamma+2), Coulomb the case gamma = -3 in dimension 3.  For
an isotropic kernel psi(|z|) the coefficient function of the pair
difference z = v - w is

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
real even sequence is real.  Along each axis the table is even or odd: a_ii
is even along every axis, a_ij with i != j is odd along axes i and j and
even along the others, and psi is even.  The transform factors over the
axes, so each spectrum is made from the table's z >= 0 octant (n^N nodes)
by one matrix product per axis,

    t -> sum_{k<n} w_k cos(2 pi ((m k) mod P) / P) t_k      (even axis)
    t -> sum_{k<n} w_k sin(2 pi ((m k) mod P) / P) t_k      (odd axis)

with w_0 = 1 and w_k = 2 for k >= 1 (k and -k alike), and each odd axis a
factor -i, so a_ij, i != j, takes a minus sign.  No transform runs and no
P^N array is made.  Along every axis the spectrum has the parity of the
table, so only rows k_0 in [0, H), H = P//2 + 1, of the leading axis are
kept, and of the last axis the rfft half [0, H): a float64 array of shape
(H,) + (P,)*(N-2) + (H,).  Row k_0 >= H of the full spectrum is row P - k_0,
negated for the a_0j, j != 0, which are odd along axis 0.  Every product of
a stored spectrum with a field spectrum runs in `_add_row`, the one place
that applies this rule: it takes those rows from the reversed view
s[P-H:0:-1], whose rows stay contiguous, and gives them the sign.

The drift term sum_ij <g_i, a_ij*g_j> of the dissipation is a Parseval
sum over the spectra g_i^ of the padded g_i, with no inverse transform.
g_i vanishes off the nodes, so its node sum against the circular
convolution is the sum over the whole period, P^-N sum_k Re S(k) with
S(k) = sum_ij conj(g_i^(k)) a_ij^(k) g_j^(k) over the full spectrum.  On
the half spectrum each last-axis bin also stands for its mirror, weight 2,
except bin 0 and, for even P, bin P/2, weight 1.  The sum runs in two slab
passes with m = N - 1.  The first holds g_0^, ..., g_(m-1)^, adds their
mutual terms Re(conj(g_i^) sum_(j<m) a_ij^ g_j^), and overwrites each slab
of g_0^ with 2w, w = sum_(i<m) a_im^ g_i^.  The second transforms g_m into a
freed buffer and adds Re(conj(g_m^) (a_mm^ g_m^ + 2w)).  So at most
max(2, N - 1) spectra are alive at once.

The engine keeps one entry per (grid layout, kernel), and at most one
entry at a time: a new layout drops the old entry before it builds
anything.  The entry owns the half spectra of the a_ij, i <= j, and of
psi, each made on first use (the a_ij tables one at a time), and complex
half-spectrum work buffers `field_hat`, each made the first time a call
asks for it and then reused: `a_columns` and `psi_convolve` take two, a
scalar field's spectrum in the first and each product with a kernel
spectrum formed, and inverted in place, in the second; `a_pair_sum` takes
max(2, N - 1) and `a_contract` N, one per field component.  The sums
sum_j a_ij^ g_j^ run slab by slab along the leading spectral axis, in slab
temporaries of about `_SLAB_BYTES`: two for `a_pair_sum`, N + 1 for
`a_contract`, which writes each slab's sums back over the g_i spectra,
whose inverses then run in place.  Each call overwrites the buffers it
reads, and every result is a fresh array; no call makes a temporary the
size of a work buffer.

The fields a*g and sum_j a_ij*g_j are stored component-major: each
component is written by its inverse transform straight into a contiguous
row of an (N, N, size) or (N, size) array, and the result is the (size, N,
N) or (size, N) transposed view of it, so `[:, i, j]` and `[:, i]` are
contiguous while the indexing and the bytes stay those of node-major
arrays.

Every transform is a sequence of NumPy 1-D passes that skips the lines
holding only padding.  `_forward` runs a real pass along the last axis of
the data, then complex passes along axes 0, 1, ..., N-2, each over the slab
whose lines still hold data.  `_quadrature` runs unscaled inverse complex
passes along axes 0, ..., N-2 in place, keeping only the valid slice
[0, n) after each, then the unscaled inverse real pass on the last axis,
slab by slab along the leading axis, then the factor 1/P^N.  This is the
pass order, axis order and scaling of pocketfft's n-D real transforms (as
in scipy.fft.rfftn and irfftn), each line goes through the same 1-D plan,
and a line is transformed the same way whether or not its neighbours are,
so the results are bit-identical to the full n-D transforms.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement

import numpy as np

from .errors import ValidationError, read_tagged

# Bytes of one slab of the spectral contraction, or of the output of an
# inverse transform's last-axis pass, rounded down to whole rows of the
# leading axis (at least one, at most all).  The slab
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

    def psi(self, r):
        # psi(0) is the IEEE power 0^p = inf, 1 or 0 for p <, = or > 0; a
        # radius that is not > 0 (-0.0, say) counts as +0.0
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(r > 0, r, 0.0) ** (self.gamma + 2.0)
        return out if out.ndim else float(out)

    def to_json_dict(self):
        return {"kind": "power_law", "gamma": self.gamma}


@dataclass(frozen=True)
class CoulombPsi(PowerLawPsi):
    """psi(r) = 1/r in dimension 3: the power law of gamma = -3, which is
    not a parameter."""

    gamma: float = field(default=-3.0, init=False)

    @property
    def is_coulomb(self):
        return True

    def to_json_dict(self):
        return {"kind": "coulomb"}


# The kernel laws a JSON object can name, with their parameters.
KERNELS = {"coulomb": {}, "power_law": {"gamma": float}}


def psi_spec_from_json(obj):
    """Parse the tagged-union JSON form of a kernel law."""
    params = read_tagged(obj, "kind", KERNELS, "kernel")
    if params["kind"] == "coulomb":
        return CoulombPsi()
    return PowerLawPsi(params["gamma"])


def projection(z):
    """Orthogonal projection onto the hyperplane perpendicular to z."""
    z = np.asarray(z, dtype=float)
    rsq = float(z @ z)
    if rsq == 0:
        raise ValidationError("projection is undefined at z = 0")
    return np.eye(z.size) - np.outer(z, z) / rsq


def _octant_fields(grid, spec):
    """Per-axis z, |z|^2 (1 at z = 0) and psi(|z|) (0 at z = 0) on the
    z >= 0 octant of the node differences, entry k at z = k h on each axis,
    so z = 0 is index 0; the z are an open mesh that broadcasts to the full
    octant."""
    dim = grid.dim
    axis = np.arange(grid.n) * grid.h
    z = [axis.reshape((-1,) + (1,) * (dim - 1 - d)) for d in range(dim)]
    rsq = sum(c**2 for c in z)
    rsq.flat[0] = 1.0
    psi = np.asarray(spec.psi(np.sqrt(rsq)), dtype=float)
    psi.flat[0] = 0.0
    return z, rsq, psi


def _a_table_items(z, rsq, psi):
    """((i, j), a_ij table) for i <= j, made one at a time from the
    `_octant_fields`; each table is zero at z = 0 (the source cell w = v):
    q z_i z_j, q = -psi / |z|^2, with psi added on the diagonal.  z_i z_j is
    a small outer product of the open mesh, so each table takes one
    full-size pass."""
    q = -psi / rsq
    del rsq  # q takes its place
    for i, j in combinations_with_replacement(range(len(z)), 2):
        tab = q * (z[i] * z[j])
        if i == j:
            tab += psi
        tab.flat[0] = 0.0
        yield (i, j), tab


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


def _forward(g, shape, out):
    """Real spectrum of g zero-padded to `shape`, shape[:-1] + (P//2+1,).

    Written into `out`, whatever it held, and returned: only the padding
    the passes read is zeroed, since the passes overwrite the rest.
    """
    data = tuple(slice(m) for m in g.shape[:-1])
    for ax in range(g.ndim - 1):
        out[(slice(None),) * ax + (slice(g.shape[ax], None),) + data[ax + 1:]] = 0
    np.fft.rfft(g, shape[-1], axis=-1, out=out[data])
    for ax in range(g.ndim - 1):
        part = out[(slice(None),) * (ax + 1) + data[ax + 1:]]
        np.fft.fft(part, axis=ax, out=part)
    return out


def _quadrature(grid, spectrum, shape, out=None):
    """h^N times the valid slice [0, n) of the inverse transform, written
    into the flat `out` (a row of the caller's component-major result) or
    a fresh array, and returned.

    The complex passes run in place, so `spectrum` must be a work buffer
    the caller no longer needs.  The real pass runs slab by slab along the
    leading axis, each slab's output about `_SLAB_BYTES`, and only its
    [0, n) is scaled into `out`.
    """
    valid = slice(grid.n)
    x = spectrum
    for ax in range(grid.dim - 1):
        np.fft.ifft(x, axis=ax, norm="forward", out=x)
        x = x[(slice(None),) * ax + (valid,)]
    if out is None:
        out = np.empty(grid.size)
    block = out.reshape(grid.shape)  # a view: out is 1-D with one stride
    P, scale = shape[-1], 1.0 / math.prod(shape)
    rows = max(1, _SLAB_BYTES // (math.prod(x.shape[1:-1]) * P * 8))
    for start in range(0, grid.n, rows):
        part = np.fft.irfft(x[start:start + rows], P, axis=-1, norm="forward")
        np.multiply(part[..., valid], scale, out=block[start:start + rows])
    block *= grid.cell_volume
    return out


def _axis_sums(odd, rows, n, P):
    """(rows, n) matrix of t -> sum_k w_k {cos | sin}(2 pi ((m k) mod P) / P) t_k
    for m in [0, rows): one axis of the spectrum of a period-P table, even
    (cos) or odd (sin) along it, from its entries k in [0, n)."""
    angle = (2 * math.pi / P) * (np.outer(np.arange(rows), np.arange(n)) % P)
    mat = np.sin(angle) if odd else np.cos(angle)
    mat[:, 1:] *= 2
    return mat


def _along(x, ax, mat):
    """The matrix `mat` applied along axis `ax` of x, as one matrix product:
    any axis but the last is moved to the front and back, not applied as a
    batch of small products, which multithreaded BLAS runs slowly."""
    shape = x.shape
    if ax == x.ndim - 1:
        y = x.reshape(-1, shape[-1]) @ mat.T
    else:
        rows = math.prod(shape[:ax])
        front = x.reshape(rows, shape[ax], -1).transpose(1, 0, 2).reshape(shape[ax], -1)
        y = (mat @ front).reshape(len(mat), rows, -1).transpose(1, 0, 2)
    return y.reshape(shape[:ax] + (len(mat),) + shape[ax + 1:])


def _row_parts(P, start, stop):
    """Rows [start, stop) of a full spectrum's leading axis as (part, rows,
    mirrored) items: `part` slices [start, stop) and `rows` slices the
    stored rows [0, H) that hold it, reversed for the mirrored rows
    k >= H, which hold row P - k."""
    H = P // 2 + 1
    parts = []
    if start < H:
        parts.append((slice(0, min(stop, H) - start), slice(start, min(stop, H)), False))
    if stop > H:
        lo = max(start, H)
        parts.append((slice(lo - start, stop - start), slice(P - lo, P - stop, -1), True))
    return parts


class _Layout:
    """What the engine keeps for one (grid layout, kernel).

    The a_ij spectra (i <= j, keyed both ways) and the psi spectrum, each
    of shape (H,) + (P,)*(N-2) + (H,), are made on first use by separable
    cosine and sine sums over the tables' z >= 0 octants, with no transform
    and no work buffer.  The complex half-spectrum work buffers
    `field_hat[k]` are made the first time a call asks for buffer k, so a
    new layout holds none; they only grow in number, are reused by every
    later call, and go with the layout.  Each call overwrites what it reads.
    """

    def __init__(self, grid, spec):
        self.grid, self.spec = grid, spec
        self.shape = _padded_shape(grid)
        half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        self.field_hat = defaultdict(partial(np.empty, half, dtype=complex))
        self._a = self._psi = None

    def _build(self, octants):
        """{key: stored spectrum} of the tables in the (key, octant, odd
        axes) items, one at a time: one matrix product per axis, the last
        and the leading axis (H rows) before the middle ones (P rows), so
        the partial products stay near n^N entries."""
        n, dim, P = self.grid.n, self.grid.dim, self.shape[0]
        H = P // 2 + 1
        rows = [H] + [P] * (dim - 2) + [H]
        order = [dim - 1] + list(range(dim - 1))
        sums = {(odd, m): _axis_sums(odd, m, n, P) for odd in (False, True) for m in set(rows)}
        spectra = {}
        for key, x, odd in octants:
            for ax in order:
                x = _along(x, ax, sums[(ax in odd, rows[ax])])
            if odd:  # each odd axis gives a factor -i, and a_ij, i != j, has two
                np.negative(x, out=x)
            spectra[key] = x
        return spectra

    def a_spectra(self):
        # a_ij is odd along axes i and j when i != j, even along the others
        if self._a is None:
            items = _a_table_items(*_octant_fields(self.grid, self.spec))
            spectra = self._build((ij, tab, {ij[0]} ^ {ij[1]}) for ij, tab in items)
            self._a = {**spectra, **{(j, i): s for (i, j), s in spectra.items()}}
        return self._a

    def psi_spectrum(self):
        if self._psi is None:
            psi = _octant_fields(self.grid, self.spec)[2]
            self._psi = self._build([(None, psi, ())])[None]
        return self._psi

    def spectra_of(self, g, first=0):
        """The spectra of the fields g, written into the work buffers
        first, first + 1, ..."""
        return [_forward(comp, self.shape, out=self.field_hat[first + k])
                for k, comp in enumerate(g)]


# (dim, half_width, n, spec) -> _Layout; one layout only
_LAYOUT = {}


def _layout(grid, spec):
    key = (grid.dim, grid.half_width, grid.n, spec)
    hit = _LAYOUT.get(key)
    if hit is None:
        _LAYOUT.clear()  # drop the old layout before the new one fills
        hit = _LAYOUT[key] = _Layout(grid, spec)
    return hit


def a_columns(grid, spec, g, out=None):
    """(i, j, component a_ij*g, flattened) for i <= j, in
    `itertools.combinations_with_replacement` order, for a scalar field g
    of shape grid.shape: each component a fresh array, or the contiguous
    row out[i, j] of a component-major (N, N, size) `out`.

    One forward transform of g, into the first work buffer, and per
    component one product (`_add_row`) and one inverse, in place in the
    second.  The buffers are in use until the generator is exhausted.
    """
    lay = _layout(grid, spec)
    spectra = lay.a_spectra()
    (g_hat,) = lay.spectra_of([g])
    work = lay.field_hat[1]
    whole = _row_parts(lay.shape[0], 0, lay.shape[0])
    for i, j in combinations_with_replacement(range(grid.dim), 2):
        _add_row(work, None, spectra, i, [(j, g_hat)], whole)
        row = None if out is None else out[i, j]
        yield i, j, _quadrature(grid, work, lay.shape, out=row)


def a_convolve(grid, spec, g):
    """The tensor field a*g for a scalar field g of shape grid.shape:
    (size, N, N), symmetric, the components of `a_columns`.

    Component-major: the (size, N, N) transposed view of an (N, N, size)
    array, whose rows a_ij*g, i <= j, the inverse transforms write, and
    whose mirror rows a_ji*g are one contiguous copy each.
    """
    out = np.empty((grid.dim, grid.dim, grid.size))
    for i, j, column in a_columns(grid, spec, g, out=out):
        if i != j:
            out[j, i] = column
    return out.transpose(2, 0, 1)


def _slabs(spectrum):
    """The shape of a slab temporary for a work-buffer-shaped `spectrum`,
    whole rows of its leading axis of about `_SLAB_BYTES` (at least one, at
    most all), and the (start, stop, parts) of each slab, parts as
    `_row_parts`; the last slab may be short."""
    P = len(spectrum)
    rows = min(P, max(1, _SLAB_BYTES // spectrum[0].nbytes))
    bounds = [(start, min(start + rows, P)) for start in range(0, P, rows)]
    return (rows,) + spectrum.shape[1:], [(a, b, _row_parts(P, a, b)) for a, b in bounds]


def _add_row(acc, term, spectra, i, g_items, parts):
    """acc = sum_j a_ij^ g_j^ over the rows of `parts` (`_row_parts`),
    whatever acc held, j in the order of the (j, g_j^ rows) items, and
    return acc: the first product is written into acc, each later one formed
    in `term` and added.  Every product of a stored spectrum with a field
    spectrum runs here: the contractions slab by slab, `a_columns` and
    `psi_convolve` with one item over the whole leading axis.

    The mirrored rows of an a_0j, j != 0, are negated in the first product
    and subtracted in the others, so the sum is bit for bit the sum over
    the whole expanded spectra started from zeros, but for the sign of an
    exact zero.
    """
    first = True
    for j, g_j in g_items:
        for part, src, mirrored in parts:
            negated = mirrored and (i == 0) != (j == 0)  # a_0j, j != 0, is odd along axis 0
            t = np.multiply(spectra[(i, j)][src], g_j[part], out=(acc if first else term)[part])
            if first:
                if negated:
                    np.negative(t, out=t)
            elif negated:
                acc[part] -= t
            else:
                acc[part] += t
        first = False
    return acc


def a_contract(grid, spec, g):
    """The vector field sum_j a_ij*g_j for g of shape (N,) + grid.shape.

    Returns (size, N), the transposed view of an (N, size) array whose
    contiguous rows the inverse transforms write: one forward transform
    per component of g, into N work buffers, the sum over j taken on the
    spectra slab by slab in N + 1 slab temporaries, each started from its
    first product, and written back over the g_i spectra, and one inverse
    per component i, in place there.
    """
    lay = _layout(grid, spec)
    spectra = lay.a_spectra()
    g_hat = lay.spectra_of(g)
    slab, slabs = _slabs(g_hat[0])
    acc = [np.empty(slab, dtype=complex) for _ in g_hat]
    term = np.empty(slab, dtype=complex)
    for start, stop, parts in slabs:
        g_s = [gh[start:stop] for gh in g_hat]
        acc_s = [a[:stop - start] for a in acc]
        for i, a in enumerate(acc_s):
            _add_row(a, term, spectra, i, enumerate(g_s), parts)
        for dst, a in zip(g_s, acc_s):
            dst[...] = a
    del acc, term  # the slab temporaries
    out = np.empty((grid.dim, grid.size))
    for i, buf in enumerate(g_hat):
        _quadrature(grid, buf, lay.shape, out=out[i])
    return out.T


def _parseval(g_hat, s_hat, edges):
    """The half-spectrum Parseval sum of Re(conj(g_hat) s_hat) over one slab:
    weight 2 on every last-axis bin but the `edges`, weight 1.  The (re, im)
    pair products are written over s_hat and summed pairwise (np.sum)."""
    prod = np.multiply(s_hat.view(float), g_hat.view(float), out=s_hat.view(float))
    prod = prod.reshape(s_hat.shape + (2,))
    return 2.0 * float(np.sum(prod)) - sum(float(np.sum(prod[..., k, :])) for k in edges)


def a_pair_sum(grid, spec, g):
    """sum_ij <g_i, a_ij*g_j> over the nodes for g of shape (N,) +
    grid.shape: the node sum of g times `a_contract(grid, spec, g)`.

    A Parseval sum over the spectra, with no inverse transform and one
    forward transform per component of g, folded in two slab passes into
    max(2, N - 1) work buffers and two slab temporaries (module docstring).
    The slab sums are added in order, which keeps the round-off of a
    dissipation that is a small difference of large sums near the
    node-space value.
    """
    lay = _layout(grid, spec)
    spectra = lay.a_spectra()
    m = grid.dim - 1
    P = lay.shape[-1]
    edges = [0, P // 2] if P % 2 == 0 else [0]  # last-axis bins without a mirror
    g_hat = lay.spectra_of(g[:m])
    slab, slabs = _slabs(g_hat[0])
    acc = np.empty(slab, dtype=complex)
    term = np.empty_like(acc)
    total = 0.0
    for start, stop, parts in slabs:
        g_s = list(enumerate(gh[start:stop] for gh in g_hat))
        a = acc[:stop - start]
        for i, g_i in g_s:
            total += _parseval(g_i, _add_row(a, term, spectra, i, g_s, parts), edges)
        _add_row(a, term, spectra, m, g_s, parts)
        np.add(a, a, out=g_hat[0][start:stop])  # 2w, over the g_0^ rows done with
    w2 = g_hat[0]
    (g_m,) = lay.spectra_of(g[m:], first=1)
    for start, stop, parts in slabs:
        a = acc[:stop - start]
        _add_row(a, term, spectra, m, [(m, g_m[start:stop])], parts)
        a += w2[start:stop]
        total += _parseval(g_m[start:stop], a, edges)
    return total * grid.cell_volume / math.prod(lay.shape)


def psi_convolve(grid, spec, g):
    """psi*g for a scalar field g, flattened; the source cell w = v is
    dropped."""
    lay = _layout(grid, spec)
    psi_hat = lay.psi_spectrum()
    (g_hat,) = lay.spectra_of([g])
    # psi is even along every axis, like a_00
    work = _add_row(lay.field_hat[1], None, {(0, 0): psi_hat}, 0, [(0, g_hat)],
                    _row_parts(lay.shape[0], 0, lay.shape[0]))
    return _quadrature(grid, work, lay.shape)


def collision_coefficients(f, spec):
    """The diffusion matrix A = a*f at every node by quadrature: shape
    (size, N, N), symmetric positive semidefinite at every node, stored
    component-major (`a_convolve`)."""
    return a_convolve(f.grid, spec, f.reshaped())
