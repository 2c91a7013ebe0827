"""Seeded workload inputs and the benchmark's own NumPy reference values.

The seed only draws input parameters; the program sees the generated
configs and state files.  Parameter ranges are narrow on purpose: the
metrics of runs with different seeds are compared with each other, so a
seed changes the inputs without changing the size of the work.
"""

import json

import numpy as np

SUITES = ["edd_radial", "sobolev", "young", "gamma_floor", "interpolation", "moment_condition"]

RELAX_STEPS = 20
RELAX_CADENCE = 10
RELAX_GRID = (3, 3.0, 24)
VERIFY_RESOLUTIONS = [16, 24, 32]
VERIFY_HALF_WIDTH = 6.0
FUNCTIONAL_GRID = (3, 5.0, 32)
FUNCTIONAL_FAMILIES = ["bimaxwellian", "anisotropic", "shell", "mixture", "perturbed"]

# Nodes at or below this value are left out of log-gradient functionals,
# as the program does.
EPS_FLOOR = 1e-30


def _around(rng, centre, rel):
    return centre * (1.0 + rel * (2.0 * rng.random() - 1.0))


def relax_config(rng):
    """Reference relaxation: 3-D Coulomb bimaxwellian, 24^3 nodes, L = 3."""
    return {
        "psi": {"kind": "coulomb"},
        "grid": dict(zip(("dim", "half_width", "nodes_per_axis"), RELAX_GRID)),
        "initial": {
            "kind": "bimaxwellian",
            "params": {
                "separation": _around(rng, 1.5, 0.005),
                "temperature": _around(rng, 0.45, 0.005),
            },
            "normalize": False,
        },
        "steps": RELAX_STEPS,
        "cadence": RELAX_CADENCE,
    }


def verify_config(rng):
    families = [
        {"kind": "maxwellian", "params": {"temperature": _around(rng, 1.0, 0.05)},
         "normalize": True},
        {"kind": "radial_shell",
         "params": {"radius": _around(rng, 2.0, 0.005), "width": _around(rng, 0.5, 0.005)},
         "normalize": True},
        {"kind": "radial_heavy_tail", "params": {"exponent": _around(rng, 4.0, 0.005)},
         "normalize": True},
    ]
    return {
        "psi": {"kind": "coulomb"},
        "grid": {"dim": 3, "half_width": VERIFY_HALF_WIDTH},
        "resolutions": list(VERIFY_RESOLUTIONS),
        "suites": list(SUITES),
        "families": families,
    }


# ---------------------------------------------------------------------------
# functional states: generated here, with their analytic log-gradient


def _coords(n, half_width):
    h = 2.0 * half_width / n
    axis = -half_width + (np.arange(n) + 0.5) * h
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), h


def _gauss(v, mean, var):
    """Unnormalized anisotropic Gaussian and its gradient."""
    d = v - mean
    g = np.exp(-0.5 * np.sum(d * d / var, axis=1))
    return g, -(d / var) * g[:, None]


def functional_state(kind, rng):
    """(values, grad values) of one seeded 32^3 state, mass 1 on the grid."""
    v, h = _coords(FUNCTIONAL_GRID[2], FUNCTIONAL_GRID[1])
    if kind == "bimaxwellian":
        u = np.array([0.5 * _around(rng, 1.6, 0.03), 0.0, 0.0])
        t = _around(rng, 0.6, 0.03)
        g1, d1 = _gauss(v, u, t)
        g2, d2 = _gauss(v, -u, t)
        f, df = g1 + g2, d1 + d2
    elif kind == "anisotropic":
        var = np.array([_around(rng, 0.7, 0.03), _around(rng, 1.0, 0.03),
                        _around(rng, 1.4, 0.03)])
        f, df = _gauss(v, 0.0, var)
    elif kind == "shell":
        radius, width = _around(rng, 2.0, 0.01), _around(rng, 0.6, 0.01)
        r = np.sqrt(np.sum(v * v, axis=1))
        f = np.exp(-((r - radius) ** 2) / (2.0 * width**2))
        df = (-(r - radius) / width**2 * f / r)[:, None] * v
    elif kind == "mixture":
        t1, t2 = _around(rng, 0.6, 0.03), _around(rng, 1.6, 0.03)
        g1, d1 = _gauss(v, 0.0, t1)
        g2, d2 = _gauss(v, 0.0, t2)
        w1, w2 = t1**-1.5, t2**-1.5  # equal masses
        f, df = w1 * g1 + w2 * g2, w1 * d1 + w2 * d2
    elif kind == "perturbed":
        # the finite-difference error of the wave depends on its direction
        # and phase, so those are only jittered
        t = _around(rng, 1.0, 0.03)
        k = np.array([1.0, 0.6, 0.3]) + 0.02 * rng.normal(size=3)
        k *= _around(rng, 1.0, 0.03) / np.linalg.norm(k)
        phase, amp = _around(rng, 0.8, 0.03), _around(rng, 0.3, 0.03)
        g, dg = _gauss(v, 0.0, t)
        wave = 1.0 + amp * np.cos(v @ k + phase)
        dwave = -amp * np.sin(v @ k + phase)[:, None] * k[None, :]
        f, df = g * wave, dg * wave[:, None] + g[:, None] * dwave
    else:
        raise ValueError(f"unknown family {kind!r}")
    scale = 1.0 / (float(np.sum(f)) * h**3)
    return f * scale, df * scale


def write_state(path, values):
    dim, half_width, n = FUNCTIONAL_GRID
    with open(path, "w") as fh:
        json.dump({"dim": dim, "half_width": half_width, "nodes_per_axis": n,
                   "values": values.tolist()}, fh)


def state_sums(path):
    """Mass and energy of a state file, summed here with NumPy."""
    with open(path) as fh:
        obj = json.load(fh)
    f = np.asarray(obj["values"], dtype=float)
    v, h = _coords(obj["nodes_per_axis"], obj["half_width"])
    return h**3 * float(np.sum(f)), 0.5 * h**3 * float(np.sum(f * np.sum(v * v, axis=1)))


def reference_dissipation(values, grad):
    """Coulomb entropy dissipation with the exact log-gradient.

    Same pair quadrature as the program (a_ij kernel tables on the
    difference grid, source cell excluded, nodes below the floor left out),
    but xi = grad f / f is analytic instead of a finite difference, so the
    gap to the program's D is its discretization error in xi.
    """
    from scipy.signal import fftconvolve

    dim, half_width, n = FUNCTIONAL_GRID
    v, h = _coords(n, half_width)
    mask = values > EPS_FLOOR
    xi = np.where(mask[:, None], grad / np.where(mask, values, 1.0)[:, None], 0.0)
    shape = (n,) * dim
    F = np.where(mask, values, 0.0).reshape(shape)
    G = [(F.ravel() * xi[:, i]).reshape(shape) for i in range(dim)]
    axis = (np.arange(2 * n - 1) - (n - 1)) * h
    z = np.meshgrid(axis, axis, axis, indexing="ij")
    rsq = sum(c * c for c in z)
    centre = (n - 1,) * dim
    rsq[centre] = 1.0
    psi = 1.0 / np.sqrt(rsq)
    total = 0.0
    for i in range(dim):
        for j in range(i, dim):
            tab = psi * ((1.0 if i == j else 0.0) - z[i] * z[j] / rsq)
            tab[centre] = 0.0
            H = G[i] * xi[:, j].reshape(shape)
            mult = 1.0 if i == j else 2.0
            total += mult * (float(np.sum(H * fftconvolve(tab, F, mode="valid")))
                             - float(np.sum(G[i] * fftconvolve(tab, G[j], mode="valid"))))
    return h ** (2 * dim) * total
