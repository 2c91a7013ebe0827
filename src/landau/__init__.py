"""Landau collision operator library: grids, kernels, functionals,
inequality verification, and a conservative solver for the spatially
homogeneous equation. Import each name from its defining module; the
package root holds only the version."""

__version__ = "1.0.0"
