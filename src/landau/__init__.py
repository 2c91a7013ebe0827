"""Landau collision operator library: grids, kernels, functionals,
inequality verification, and a conservative solver for the spatially
homogeneous equation."""

from .errors import (
    DegeneracyError,
    NumericError,
    ResourceError,
    ValidationError,
)
from .grid import (
    DiscreteDistribution,
    NormalizationTransform,
    VelocityGrid,
    build_grid,
    gradient_sqrt,
    integrate,
    normalize,
)
from .kernels import (
    CoulombPsi,
    PowerLawPsi,
    collision_coefficients,
    projection,
    psi_spec_from_json,
)
from .functionals import (
    GammaDeterminant,
    MomentSummary,
    entropy_dissipation,
    gamma_determinant,
    moments,
    reconstruct_log_gradient_field,
    weighted_fisher,
    weighted_lp,
)
from .inequalities import (
    InequalityReport,
    check_edd_theorem,
    check_gamma_lower_bound,
    check_interpolation,
    check_sobolev,
    check_young,
    moment_condition,
)
from .solver import (
    SolverConfig,
    TestFunction,
    TimeSeries,
    assemble_operator,
    lp_energy_balance,
    moment_tracking,
    run,
    step,
    weak_form_rhs,
)
from .families import DistributionSpec, generate_distribution

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
