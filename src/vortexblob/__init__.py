"""Planar vortex-blob method with exactly conservative time integration.

The package provides:

* :mod:`vortexblob.expint` -- the exponential integral E1 to near machine
  precision on the range the blob Hamiltonians need,
* :mod:`vortexblob.model` -- blob systems, the induced-velocity ODEs,
  conserved quantities, and grid initialization,
* :mod:`vortexblob.conservative` -- the discrete vector field of the
  conservative scheme, built from divided differences of the pair potential,
* :mod:`vortexblob.integrators` -- the explicit Runge-Kutta methods, the
  implicit midpoint and conservative steps, and the trajectory drivers,
* :mod:`vortexblob.reference` -- exact reference solutions, error metrics,
  quadrature, and order fitting,
* :mod:`vortexblob.cli` -- the batch experiment command-line driver.
"""

from .conservative import (
    CTauParams,
    c_tau,
    c_tau_closed,
    c_tau_taylor,
    discrete_multiplier_residuals,
    dmm_residual,
    dmm_rhs,
)
from .errors import (
    ConfigurationError,
    DomainError,
    PairDegeneracyError,
    SolverFailureError,
    VortexBlobError,
)
from .expint import e1_reference, exp_integral_e1
from .integrators import (
    METHODS,
    RunRecord,
    SolverConfig,
    StepOutcome,
    advance,
    dmm_step,
    imm_step,
    integrate,
    rk4_step,
    rm2_step,
    rm4_step,
)
from .model import (
    BlobSystem,
    ConservedSet,
    State,
    blob_vorticity,
    conserved,
    cutoff,
    cutoff_over_r2,
    init_grid,
    initial_vorticity,
    pair_potential,
    rhs,
    velocity_field,
)
from .reference import (
    OrderFit,
    QuadratureRule,
    exact_conserved_integrals,
    exact_velocity,
    fit_order,
    four_vortex_exact,
    four_vortex_ring,
    ring_angular_velocity,
    spatial_error,
    temporal_error,
)

__all__ = [
    "BlobSystem",
    "CTauParams",
    "ConfigurationError",
    "ConservedSet",
    "DomainError",
    "METHODS",
    "OrderFit",
    "PairDegeneracyError",
    "QuadratureRule",
    "RunRecord",
    "SolverConfig",
    "SolverFailureError",
    "State",
    "StepOutcome",
    "VortexBlobError",
    "advance",
    "blob_vorticity",
    "c_tau",
    "c_tau_closed",
    "c_tau_taylor",
    "conserved",
    "cutoff",
    "cutoff_over_r2",
    "discrete_multiplier_residuals",
    "dmm_residual",
    "dmm_rhs",
    "dmm_step",
    "e1_reference",
    "exact_conserved_integrals",
    "exact_velocity",
    "exp_integral_e1",
    "fit_order",
    "four_vortex_exact",
    "four_vortex_ring",
    "imm_step",
    "init_grid",
    "initial_vorticity",
    "integrate",
    "pair_potential",
    "rhs",
    "ring_angular_velocity",
    "rk4_step",
    "rm2_step",
    "rm4_step",
    "spatial_error",
    "temporal_error",
    "velocity_field",
]

__version__ = "0.1.0"
