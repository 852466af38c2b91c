"""coulombflow: numerical laboratory for a repulsive Coulomb aggregation
equation with nonlinear mobility on the unit torus.

Core pieces: spectral Coulomb solves on cell-centered torus grids, an
explicit conservative finite-volume integrator with vanishing viscosity,
scalar comparison dynamics for max/min barriers, decreasing rearrangement
post-processing, analytic front ODE systems for the rearranged
Hamilton-Jacobi problem, and a verification layer that turns the model's
structural inequalities into machine-checked reports.
"""

from coulombflow.barrier_ode import (
    BarrierParams,
    lower_barrier,
    phi,
    phi_curve,
    phi_envelopes,
    tau_half,
    upper_regularization,
)
from coulombflow.hj_fronts import (
    SingleVortexState,
    SupersolutionState,
    TwoVortexState,
    integrate_single_vortex,
    integrate_supersolution,
    integrate_two_vortex,
)
from coulombflow.pde_solver import SolverConfig, Trajectory, run, step
from coulombflow.rearrangement import (
    RearrangedProfile,
    rearrange,
    support_measure,
    waiting_time_indicator,
)
from coulombflow.torus_field import (
    ScalarField,
    TorusGrid,
    coulomb_field,
    coulomb_potential,
    hminus1_norm,
    interaction_energy,
    lp_norm,
    make_grid,
    mean,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierParams",
    "RearrangedProfile",
    "ScalarField",
    "SingleVortexState",
    "SolverConfig",
    "SupersolutionState",
    "TorusGrid",
    "Trajectory",
    "TwoVortexState",
    "coulomb_field",
    "coulomb_potential",
    "hminus1_norm",
    "integrate_single_vortex",
    "integrate_supersolution",
    "integrate_two_vortex",
    "interaction_energy",
    "lower_barrier",
    "lp_norm",
    "make_grid",
    "mean",
    "phi",
    "phi_curve",
    "phi_envelopes",
    "rearrange",
    "run",
    "step",
    "support_measure",
    "tau_half",
    "upper_regularization",
    "waiting_time_indicator",
    "__version__",
]
