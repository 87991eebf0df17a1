"""Mixed finite element solver for the 2D wave equation with a
posteriori error estimators.

The displacement-stress pair (u, sigma = -A grad u) is approximated in
Raviart-Thomas / discontinuous polynomial spaces with a first-order
implicit time scheme; computable estimators bound the displacement and
stress errors in the L-infinity(L2) norms.
"""

__version__ = "0.1.0"

from .assembly import Coefficient, assemble_system
from .estimators import (
    EstimatorReport,
    SpatialEstimate,
    TemporalEstimate,
    compose_report,
    spatial_estimate,
    temporal_estimate,
)
from .mesh import (
    Mesh,
    build_mesh,
    read_mesh,
    refine_uniform,
    two_triangle_square,
    unit_square_mesh,
    write_mesh,
)
from .reconstruction import (
    C1Interpolant,
    EllipticReconstruction,
    c1_build,
    c1_eval,
    enrich_space,
    mu,
    reconstruct_trajectory,
)
from .solver import TimeGrid, Trajectory, run, uniform_grid
from .spaces import MixedSpace, fortin_interpolate, l2_project_scalar
from .verification import (
    ManufacturedProblem,
    StudyResult,
    manufactured,
    run_spatial_study,
    run_temporal_study,
    standing_wave,
    true_error,
    variable_coefficient,
)
