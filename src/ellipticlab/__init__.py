"""Numerical laboratory for discrete elliptic differential inequalities.

Manufactures grid functions satisfying -lam_lo <= F_h(D2 u) <= lam_hi,
certifies the inequalities in a discrete viscosity sense, and probes interior
C^{1,beta} regularity through oscillation decay, blow-up rescaling and
mollification.
"""

__version__ = "0.1.0"

from .grids import (
    Ball,
    Domain,
    Grid,
    GridFunction,
    SymMatrix,
    ball_values,
    oscillation,
    read_grid_function,
    resample,
    square_grid,
    write_grid_function,
)
from .operators import (
    EllipticityParams,
    EllipticOperator,
    PropertyReport,
    check_homogeneity,
    check_uniform_ellipticity,
    linear_operator,
    max_of_linear,
    op_eval,
    parse_operator,
    pucci_max,
    pucci_min,
    trace_operator,
)
from .stencils import (
    StencilReachError,
    discrete_hessian,
    eval_discrete,
    operator_margin,
)
from .solvers import (
    ObstacleProblem,
    SolverError,
    SolveResult,
    solve_dirichlet,
    solve_obstacle,
)
from .simplex import MinimaxFit, minimax_affine
from .viscosity import (
    Bounds,
    LimitStabilityReport,
    TouchingDictionary,
    ViscosityReport,
    check_pointwise,
    check_touching,
    default_tolerance,
    limit_stability_experiment,
    make_touching_dictionary,
    quartic_perturb,
)
from .decay import (
    CertificationError,
    DecayConfig,
    DecayProfile,
    RescaleSequence,
    RescaleState,
    best_affine,
    decay_profile,
    normalize,
    rescale_sequence,
    verify_decay_chain,
)
from .mollify import SweepRow, hessian_lp_norm, mollify, stability_sweep
from .fixtures import (
    build_fixture,
    disc_problem,
    fixture_callable,
    limit_families,
)
