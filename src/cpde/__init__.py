"""Compact fourth-order solvers for 1D parabolic and Schrodinger-type
equations with a variable, time-independent diffusion coefficient.

The package builds two-layer implicit schemes on uniform grids over
[0, 2 pi]: a six-point compact scheme whose coefficients come from a
local exponential-of-quartic fit of the coefficient, and the classic
second-order implicit scheme it is benchmarked against.  Both kinds of
equation (real diffusion and complex Schrodinger-type) share the same
assembly; experiment drivers live in cpde.analysis and the `cpde`
command line.
"""

from .core import (
    Dirichlet,
    Grid1D,
    Neumann,
    ProblemSpec,
    SampleSolution,
    ScalarKind,
    grid_for,
    make_grid,
    sample_solution,
    theta_grid_max,
)
from .interior import CompactRow, CUT_FULL, assemble_row, derive_row_oracle
from .linalg import (
    EigenConvergenceError,
    RankError,
    SingularMatrixError,
    Tridiag,
    solve_dense,
    solve_tridiag,
)
from .neumann import (
    BoundaryRow,
    ClassicNeumann,
    CompactThreePoint,
    MainTerms,
    ReducedTwoPoint,
    boundary_oracle,
    build_left_row,
    build_right_row,
)
from .steppers import (
    Classic,
    ClassicRhsVariant,
    Compact,
    SchemeMatrices,
    StepReport,
    assemble_classic,
    assemble_compact,
    c_norm_error,
    dense_operators,
    run,
    step,
)
from .theta_fit import (
    CoefficientDomainError,
    ExpFit,
    fit_boundary_left,
    fit_boundary_right,
    fit_interior,
)
from .analysis import (
    ConvergenceReport,
    asymmetry,
    asymmetry_study,
    convergence_study,
    cut_study,
    efficiency_curve,
    first_integral,
    first_integral_drift,
    negativity_threshold,
    richardson,
    richardson_study,
    spectrum_report,
    transition_matrix,
)

__version__ = "0.1.0"
