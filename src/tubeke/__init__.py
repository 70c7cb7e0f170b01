"""Complete Kähler-Einstein metrics of the tube domains T_p in C^2.

The domain T_p is the tube over the region Re(4p z1) + Re(z2)^{2p} < 1;
its complete Kähler-Einstein metric (Ricci curvature -3) reduces, by
symmetry, to one convex ODE profile F on (-1, 1) with prescribed blow-up
at the ends.  This package shoots for that profile and exposes the
resulting metric tensor, full curvature tensor, holomorphic bisectional
and sectional curvatures, and a battery of verification suites.

Typical use::

    from tubeke import TubeParams, solve_potential, metric_jet, Point
    sol = solve_potential(TubeParams(p=2))
    jet = metric_jet(sol, Point(0.01 + 0.2j, 0.5 - 0.1j))

The ``tubeke`` console script exposes the same functionality as
subcommands (solve, eval, metric, curvature, sweep, verify).
"""

from .errors import BracketError, DomainError, MaxStepsError
from .params import ShootingConfig, TubeParams
from .potential_solver import (
    PotentialSolution,
    eval_F,
    eval_f_derivs,
    eval_Z,
    integral_identity_residuals,
    load_solution,
    ode_rhs,
    solution_from_dict,
    solve_potential,
)
from .tube_geometry import (
    BoundaryClass,
    Point,
    RegionClass,
    TubeAutomorphism,
    apply,
    classify_boundary,
    in_cone,
    in_domain,
    jacobian,
    jacobian_det,
    normalizing_automorphism,
    region,
    x_invariant,
)
from .metric_tensor import (
    MetricJet,
    StackedJet,
    XLDerivatives,
    einstein_residual,
    einstein_residual_batch,
    metric_jet,
    metric_jet_batch,
    stacked_jet,
    x_derivatives,
)
from .curvature import (
    BisExtremes,
    CurvatureTensor,
    OriginValues,
    TangentPair,
    bis_extremes,
    bis_extremes_from_jet,
    bisectional,
    bisectional_batch,
    bisectional_from_jet,
    boundary_limit_bis,
    boundary_limit_batch,
    curvature_tensor,
    extremal_sectional_vector,
    origin_closed_forms,
    sectional,
    sectional_max,
    sectional_max_from_jet,
    stacked_bisectional,
    stacked_tensor,
    tensor_from_jet,
)
from .diagnostics import SUITE_NAMES, CheckResult, SuiteReport, run_suite
from .cli import SweepRow, axis_sweep

__version__ = "0.1.0"

__all__ = [
    "TubeParams",
    "ShootingConfig",
    "DomainError",
    "BracketError",
    "MaxStepsError",
    "PotentialSolution",
    "solve_potential",
    "load_solution",
    "solution_from_dict",
    "ode_rhs",
    "eval_F",
    "eval_f_derivs",
    "eval_Z",
    "integral_identity_residuals",
    "Point",
    "TubeAutomorphism",
    "BoundaryClass",
    "RegionClass",
    "in_domain",
    "x_invariant",
    "normalizing_automorphism",
    "apply",
    "jacobian",
    "jacobian_det",
    "classify_boundary",
    "region",
    "in_cone",
    "XLDerivatives",
    "MetricJet",
    "StackedJet",
    "x_derivatives",
    "metric_jet",
    "metric_jet_batch",
    "stacked_jet",
    "einstein_residual",
    "einstein_residual_batch",
    "CurvatureTensor",
    "TangentPair",
    "BisExtremes",
    "OriginValues",
    "curvature_tensor",
    "tensor_from_jet",
    "stacked_tensor",
    "bisectional",
    "bisectional_from_jet",
    "bisectional_batch",
    "stacked_bisectional",
    "sectional",
    "bis_extremes",
    "bis_extremes_from_jet",
    "sectional_max",
    "sectional_max_from_jet",
    "boundary_limit_bis",
    "boundary_limit_batch",
    "origin_closed_forms",
    "extremal_sectional_vector",
    "CheckResult",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "SweepRow",
    "axis_sweep",
]
