"""Complete Kähler-Einstein metrics of the tube domains T_p in C^2.

The domain T_p is the tube over the region Re(4p z1) + Re(z2)^{2p} < 1;
its complete Kähler-Einstein metric (Ricci curvature -3) reduces, by
symmetry, to one convex ODE profile F on (-1, 1) with prescribed blow-up
at the ends.  This package solves for that profile and exposes the
resulting metric tensor, full curvature tensor, holomorphic bisectional
and sectional curvatures, and a battery of verification suites.

Typical use::

    from tubeke import TubeParams, solve_potential, metric_jet, Point
    sol = solve_potential(TubeParams(p=2))
    jet = metric_jet(sol, Point(0.01 + 0.2j, 0.5 - 0.1j))

The ``tubeke`` console script exposes the same functionality as
subcommands (solve, eval, metric, curvature, sweep, verify).

Importing the package registers every submodule in ``sys.modules``
without running it (``importlib.util.LazyLoader``); a submodule's body
runs on the first access to one of its attributes, so a CLI call runs
only the modules its verb uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines; the package's names resolve
# through the submodule on each access, so a function replaced there (by
# a tracer or a test) is seen here and nothing goes stale
_EXPORTS = {
    "params": ("TubeParams", "SUITE_NAMES"),
    "errors": ("DomainError",),
    "potential_solver": ("PotentialSolution", "solve_potential", "load_solution"),
    "tube_geometry": ("Point", "TubeAutomorphism", "BoundaryClass", "RegionClass",
                      "in_domain", "x_invariant", "normalizing_automorphism", "apply",
                      "jacobian", "jacobian_det", "classify_boundary", "region",
                      "in_cone"),
    "metric_tensor": ("XLDerivatives", "MetricJet", "x_derivatives", "metric_jet",
                      "einstein_residual"),
    "curvature": ("CurvatureTensor", "TangentPair", "BisExtremes", "OriginValues",
                  "tensor_from_jet", "bisectional", "bisectional_from_jet",
                  "bisectional_batch", "bis_extremes", "bis_extremes_from_jet",
                  "sectional_max", "sectional_max_from_jet", "boundary_limit_bis",
                  "origin_closed_forms", "extremal_sectional_vector"),
    "diagnostics": ("CheckResult", "SuiteReport", "run_suite"),
    "cli": ("SweepRow", "axis_sweep"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def _register(name: str):
    """Put the submodule in sys.modules and return it, its body not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)
del _name
_HOME = {name: globals()[module] for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
