"""The package's public names: one export table, resolved lazily."""

import pytest

import tubeke
from tubeke import diagnostics

PUBLIC = [
    "TubeParams", "DomainError", "BracketError", "MaxStepsError",
    "PotentialSolution", "solve_potential", "load_solution", "solution_from_dict",
    "integral_identity_residuals",
    "Point", "TubeAutomorphism", "BoundaryClass", "RegionClass", "in_domain",
    "x_invariant", "normalizing_automorphism", "apply", "jacobian", "jacobian_det",
    "classify_boundary", "region", "in_cone",
    "XLDerivatives", "MetricJet", "x_derivatives", "metric_jet",
    "einstein_residual",
    "CurvatureTensor", "TangentPair", "BisExtremes", "OriginValues",
    "tensor_from_jet", "bisectional", "bisectional_from_jet",
    "bisectional_batch", "bis_extremes",
    "bis_extremes_from_jet", "sectional_max", "sectional_max_from_jet",
    "boundary_limit_bis", "origin_closed_forms",
    "extremal_sectional_vector",
    "CheckResult", "SuiteReport", "SUITE_NAMES", "run_suite", "SweepRow", "axis_sweep",
]


def test_public_names_are_unchanged_and_all_resolve():
    assert len(PUBLIC) == len(set(PUBLIC)) == 48
    assert len(tubeke.__all__) == len(set(tubeke.__all__))
    assert set(tubeke.__all__) == set(PUBLIC)
    namespace = {}
    exec("from tubeke import *", namespace)
    listed = dir(tubeke)
    for name in PUBLIC:
        value = getattr(tubeke, name)
        assert namespace[name] is value
        assert name in listed
        # each name is its defining submodule's own object
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("tubeke."):
            assert getattr(getattr(tubeke, home[7:]), name) is value


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(tubeke, "no_such_name")


def test_names_are_looked_up_in_their_module_each_time(monkeypatch):
    # a function replaced in its module is what the package hands out,
    # and the original is back once the replacement is undone
    original = tubeke.metric_jet
    monkeypatch.setattr(tubeke.metric_tensor, "metric_jet", len)
    assert tubeke.metric_jet is len
    monkeypatch.undo()
    assert tubeke.metric_jet is original
    assert "metric_jet" not in vars(tubeke)


def test_suite_names_are_the_suites():
    assert tubeke.SUITE_NAMES is diagnostics.SUITE_NAMES == tuple(diagnostics._SUITES)
