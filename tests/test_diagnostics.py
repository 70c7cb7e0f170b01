"""Verification suite plumbing: determinism, report shape, suite coverage."""

import json

import pytest

from tubeke import SUITE_NAMES, TubeParams, run_suite, solve_potential


def test_suite_names():
    assert SUITE_NAMES == ("asymptotics", "origin", "invariance", "einstein",
                           "boundary_limit", "regions")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_for_p1(name, sol_p1):
    report = run_suite(name, TubeParams(p=1), sol_p1, seed=0)
    failed = [c for c in report.checks if not c.passed]
    assert report.overall, f"failed checks: {failed}"
    assert report.suite_name == name
    assert report.p == 1 and report.seed == 0
    assert len(report.checks) >= 3


def test_fast_suites_pass_for_p2(sol_p2):
    for name in ("asymptotics", "origin", "einstein", "boundary_limit"):
        report = run_suite(name, TubeParams(p=2), sol_p2, seed=0)
        assert report.overall, [c for c in report.checks if not c.passed]


def test_reports_are_deterministic(sol_p1):
    params = TubeParams(p=1)
    a = run_suite("einstein", params, sol_p1, seed=7)
    b = run_suite("einstein", params, sol_p1, seed=7)
    assert a.to_dict() == b.to_dict()
    assert a.seed == 7


def test_different_seed_changes_samples(sol_p1):
    params = TubeParams(p=1)
    a = run_suite("einstein", params, sol_p1, seed=0)
    b = run_suite("einstein", params, sol_p1, seed=1)
    observed_a = [c.observed for c in a.checks]
    observed_b = [c.observed for c in b.checks]
    assert observed_a != observed_b


def test_report_dict_is_json_ready(sol_p1):
    report = run_suite("origin", TubeParams(p=1), sol_p1)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["suite"] == "origin"
    assert data["overall"] is True
    assert isinstance(data["checks"], list)
    for check in data["checks"]:
        assert set(check) == {"name", "expected", "observed", "tolerance", "passed"}
        assert isinstance(check["passed"], bool)
        assert isinstance(check["observed"], float)


def test_report_lines_format(sol_p1):
    report = run_suite("einstein", TubeParams(p=1), sol_p1)
    lines = report.lines()
    assert len(lines) == len(report.checks) + 1
    assert all(line.startswith("[PASS]") or line.startswith("[FAIL]")
               for line in lines)
    assert "suite=einstein" in lines[-1]


def test_all_suite_concatenates_with_prefixes(sol_p1):
    report = run_suite("all", TubeParams(p=1), sol_p1, seed=0)
    assert report.suite_name == "all"
    prefixes = {c.name.split("/")[0] for c in report.checks}
    assert prefixes == set(SUITE_NAMES)
    total = sum(len(run_suite(n, TubeParams(p=1), sol_p1).checks)
                for n in SUITE_NAMES)
    assert len(report.checks) == total
    assert report.overall


def test_unknown_suite_rejected(sol_p1):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", TubeParams(p=1), sol_p1)


def test_mismatched_params_rejected(sol_p1):
    with pytest.raises(ValueError, match="does not match"):
        run_suite("origin", TubeParams(p=2), sol_p1)


def test_limit_law_suites_are_refused_above_p5():
    # their thresholds are pinned on p = 1..3: from p = 6 on deriv_laws_k2
    # fails on every seed, and from p = 15 the regions sweep's bis_max <= -0.1
    # is false outright; the identity suites run at every p
    sol = solve_potential(TubeParams(p=6))
    for name in ("asymptotics", "boundary_limit", "regions", "all"):
        with pytest.raises(ValueError, match=(r"runs for p = 1\.\.5, got p = 6: .*; origin, "
                                              r"invariance and einstein run at every p")):
            run_suite(name, sol.params, sol)
    for name in ("origin", "invariance", "einstein"):
        assert run_suite(name, sol.params, sol).overall, name
