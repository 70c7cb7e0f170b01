"""Shared fixtures: one solved potential per p, reused across the session."""

import pytest

from tubeke import TubeParams, solve_potential


@pytest.fixture(scope="session")
def sol_p1():
    return solve_potential(TubeParams(p=1))


@pytest.fixture(scope="session")
def sol_p2():
    return solve_potential(TubeParams(p=2))


@pytest.fixture(scope="session")
def sol_p3():
    return solve_potential(TubeParams(p=3))


@pytest.fixture(scope="session")
def sols(sol_p1, sol_p2, sol_p3):
    return {1: sol_p1, 2: sol_p2, 3: sol_p3}


@pytest.fixture(scope="session")
def five_sols(sols):
    return {**sols, 5: solve_potential(TubeParams(p=5)), 8: solve_potential(TubeParams(p=8))}
