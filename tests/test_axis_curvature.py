"""The closed-form axis kernel behind the curvature extremes.

On the axis z = (0, x) the g-orthonormal frame components of R are closed
forms in (x, f, Z = e^{3F}) (tools/derive_axis_curvature.py), and the
extremes at any point read them at its X, up to the grid end.  The oracles: the p=1 ball,
M = -I/2, with the exact profile injected; the jet path's split on
|x| <= 0.99; the center's closed forms; and the large-p limit of bis_min
at x = 1 - 1/p (ROADMAP item 13's Phi(1) = -2.23188...).
"""

import numpy as np
import pytest

from tubeke import (
    Point,
    TubeParams,
    bis_extremes,
    metric_jet,
    origin_closed_forms,
    sectional_max,
    solve_potential,
    tensor_from_jet,
)
from tubeke.curvature import _AXIS_COMPONENTS, _axis_components, _axis_form
from tubeke._axis_coefficients import NUMERATORS

from conftest import bloch_split


def axis(xs) -> Point:
    xs = np.asarray(xs, dtype=float)
    return Point(np.zeros(len(xs), complex), xs.astype(complex))


@pytest.fixture(scope="module")
def sol_p1000():
    return solve_potential(TubeParams(p=1000))


def exact_p1():
    """A p=1 solution whose profile derivatives are the closed form, at any |x| < 1.

    f = 2x/w with w = (1 - x)(1 + x), 1 - x exact, and its derivatives.
    """
    sol = solve_potential(TubeParams(p=1))

    def eval_f_derivs(x, max_order=3):
        w = (1.0 - x) * (1.0 + x)
        x2 = x * x
        return [2.0 * x / w, 2.0 * (1.0 + x2) / w ** 2, 4.0 * x * (3.0 + x2) / w ** 3,
                12.0 * (1.0 + 6.0 * x2 + x2 * x2) / w ** 4][:max_order + 1]

    object.__setattr__(sol, "eval_f_derivs", eval_f_derivs)
    return sol


def test_the_table_holds_the_components_the_kernel_reads():
    # the generated table carries no component that _axis_components never reads
    assert tuple(NUMERATORS) == _AXIS_COMPONENTS


def test_the_exact_p1_profile_gives_the_ball_to_rounding():
    sol = exact_p1()
    for d in (1e-1, 1e-4, 1e-8, 1e-12, 1e-15):
        jet = metric_jet(sol, Point(0j, complex(1.0 - d)))
        lam_y, mxx, mxz, mzz = _axis_form(jet)[1]
        assert max(abs(lam_y + 0.5), abs(mxx + 0.5), abs(mxz), abs(mzz + 0.5)) <= 1e-14, d


@pytest.mark.parametrize("p, tol", [(1, 5e-10), (2, 2e-11), (3, 2e-11), (5, 2e-11),
                                    (8, 2e-11), (1000, 2e-11)])
def test_the_kernel_agrees_with_the_jet_path(p, tol, five_sols, sol_p1000):
    sol = sol_p1000 if p == 1000 else five_sols[p]
    jet = metric_jet(sol, axis(np.linspace(-0.99, 0.99, 199)))
    kernel = _axis_form(jet)[1]
    split = bloch_split(jet, tensor_from_jet(jet))[3]
    assert max(np.max(np.abs(a - b)) for a, b in zip(kernel, split)) <= tol


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 1000])
def test_the_kernel_gives_the_center_closed_forms(p, five_sols, sol_p1000):
    sol = sol_p1000 if p == 1000 else five_sols[p]
    closed = origin_closed_forms(TubeParams(p=p))
    ext = bis_extremes(sol, Point(0j, 0j))
    sect = sectional_max(sol, Point(0j, 0j))[0]
    assert abs(ext.min - float(closed.bis_min)) <= 1e-15
    assert abs(ext.max - float(closed.bis_max)) <= 1e-15
    assert abs(sect - float(closed.sect_max)) <= 1e-15


def test_the_solved_p1_profile_gives_the_ball_up_to_the_grid_end(sol_p1):
    # at every node, between nodes, and log-spaced up to x_max, on both sides
    xs = sol_p1.xs
    tail = 1.0 - np.logspace(-1.0, np.log10(1.0 - sol_p1.x_max), 200)
    x = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), tail[tail <= sol_p1.x_max]])
    x = np.concatenate([x, -x])
    ext, (sect, _) = bis_extremes(sol_p1, axis(x)), sectional_max(sol_p1, axis(x))
    assert max(np.max(np.abs(ext.min + 2.0)), np.max(np.abs(ext.max + 1.0)),
               np.max(np.abs(sect + 2.0))) <= 1e-12


def test_extremes_answer_the_ball_where_the_jet_path_refused(sol_p1):
    # p=1 at 1 - x = 1e-5: the jet path's defect reads 1.3 there
    z = Point(0j, complex(1.0 - 1e-5))
    ext = bis_extremes(sol_p1, z)
    assert abs(ext.min + 2.0) <= 1e-8 and abs(ext.max + 1.0) <= 1e-8
    assert abs(sectional_max(sol_p1, z)[0] + 2.0) <= 1e-8


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_extremes_answer_up_to_the_grid_end(p, five_sols):
    sol = five_sols[p]
    xs = np.concatenate([np.linspace(-0.99, 0.99, 199),
                         1.0 - np.geomspace(1e-2, 1.0 - sol.x_max, 800), [sol.x_max]])
    ext = bis_extremes(sol, axis(xs))
    sect = sectional_max(sol, axis(xs))[0]
    assert np.all(ext.min <= ext.max) and np.all(ext.max < 0.0) and np.all(sect < 0.0)
    if p == 1:
        # the ball's (-2, -1, -2), 7.3e-9 off at the grid end
        assert max(np.max(np.abs(ext.min + 2.0)), np.max(np.abs(ext.max + 1.0)),
                   np.max(np.abs(sect + 2.0))) <= 1e-8


def test_large_p_bis_min_at_one_over_p_from_the_boundary(sol_p1000):
    # bis_min there depends on p(1 - x) alone as p grows: -2.233041 at
    # p = 100, -2.231993 at 1000 and -2.231888 at 20000
    assert abs(bis_extremes(sol_p1000, Point(0j, complex(1.0 - 1e-3))).min + 2.23199) <= 1e-5


@pytest.mark.parametrize("p", [1, 2, 1000])
def test_stacked_kernel_rows_equal_single_calls(p, five_sols, sol_p1000):
    sol = sol_p1000 if p == 1000 else five_sols[p]
    xs = [0.0, -0.0, 0.3, -0.7, 0.999, 1.0 - 1e-6, sol.x_max]
    f, Z = sol.eval_f_derivs(np.array(xs), 0)[0], sol.eval_Z(np.array(xs), 0)[0]
    stacked = _axis_components(p, np.array(xs), f, Z)
    for i, x in enumerate(xs):
        single = _axis_components(p, x, float(f[i]), float(Z[i]))
        assert all(type(q) is float for q in single)
        assert [q[i] for q in stacked] == list(single), x
