"""Shared fixtures and references.

Each solved potential is reused across the session.  The feature form
below is the curvature module's earlier Bis path, kept verbatim as the
reference that the g-orthonormal frame split replaced: with
u(v) = [|v1|^2, |v2|^2, Re(v1 conj(v2)), Im(v1 conj(v2))] and
gvec = [g11, g22, 2 g12, 0], Bis(v, w) = u(v)^T C u(w) / ((u(v).gvec)(u(w).gvec)).
bloch_split is the frame split of the jet's curvature tensor, which the
curvature module read before the closed forms replaced it, kept as their
jet-path reference.  reference_extremes is bis_extremes_from_jet as it
built the attaining pairs eagerly, kept as the reference for the pairs
BisExtremes now builds on first read.
"""

import numpy as np
import pytest

from tubeke import CurvatureTensor, TangentPair, TubeParams, curvature, solve_potential
from tubeke.curvature import _largest, _reduced_form, _spinor_vector


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


def _features(v) -> np.ndarray:
    """u(v) of a vector, or a (4, n) array of them for v of shape (2, n)."""
    cross = v[0] * np.conjugate(v[1])
    return np.array([abs(v[0]) ** 2, abs(v[1]) ** 2, cross.real, cross.imag])


def reference_form(jet, tensor: CurvatureTensor) -> tuple[np.ndarray, np.ndarray]:
    """(C, gvec) of the feature bilinear form, conditioned near x = 1.

    Beyond |x| = 0.999 both are pre-scaled by powers of 1/g22 (the same
    magnitude as the 1/f^2 normalization natural near the boundary); the
    Bis ratio is invariant under this joint rescaling but the intermediate
    products stay in comfortable double range.  A stacked jet with a
    stacked tensor gives C of shape (4, 4, n) and gvec of shape (4, n),
    scaled point by point.
    """
    g11, g12, g22 = jet.g
    x = jet.x_value
    if np.ndim(x):
        sc = np.where(np.abs(x) > 0.999, 1.0 / g22, 1.0)
    else:
        sc = 1.0 / g22 if abs(x) > 0.999 else 1.0
    g11, g12, g22 = g11 * sc, g12 * sc, g22 * sc
    sc2 = sc * sc
    R1111 = tensor.R1111 * sc2
    R1112 = tensor.R1112 * sc2
    R1122 = tensor.R1122 * sc2
    R1212 = tensor.R1212 * sc2
    R1222 = tensor.R1222 * sc2
    R2222 = tensor.R2222 * sc2
    zero = 0.0 * sc
    C = np.array([
        [R1111,        R1122,        2.0 * R1112,           zero],
        [R1122,        R2222,        2.0 * R1222,           zero],
        [2.0 * R1112,  2.0 * R1222,  2.0 * (R1122 + R1212), zero],
        [zero,         zero,         zero,                  2.0 * (R1122 - R1212)],
    ])
    gvec = np.array([g11, g22, 2.0 * g12, zero])
    return C, gvec


def _bis_from_form(C, gvec, uv, uw) -> float:
    return float(uv @ C @ uw) / (float(uv @ gvec) * float(uw @ gvec))


def reference_bis(jet, tensor: CurvatureTensor, v, w) -> float:
    """The feature form's Bis(v, w) at a single point's jet."""
    C, gvec = reference_form(jet, tensor)
    return _bis_from_form(C, gvec, _features(v), _features(w))


def bloch_split(jet, tensor: CurvatureTensor) -> tuple:
    """(frame, a, b, M) with Bis(v, w) = a + b.(n + m) + n^T M m in the frame.

    b is (b_x, b_z) and M is (lam_y, Mxx, Mxz, Mzz): the 1x1 block and
    the 2x2 (x, z) block of M; every other entry vanishes.  A stacked jet
    gives arrays.  The split of the jet's tensor, which no door reads: it
    is the jet-path reference the closed forms (curvature._axis_form) are
    tested against.
    """
    al, be, ga = frame = curvature._frame(jet)
    t = tensor
    R1111, R1112, R1122, R1212, R1222, R2222 = (t.R1111, t.R1112, t.R1122, t.R1212,
                                                t.R1222, t.R2222)
    al2, be2, ga2 = al * al, be * be, ga * ga
    al3, be3, two_ab_R1222 = al2 * al, be2 * be, 2.0 * al * be * R1222
    Q2222 = ga2 * ga2 * R2222
    Q1222 = ga2 * ga * (al * R1222 + be * R2222)
    Q1122 = ga2 * (al2 * R1122 + two_ab_R1222 + be2 * R2222)
    Q1212 = ga2 * (al2 * R1212 + two_ab_R1222 + be2 * R2222)
    Q1112 = ga * (al3 * R1112 + al2 * be * (2.0 * R1122 + R1212)
                  + 3.0 * al * be2 * R1222 + be3 * R2222)
    Q1111 = (al2 * al2 * R1111 + 4.0 * al3 * be * R1112
             + al2 * be2 * (4.0 * R1122 + 2.0 * R1212)
             + 4.0 * al * be3 * R1222 + be2 * be2 * R2222)
    a = 0.25 * (Q1111 + 2.0 * Q1122 + Q2222)
    b = (0.5 * (Q1112 + Q1222), 0.25 * (Q1111 - Q2222))
    M = (0.5 * (Q1122 - Q1212), 0.5 * (Q1122 + Q1212), 0.5 * (Q1112 - Q1222),
         0.25 * (Q1111 - 2.0 * Q1122 + Q2222))
    return frame, a, b, M


def reference_extremes(jet, tensor: CurvatureTensor) -> tuple:
    """(min, argmin, max, argmax), the pairs built eagerly as TangentPairs."""
    frame, pairs = _reduced_form(jet, tensor)
    lam, u = _largest(pairs, abs)
    # n^T M u = lam n.u: lam at n = u, -lam at n = -u
    m = _spinor_vector(frame, u)
    flipped = _spinor_vector(frame, tuple(-c for c in u))
    if isinstance(jet.x_value, np.ndarray):
        below = (lam < 0.0)[:, None]
        argmin = TangentPair(v=np.where(below, m, flipped), w=m)
        argmax = TangentPair(v=np.where(below, flipped, m), w=m)
    else:
        same, flipped = TangentPair(v=m, w=m), TangentPair(v=flipped, w=m)
        argmin, argmax = (same, flipped) if lam < 0.0 else (flipped, same)
    return -1.5 - abs(lam), argmin, -1.5 + abs(lam), argmax


@pytest.fixture
def tensor_calls(monkeypatch):
    """The jets curvature's doors build a tensor for (curvature.tensor_from_jet), one entry per call."""
    calls = []
    build = curvature.tensor_from_jet

    def counted(jet):
        calls.append(jet)
        return build(jet)

    monkeypatch.setattr(curvature, "tensor_from_jet", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The jets curvature._axis_form evaluates the axis closed forms for, one entry per call."""
    calls = []
    form = curvature._axis_form

    def counted(jet):
        calls.append(jet)
        return form(jet)

    monkeypatch.setattr(curvature, "_axis_form", counted)
    return calls
