"""Hard points through every geometry and metric door: right or refused.

One seeded pass over points built from hard floats (signed zeros, the
smallest subnormal, the largest finite scale, infinities and NaN, the ulp
neighbours of 1 and of the raw jet's depth bound _R_MAX, and 1 - 1e-k) in
each real and imaginary part, and over the containers a point can come in
(Python complex, numpy scalar, 0-d array, a stack, an empty stack).  Each
call either gives the bits of its clean equivalent, or raises DomainError
or ValueError with a message; `tubeke metric` exits 2 with one line on
stderr.  A point with an infinite or NaN coordinate is no point of T_p:
the predicates read False and every other door refuses it.  The clean
equivalent of a finite point is the point with its imaginary parts
translated away, since every door but in_cone reads the real parts alone;
in_cone's is the point reflected by (z1, z2) -> (conj z1, -z2).  A stacked
row is held to the single call, and a stack that holds a refused point
is refused naming the first one.
"""

import json
import math
import re
import warnings
from enum import Enum

import numpy as np
import pytest

from tubeke import (
    BoundaryClass,
    DomainError,
    MetricJet,
    Point,
    XLDerivatives,
    classify_boundary,
    einstein_residual,
    in_cone,
    in_domain,
    metric_jet,
    region,
    x_derivatives,
    x_invariant,
)
from tubeke.cli import main
from tubeke.metric_tensor import _R_MAX

ULPS = (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
        math.nextafter(_R_MAX, 0.0), math.nextafter(_R_MAX, math.inf))
HARD = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan,
        *ULPS, *(-u for u in ULPS), *(1.0 - 10.0 ** -k for k in (1, 4, 8, 12, 16)))
PLAIN = (0.0, 0.05, -0.3, 0.5, -0.7, 2.0)
P = 2
# Re z1 = (1 - r)/(4p) puts r = 1 - 4p Re z1 at r: at the depth bound, next to 1
# and at 1e-k, so the raw jet meets both sides of its refusals
DEPTHS = tuple((1.0 - r) / (4 * P) for r in (*ULPS, 1e-4, 1e-12, 1e-16))


def draw_point(rng):
    def part(extra=()):
        pool = HARD + extra if rng.random() < 0.4 else PLAIN
        return pool[rng.integers(len(pool))]
    return Point(complex(part(DEPTHS), part()), complex(part(), part()))


def finite(z):
    return all(math.isfinite(x) for x in (z.z1.real, z.z1.imag, z.z2.real, z.z2.imag))


def doors(sol):
    """The doors that read only the real parts, as name -> call(z)."""
    params = sol.params
    return {
        "in_domain": lambda z: in_domain(params, z),
        "x_invariant": lambda z: x_invariant(params, z),
        "region": lambda z: region(params, z, 0.3),
        "classify_boundary": lambda z: classify_boundary(params, z),
        "x_derivatives0": lambda z: x_derivatives(params, z, 0),
        "x_derivatives2": lambda z: x_derivatives(params, z, 2),
        "x_derivatives4": lambda z: x_derivatives(params, z, 4),
        "metric_jet": lambda z: metric_jet(sol, z),
        "einstein_residual": lambda z: einstein_residual(sol, z),
    }


SINGLE_ONLY = ("region", "classify_boundary")


def outcome(call):
    """The call's value, or the ValueError/DomainError it raised (which must say why)."""
    try:
        return call()
    except (ValueError, DomainError) as exc:
        assert str(exc)
        return exc


def fields(value):
    """A door's value as a list of floats or arrays; a jet's point is left out."""
    if isinstance(value, XLDerivatives):
        return [value.x_value, value.r, *value.dX0, *value.dX1, *value.dL]
    if isinstance(value, MetricJet):
        return [value.x_value, *value.g, value.det, *value.d3, *value.d4, *value.profile]
    return [value]


def bits(value):
    """Comparable bits of an outcome: the class of a refusal, the bytes of a value."""
    if isinstance(value, Exception):
        return type(value)
    if isinstance(value, (bool, np.bool_, Enum)):
        return value
    return np.asarray(fields(value), dtype=float).tobytes()


def containers(z):
    """The point as a numpy scalar and as a 0-d array."""
    return {"float64": Point(np.complex128(z.z1), np.complex128(z.z2)),
            "0-d": Point(np.array(z.z1), np.array(z.z2))}


def test_hard_points_are_right_or_refused(sol_p2, tmp_path, capsys):
    calls = doors(sol_p2)
    rng = np.random.default_rng(2025)
    points = [draw_point(rng) for _ in range(300)]
    single = {name: [] for name in calls}
    for z in points:
        clean = Point(complex(z.z1.real), complex(z.z2.real)) if finite(z) else None
        reflected = Point(z.z1.conjugate(), -z.z2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # Python floats take no numpy warning
            got = {name: outcome(lambda: call(z)) for name, call in calls.items()}
            cone = outcome(lambda: in_cone(sol_p2.params, z, 0.5))
        for name, value in got.items():
            single[name].append(value)
            if clean is None:
                refused = {"in_domain": False, "classify_boundary": BoundaryClass.NOT_BOUNDARY}
                assert bits(value) == refused.get(name, DomainError), (name, z)
            else:
                assert bits(value) == bits(outcome(lambda: calls[name](clean))), (name, z)
            if isinstance(bits(value), bytes):   # a number, not a refusal or a class
                assert np.isfinite(np.asarray(fields(value), dtype=float)).all(), (name, z)
        if clean is None:
            assert cone is False
        else:
            assert bits(cone) == bits(outcome(lambda: in_cone(sol_p2.params, reflected, 0.5)))
        with np.errstate(all="ignore"):
            for kind, zc in containers(z).items():
                for name, call in calls.items():
                    assert bits(outcome(lambda: call(zc))) == bits(got[name]), (kind, name, z)
                assert bits(outcome(lambda: in_cone(sol_p2.params, zc, 0.5))) == bits(cone)
    accepted = [not isinstance(value, Exception) for value in single["metric_jet"]]
    assert 60 <= sum(accepted) <= 240   # the draw mixes accepted and refused points

    # stacked: a row is the single call; a refused point refuses the stack,
    # naming the first one; the single-point doors refuse any stack
    empty = Point(np.empty(0, complex), np.empty(0, complex))
    with np.errstate(all="ignore"):
        for name, call in calls.items():
            if name in SINGLE_ONLY:
                for zs in (Point.stack(points), empty):
                    with pytest.raises(ValueError, match="takes a single point"):
                        call(zs)
                continue
            kept = [z for z, value in zip(points, single[name])
                    if not isinstance(value, Exception)]
            values = [value for value in single[name] if not isinstance(value, Exception)]
            rows = np.asarray(fields(call(Point.stack(kept))), dtype=float)
            assert rows.shape[-1] == len(kept)
            for i, value in enumerate(values):
                assert rows[:, i].tobytes() == np.asarray(fields(value), dtype=float).tobytes(), (
                    name, kept[i])
            assert all(np.shape(a) == (0,) for a in fields(call(empty))), name
            refused = [z for z, value in zip(points, single[name]) if isinstance(value, Exception)]
            if refused:
                with pytest.raises(DomainError, match=re.escape(str(refused[0]))):
                    call(Point.stack(points))
        for zs in (Point.stack(points), empty):
            with pytest.raises(ValueError, match="takes a single point"):
                in_cone(sol_p2.params, zs, 0.5)

    # the CLI: exit 0 with the library's jet, or exit 2 with one line on stderr
    sol_file = tmp_path / "p2.json"
    sol_p2.save(sol_file)
    for z, jet in list(zip(points, single["metric_jet"]))[:40]:
        reals = ",".join(repr(x) for x in (z.z1.real, z.z1.imag, z.z2.real, z.z2.imag))
        code = main(["metric", "--sol", str(sol_file), f"--point={reals}"])
        captured = capsys.readouterr()
        if isinstance(jet, Exception):
            assert code == 2 and captured.out == "" and captured.err.count("\n") == 1, z
        else:
            assert code == 0, captured.err
            out = json.loads(captured.out)
            assert (out["X"], out["det"], out["g"]) == (jet.x_value, jet.det, jet.metric.tolist())
