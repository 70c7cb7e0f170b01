"""Hard points through every geometry and metric door: right or refused.

One seeded pass over points built from hard floats (signed zeros, the
smallest subnormal, the largest finite scale, infinities and NaN, the ulp
neighbours of 1 and of the raw jet's depth bound _R_MAX, and 1 - 1e-k) in
each real and imaginary part, and over the containers a point can come in
(Python complex, numpy scalar, 0-d array, a stack, an empty stack).  Each
call either gives the bits of its clean equivalent, or raises DomainError
or ValueError with a message; `tubeke metric` exits 2 with one line on
stderr.  The automorphism doors take the same points with automorphisms
drawn from the same floats: an automorphism is refused unless lam is
positive and finite and u finite, an image is a point of T_p with finite
coordinates or a refusal, and a Jacobian determinant a finite nonzero
double or a refusal.  A point with an infinite or NaN coordinate is no point of T_p:
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
    BisExtremes,
    BoundaryClass,
    DomainError,
    MetricJet,
    Point,
    TubeAutomorphism,
    TubeParams,
    XLDerivatives,
    apply,
    bis_extremes,
    classify_boundary,
    einstein_residual,
    in_cone,
    in_domain,
    jacobian,
    jacobian_det,
    metric_jet,
    normalizing_automorphism,
    region,
    sectional_max,
    x_derivatives,
    x_invariant,
)
from tubeke.cli import main
from tubeke.metric_tensor import _R_MAX
from tubeke.tube_geometry import _depth

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


EVALUATORS = {
    "F": (lambda sol, x: [sol.eval_F(x)], (1,)),
    "f_derivs": (lambda sol, x: sol.eval_f_derivs(x, 3), (-1, 1, -1, 1)),
    "Z": (lambda sol, x: sol.eval_Z(x, 2), (1, -1, 1)),
}


def test_profile_and_extremes_are_right_or_refused(sol_p2):
    """The profile evaluators and the extremes at hard floats, and at the grid end.

    The hard abscissae add the ulp neighbours of x_max.  An evaluator gives
    finite values with the parity of each quantity (the exact symmetry
    x -> -x), or a DomainError; the extremes at a hard point give the bits
    of its clean equivalent (imaginary parts translated away), or a
    DomainError.  A stacked row is held to the single call, and a stack
    that holds a refused point is refused.
    """
    sol = sol_p2
    ends = (np.nextafter(sol.x_max, 1.0), sol.x_max, np.nextafter(sol.x_max, -1.0))
    xs = np.array([*HARD, *ends, *(-x for x in ends)])
    with np.errstate(all="ignore"):
        for name, (evaluate, parity) in EVALUATORS.items():
            kept = []
            for x in xs:
                values = outcome(lambda: evaluate(sol, x))
                if math.isfinite(x) and abs(x) <= sol.x_max:
                    mirrored = evaluate(sol, -x)
                    assert np.isfinite(values).all(), (name, x)
                    assert np.array_equal(np.multiply(parity, mirrored), values), (name, x)
                    kept.append((x, values))
                else:
                    assert isinstance(values, DomainError), (name, x)
            rows = np.asarray(evaluate(sol, np.array([x for x, _ in kept])))
            assert rows.T.tobytes() == np.array([v for _, v in kept]).tobytes(), name
            with pytest.raises(DomainError):
                evaluate(sol, xs)
    assert [x for x in ends if x <= sol.x_max] == list(ends[1:])

    def extremes(z):
        ext, (sect, vector) = bis_extremes(sol, z), sectional_max(sol, z)
        assert isinstance(ext, BisExtremes)
        vector = np.asarray(vector)   # (2,), or (n, 2) rows for stacked points
        return [ext.min, ext.max, ext.einstein_defect, sect, *vector.real.T, *vector.imag.T]

    rng = np.random.default_rng(2031)

    def part(extra=()):
        pool = HARD + extra if rng.random() < 0.4 else PLAIN
        return pool[rng.integers(len(pool))]

    points = [Point(complex(part(DEPTHS), part()), complex(part(ends), part()))
              for _ in range(200)]
    single = []
    with np.errstate(all="ignore"):
        for z in points:
            values = outcome(lambda: extremes(z))
            single.append(values)
            if isinstance(values, Exception):
                assert isinstance(values, DomainError), z
                if finite(z):
                    clean = Point(complex(z.z1.real), complex(z.z2.real))
                    assert isinstance(outcome(lambda: extremes(clean)), DomainError), z
                continue
            clean = Point(complex(z.z1.real), complex(z.z2.real))
            assert np.isfinite(values).all(), z
            assert np.array(values).tobytes() == np.array(extremes(clean)).tobytes(), z
        kept = [(z, v) for z, v in zip(points, single) if not isinstance(v, Exception)]
        assert 60 <= len(kept) <= 180   # the draw mixes accepted and refused points
        rows = np.array(extremes(Point.stack([z for z, _ in kept])), dtype=float).T
        assert rows.tobytes() == np.array([v for _, v in kept]).tobytes()
        with pytest.raises(DomainError):
            extremes(Point.stack(points))


def draw_automorphism(rng):
    """(lam, u, flip) from the hard and plain floats, lam also at 1e-300 and 1e300."""
    def part(extra=()):
        pool = HARD + extra if rng.random() < 0.4 else PLAIN
        return pool[rng.integers(len(pool))]
    lam = part((1e-300, 1e300)) if rng.random() < 0.7 else 2.0 ** rng.uniform(-8.0, 8.0)
    return lam, (part(), part()), bool(rng.random() < 0.5)


def point_bits(value):
    """An image's coordinates as bytes, or the class of its refusal."""
    if isinstance(value, Exception):
        return type(value)
    return np.array([value.z1, value.z2], dtype=complex).tobytes()


def test_automorphism_doors_are_right_or_refused():
    params = TubeParams(p=P)
    rng = np.random.default_rng(2026)
    points, images, accepted = [], [], []
    for _ in range(600):
        z = draw_point(rng)
        lam, u, flip = draw_automorphism(rng)
        a = outcome(lambda: TubeAutomorphism(params=params, lam=lam, u=u, flip=flip))
        if not (lam > 0.0 and math.isfinite(lam) and math.isfinite(u[0]) and math.isfinite(u[1])):
            assert isinstance(a, ValueError), (lam, u)
            continue
        assert isinstance(a, TubeAutomorphism), (lam, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # Python floats take no numpy warning
            jac = jacobian(a)
            det = outcome(lambda: jacobian_det(a))
            image = outcome(lambda: apply(a, z))
            psi = outcome(lambda: normalizing_automorphism(params, z))
        # the Jacobian is diag(lam, +-lam^{1/(2p)}), finite for every finite lam
        assert np.isfinite(jac).all() and jac[0, 0] == lam and jac[0, 1] == jac[1, 0] == 0.0
        assert bool(jac[1, 1].real < 0.0) is flip
        diagonal = lam * abs(float(jac[1, 1].real))
        if isinstance(det, Exception):
            assert not 1e-300 < diagonal < 1e300, lam
        else:
            assert math.isfinite(det) and det != 0.0 and (det < 0.0) is flip
            if 1e-300 < diagonal < 1e300:
                assert abs(abs(det) - diagonal) <= 4 * np.finfo(float).eps * diagonal, lam
        # an image is a finite point of T_p; a non-finite point has none
        if isinstance(image, Exception):
            assert isinstance(image, ValueError) and "is not a point of T_2" in str(image)
        else:
            assert finite(image) and in_domain(params, image) is True, (lam, u, z)
        if not finite(z):
            assert isinstance(image, ValueError) and isinstance(psi, DomainError), z
            continue
        # the real parts of an image follow from z's real parts alone, and
        # the flip negates z2; both are exact in floats.  Only an imaginary
        # part that overflows refuses z where its clean point has an image.
        clean = Point(complex(z.z1.real), complex(z.z2.real))
        clean_image = outcome(lambda: apply(a, clean))
        if isinstance(clean_image, Exception):
            assert isinstance(image, ValueError), (lam, u, z)
        elif isinstance(image, Exception):
            root = abs(float(jac[1, 1].real))
            assert not (math.isfinite(lam * (z.z1.imag + u[0]))
                        and math.isfinite(root * (z.z2.imag + u[1]))), (lam, u, z)
        else:
            assert (image.z1.real, image.z2.real) == (clean_image.z1.real, clean_image.z2.real)
            flipped = apply(TubeAutomorphism(params=params, lam=lam, u=u, flip=not flip), z)
            assert point_bits(flipped) == point_bits(Point(image.z1, -image.z2))
            points.append((a, z))
            images.append(image)
        with np.errstate(all="ignore"):
            for kind, zc in containers(z).items():
                assert point_bits(outcome(lambda: apply(a, zc))) == point_bits(image), (kind, z)
        # the normalizing automorphism: dilation by 1/r and the translation
        # killing the imaginary parts, or a refusal as for the clean point
        clean_psi = outcome(lambda: normalizing_automorphism(params, clean))
        assert type(psi) is type(clean_psi), z
        if isinstance(psi, TubeAutomorphism):
            assert psi.lam == clean_psi.lam == 1.0 / _depth(P, z.z1.real)
            assert psi.u == (-z.z1.imag, -z.z2.imag) and not psi.flip
            axis = outcome(lambda: apply(psi, z))
            if not isinstance(axis, Exception):
                assert axis.z1.imag == axis.z2.imag == 0.0
                assert abs(axis.z2.real - x_invariant(params, z)) <= 1e-12
            accepted.append(z)
    # the draw mixes answers and refusals
    assert 60 <= len(points) <= 480 and 60 <= len(accepted) <= 480

    # stacked: points and automorphisms in rows; a row is the single call
    # and a refused row refuses the stack, naming the first one
    zs = Point.stack([z for _, z in points])
    a = TubeAutomorphism(params=params, lam=np.array([a.lam for a, _ in points]),
                         u=(np.array([a.u[0] for a, _ in points]),
                            np.array([a.u[1] for a, _ in points])),
                         flip=False)
    with np.errstate(all="ignore"):
        rows = apply(a, zs)
    for i, ((single_a, z), image) in enumerate(zip(points, images)):
        row = Point(rows.z1[i], rows.z2[i] if not single_a.flip else -rows.z2[i])
        assert point_bits(row) == point_bits(image), (single_a, z)
    jacs = jacobian(a)
    for i, (single_a, _) in enumerate(points):
        assert jacs[i, 0, 0] == single_a.lam and jacs[i, 1, 1] == abs(jacobian(single_a)[1, 1])
    bad = Point(complex(0.3, 0.0), 0j)
    with pytest.raises(ValueError, match=re.escape(f"of {bad} is not a point of T_2")):
        apply(TubeAutomorphism(params=params), Point.stack([Point(0j, 0j), bad, bad]))
    with pytest.raises(ValueError, match="at lam = 1e[+]300 is no finite nonzero double"):
        jacobian_det(TubeAutomorphism(params=params, lam=np.array([2.0, 1e300, 1e301])))
