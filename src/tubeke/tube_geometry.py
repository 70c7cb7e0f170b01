"""Geometry of the tube domains T_p.

Membership, the orbit invariant X, the affine automorphism group
(imaginary translations, dilations fixing the distinguished boundary
point (1/(4p), 0), and the symmetry of the {z2 = 0} axis), boundary-point
classification, and the approach regions/cones used to state curvature
pinching.

Everything here is exact closed-form arithmetic; no solver state is
involved.

The depth r = 1 - 4p Re(z1), which goes to 0 at the weakly pseudoconvex
points, is formed in one place, _depth, for every door here and in the
metric and curvature modules; _re1_at_depth is its inverse.  The product
4p Re(z1) is split error-free, so r is the depth of the float point to one
rounding near the vertex for every p, and has the bits of 1 - 4p Re(z1)
where 4p is a power of two.  A door that takes a point of T_p admits it
once: require_domain forms r, checks it through in_domain and returns it.

Points may be stacked: a Point whose z1 and z2 are complex arrays of one
length stands for the points (z1[i], z2[i]).  in_domain, x_invariant,
normalizing_automorphism, apply, jacobian and jacobian_det take stacked
points, and an automorphism may carry arrays lam and u (one element per
point), with the same code as for single points, so a stacked row equals
the single call bit for bit; in_domain then returns a boolean array, and
the refusals name the first offending point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .params import TubeParams

__all__ = [
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
]


@dataclass(frozen=True)
class Point:
    """A point of C^2, or stacked points.

    The coordinates are held in double precision, converted once here.
    Two Python complex values pass untouched; any other scalar (a numpy
    scalar, a 0-d array, a float) becomes a Python complex, and an array
    becomes a 1-d complex128 stack.  A scalar coordinate goes with every
    point of a stack in the other.  ValueError, naming the shapes, for a
    stack of more than one dimension or two stacks of different lengths.
    """

    z1: complex
    z2: complex

    def __post_init__(self):
        if type(self.z1) is complex and type(self.z2) is complex:
            return
        z1, z2 = (np.asarray(c, dtype=complex) for c in (self.z1, self.z2))
        stacks = {c.shape for c in (z1, z2) if c.ndim}
        if len(stacks) > 1 or any(len(shape) > 1 for shape in stacks):
            raise ValueError(f"a Point takes scalars or 1-d stacks of one length, got "
                             f"coordinates of shapes {z1.shape} and {z2.shape}")
        object.__setattr__(self, "z1", z1 if z1.ndim else complex(z1))
        object.__setattr__(self, "z2", z2 if z2.ndim else complex(z2))

    @classmethod
    def parse(cls, text: str) -> "Point":
        """Parse "re1,im1,re2,im2" (four comma-separated reals)."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(
                f"expected four comma-separated reals 're1,im1,re2,im2', got {text!r}"
            )
        re1, im1, re2, im2 = (float(s) for s in parts)
        return cls(complex(re1, im1), complex(re2, im2))

    def as_reals(self) -> list[float]:
        return [self.z1.real, self.z1.imag, self.z2.real, self.z2.imag]

    @classmethod
    def stack(cls, points) -> "Point":
        """The stacked Point of a sequence of points."""
        points = list(points)
        return cls(np.array([z.z1 for z in points], dtype=complex),
                   np.array([z.z2 for z in points], dtype=complex))


class BoundaryClass(Enum):
    STRICTLY_PSEUDOCONVEX = "strictly_pseudoconvex"
    WEAKLY_PSEUDOCONVEX = "weakly_pseudoconvex"
    NOT_BOUNDARY = "not_boundary"


class RegionClass(Enum):
    INNER = "inner"    # ratio <= alpha: orbit-inner region (non-tangential side)
    OUTER = "outer"    # ratio >= 1 - alpha: close to strictly pseudoconvex orbits
    MIDDLE = "middle"


@dataclass(frozen=True)
class TubeAutomorphism:
    """An element tau -> dilation -> optional flip of Aut(T_p).

    The group is generated by imaginary translations
    tau_u(z) = z + iu, dilations
    d_lambda(z1, z2) = ((lambda(4p z1 - 1) + 1)/(4p), lambda^{1/(2p)} z2),
    which multiply the depth r = 1 - 4p Re(z1) and Im(z1) by lambda, and
    the symmetry s(z1, z2) = (z1, -z2).  Every word in the generators
    normalizes to the fixed composition order: translate by iu first, then
    dilate by lam, then flip if requested (flip is a bool, or ValueError).
    lam and u are numbers, kept as floats (arrays for stacked values); a
    bool is refused.
    """

    params: TubeParams
    lam: float = 1.0
    u: tuple[float, float] = (0.0, 0.0)
    flip: bool = False

    def __post_init__(self):
        lam, (u1, u2) = self.lam, self.u
        if _is_bool(lam):
            raise ValueError(f"lam must be a number, got {lam!r}")
        if _is_bool(u1) or _is_bool(u2):
            raise ValueError(f"u must be a pair of numbers, got {self.u!r}")
        ok = (lam > 0.0) & np.isfinite(lam)
        if not _all(ok):
            raise ValueError(f"dilation factor must be positive and finite, "
                             f"got {_first(lam, ok)!r}")
        ok = np.isfinite(u1) & np.isfinite(u2)
        if not _all(ok):
            raise ValueError(f"translation must be finite, "
                             f"got u = ({_first(u1, ok)!r}, {_first(u2, ok)!r})")
        object.__setattr__(self, "lam", _real(lam))
        object.__setattr__(self, "u", (_real(u1), _real(u2)))
        if not isinstance(self.flip, bool | np.bool_):
            raise ValueError(f"flip must be a bool, got {self.flip!r}")
        object.__setattr__(self, "flip", bool(self.flip))


def _all(cond) -> bool:
    """A condition on a single point (a bool) or on stacked points (an array)."""
    return cond if type(cond) is bool else bool(np.all(cond))


def _is_bool(value) -> bool:
    """Whether value is a bool, a numpy bool or an array of them: a flag, not a number."""
    return np.asarray(value).dtype == bool


def _real(value):
    """A float, or a float array for stacked values."""
    if isinstance(value, float | int) or np.ndim(value) == 0:
        return float(value)
    return np.asarray(value, dtype=float)


def _first(values, ok):
    """The single value, or the first stacked one where ok fails, for a message.

    A numpy scalar or a 0-d array comes back as its Python scalar, so that
    a message prints every form of one value alike.
    """
    if isinstance(ok, np.ndarray) and ok.ndim:
        index = np.unravel_index(np.argmin(ok), np.shape(ok))
        return np.broadcast_to(values, np.shape(ok))[index].item()
    if isinstance(values, np.generic | np.ndarray) and values.ndim == 0:
        return values.item()
    return values


def _first_point(z: Point, ok) -> Point:
    """z itself, or the first stacked point where ok fails."""
    if not (isinstance(ok, np.ndarray) and ok.ndim):
        return z
    return Point(complex(_first(z.z1, ok)), complex(_first(z.z2, ok)))


# Veltkamp's splitter: x * _SPLITTER cuts a double into two halves whose
# products are exact.  It overflows beyond |x| ~ 2^996.
_SPLITTER = 2.0 ** 27 + 1.0
_SPLIT_MAX = 2.0 ** 996


def _product_error(c: float, a):
    """The exact rounding error c a - fl(c a): Dekker's product on Veltkamp's split halves."""
    t = _SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLITTER * c
    c_hi = t - (t - c)
    c_lo = c - c_hi
    return a_lo * c_lo - (((c * a - a_hi * c_hi) - a_lo * c_hi) - a_hi * c_lo)


def _depth(p: int, re1):
    """The depth r = 1 - 4p Re(z1) of points with real part re1 (a float or an array).

    r = (1 - fl(4p re1)) - E with E the exact error of the product: near
    the vertex 1 - fl(4p re1) is exact, so r takes one rounding.  Where
    |re1| > _SPLIT_MAX, and at inf and NaN, E is 0; so it is wherever 4p is
    a power of two.
    """
    c = float(4 * p)
    if isinstance(re1, np.ndarray):
        error = _product_error(c, np.where(np.abs(re1) <= _SPLIT_MAX, re1, 0.0))
    elif abs(re1) <= _SPLIT_MAX:
        error = _product_error(c, re1)
    else:
        error = 0.0
    return (1.0 - c * re1) - error


def _re1_at_depth(p: int, r):
    """Re(z1) at depth r, the inverse of _depth: (1 - r)/(4p)."""
    return (1.0 - r) / (4 * p)


def require_domain(params: TubeParams, z: Point):
    """The depth r of z, or DomainError, naming the (first) point, unless z lies in T_p.

    r is formed once and handed to in_domain, called through the module's
    globals as any caller calls it.
    """
    r = _depth(params.p, z.z1.real)
    ok = in_domain(params, z, _r=r)
    if not _all(ok):
        bad = _first_point(z, ok)
        why = "" if _finite(bad.z1, bad.z2) else " (its coordinates must be finite)"
        raise DomainError(f"point {bad} is not in T_{params.p}{why}")
    return r


def in_domain(params: TubeParams, z: Point, *, _r=None) -> bool:
    """Whether Re(z2)^{2p} < r = 1 - Re(4p z1) (strict: open domain).

    A point with an infinite or NaN coordinate is not in T_p, although
    Re(z1) = -inf satisfies the inequality.  r is the exact depth to one
    rounding (see _depth).  Where both Re(z2)^{2p} and r pass the double
    range, the two are compared in log form, to about 1e-13 relative.  _r
    is the depth require_domain has formed already.
    """
    p = params.p
    r = _depth(p, z.z1.real) if _r is None else _r
    t = z.z2.real
    power = _even_power(t, 2 * p)
    inside = power < r
    if not isinstance(inside, np.ndarray):
        if power == math.inf and r == math.inf and _finite(z.z1, z.z2):
            inside = _log_ratio(p, t, z.z1.real) < 0.0
        return _and_finite(inside, z)
    finite = np.isfinite(z.z1) & np.isfinite(z.z2)
    inside &= finite
    both = finite & (power == math.inf) & (r == math.inf)
    if both.any():
        inside[both] = _log_ratio(p, np.broadcast_to(t, both.shape)[both],
                                  np.broadcast_to(z.z1.real, both.shape)[both]) < 0.0
    return inside


def _log_ratio(p: int, t, re1):
    """ln(Re(z2)^{2p} / r) for finite Re(z2) != 0 and Re(z1) < 0, where both pass the double range.

    r = 4p |Re z1| (1 + 1/(4p |Re z1|)), and the 1/(4p |Re z1|) is below
    any rounding there.
    """
    log = np.log if isinstance(t, np.ndarray) else math.log
    return 2 * p * log(abs(t)) - (math.log(4 * p) + log(-re1))


def _and_finite(cond, z: Point):
    """cond where z's coordinates are finite, else False (an array for stacked points)."""
    if type(cond) is bool:
        return cond and _finite(z.z1, z.z2)
    return cond & np.isfinite(z.z1) & np.isfinite(z.z2)


def _even_power(t, n: int):
    """t^n for an even n, inf where it passes the double range, as numpy gives it."""
    try:
        return t ** n
    except OverflowError:  # a Python float's power raises instead
        return math.inf


def _require_single(z: Point, door: str) -> None:
    """Raise ValueError for stacked points at a door that takes one point."""
    if type(z.z1) is not complex or type(z.z2) is not complex:
        raise ValueError(f"{door} takes a single point, got stacked points of shape "
                         f"{np.broadcast(z.z1, z.z2).shape}")


def _finite(z1: complex, z2: complex) -> bool:
    return cmath.isfinite(z1) and cmath.isfinite(z2)


def x_invariant(params: TubeParams, z: Point) -> float:
    """Orbit coordinate X = Re(z2) / r^{1/(2p)}, r = 1 - Re(4p z1).

    Defined wherever r > 0; takes values in (-1, 1) exactly on T_p and is
    constant along orbits of translations and dilations (the axis flip
    negates it).  r is the exact depth of _depth, so X stays within a few
    ulps of the X of the float point as r goes to 0 at the vertex, for
    every p.  DomainError where X is no finite double: at r <= 0 or NaN,
    at an infinite or NaN coordinate, where r overflows and Re(z2) != 0,
    or where the quotient does.  The root is _root's, so stacked X are
    bit-equal.
    """
    return _orbit_x(params, z, _depth(params.p, z.z1.real))


def _orbit_x(params: TubeParams, z: Point, r):
    """X at z of depth r, refused as x_invariant refuses it."""
    t = z.z2.real
    # at r = inf the quotient reads 0, which is X only for Re(z2) = 0
    ok = _and_finite((r > 0.0) & ((r < math.inf) | (t == 0.0)), z)
    if _all(ok):
        # a Python float's quotient may overflow without a numpy warning
        x = t / _root(params.p, r)
        ok = abs(x) < math.inf
    if not _all(ok):
        bad = _first_point(z, ok)
        raise DomainError(f"X undefined at {bad}: it takes finite coordinates with Re(4p z1) "
                          f"below 1, 1 - Re(4p z1) finite unless Re(z2) = 0, and "
                          f"Re(z2)/(1 - Re(4p z1))^(1/(2p)) a finite double")
    return x


def _root(p: int, lam):
    """lam^{1/(2p)} as numpy's pow, a float or a float array: the dilation's factor on z2.

    libm's pow misses numpy's by an ulp on ~5% of inputs, so every door
    takes this one, and stacked rows equal single calls bit for bit.
    """
    return _real(np.power(lam, 1.0 / (2 * p)))


def _on_axis(x) -> Point:
    """The axis point (0, x), the orbit representative at X = x, or those of an array x."""
    if isinstance(x, np.ndarray) and x.ndim:
        return Point(np.zeros(x.shape, dtype=complex), x.astype(complex))
    return Point(0j, complex(x))


def normalizing_automorphism(params: TubeParams, z: Point) -> TubeAutomorphism:
    """The automorphism sending z to its orbit representative (0, X(z)).

    Composition of the translation killing the imaginary parts with the
    dilation by 1/r, r = 1 - Re(4p z1); no flip.
    """
    r = require_domain(params, z)
    return TubeAutomorphism(params=params, lam=1.0 / r, u=(-z.z1.imag, -z.z2.imag))


def apply(a: TubeAutomorphism, z: Point) -> Point:
    """Evaluate the automorphism at a point, or points.

    It acts on depth: r' = lam r, Im z1' = lam (Im z1 + u1) and
    z2' = lam^{1/(2p)} (z2 + i u2), then Re z1' = Re z1 + (r - r')/(4p),
    from the change of depth, so that lam = 1 keeps Re z1 bit for bit; the
    parts are real products, so no infinity meets a zero, and
    lam^{1/(2p)} is _root's, so stacked rows equal single calls bit for
    bit.  ValueError, naming the (first) point, where the image is no
    point of T_p with finite coordinates and depth: for a point outside
    T_p, and where the image overflows or rounds onto the boundary.

    Below the spacing of the floats at the vertex plane Re z1 = 1/(4p)
    (about 1e-17 apart), Re z1' cannot hold the depth lam r (lam = 1e-300
    at an ordinary point, say): the image's depth is then not lam r but
    what the last bit of Re z1' leaves, and the door answers or refuses on
    that bit.
    """
    p = a.params.p
    lam = a.lam
    root = _root(p, lam)
    if a.flip:
        root = -root
    r = _depth(p, z.z1.real)
    image = Point(_complex(z.z1.real + (r - lam * r) / (4 * p), lam * (z.z1.imag + a.u[0])),
                  _complex(root * z.z2.real, root * (z.z2.imag + a.u[1])))
    ok = in_domain(a.params, image)
    if not _all(ok):
        raise ValueError(f"the image {_first_point(image, ok)} of {_first_point(z, ok)} "
                         f"is not a point of T_{p} with finite coordinates and depth")
    return image


def _complex(re, im):
    """re + i im from real parts: complex() for floats, an array for arrays."""
    if isinstance(re, np.ndarray) or isinstance(im, np.ndarray):
        out = np.empty(np.broadcast(re, im).shape, dtype=complex)
        out.real, out.imag = re, im
        return out
    return complex(re, im)


def jacobian(a: TubeAutomorphism) -> np.ndarray:
    """Complex Jacobian matrix, diag(lam, +-lam^{1/(2p)}).

    For array lam the matrices are stacked along the leading axes.
    lam^{1/(2p)} is _root's, as in apply.
    """
    d2 = _root(a.params.p, a.lam)
    if a.flip:
        d2 = -d2
    jac = np.zeros(np.shape(a.lam) + (2, 2), dtype=complex)
    jac[..., 0, 0] = a.lam
    jac[..., 1, 1] = d2
    return jac


def jacobian_det(a: TubeAutomorphism) -> float:
    """Determinant of the complex Jacobian, lam^{(2p+1)/(2p)} up to flip sign.

    numpy's pow, for one lam and for an array alike.  ValueError, naming
    the (first) lam, where the determinant overflows or underflows to 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        det = _real(np.power(a.lam, (2 * a.params.p + 1) / (2 * a.params.p)))
    ok = (det > 0.0) & (det < math.inf)
    if not _all(ok):
        raise ValueError(f"the Jacobian determinant at lam = {_first(a.lam, ok)!r} is no "
                         f"finite nonzero double")
    return -det if a.flip else det


def classify_boundary(params: TubeParams, q: Point, tol: float = 1e-9) -> BoundaryClass:
    """Classify q as a boundary point of T_p.

    Within tolerance tol of the defining equation Re(q2)^{2p} = r, the
    point is weakly pseudoconvex exactly when Re(q2) = 0 (the
    distinguished orbit of (1/(4p), 0) + iR^2); every other boundary point
    is strictly pseudoconvex.  The Re(q2) comparison uses tol^{1/(2p)} so
    that the two tests resolve the same displacement scale.  A point with
    an infinite or NaN coordinate is not on the boundary.  Takes one point.
    """
    _require_single(q, "classify_boundary")
    if _is_bool(tol) or not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must lie in [0, inf), got {tol!r}")
    p = params.p
    defect = abs(_even_power(q.z2.real, 2 * p) - _depth(p, q.z1.real))
    if not (defect <= tol and _finite(q.z1, q.z2)):
        return BoundaryClass.NOT_BOUNDARY
    if abs(q.z2.real) <= tol ** (1.0 / (2 * p)):
        return BoundaryClass.WEAKLY_PSEUDOCONVEX
    return BoundaryClass.STRICTLY_PSEUDOCONVEX


def region(params: TubeParams, z: Point, alpha: float) -> RegionClass:
    """Approach-region classification by the ratio Re(z2)^{2p}/r, r = 1 - Re(4pz1).

    The ratio equals X(z)^{2p}, so "inner" (ratio <= alpha) is a
    neighborhood of the axis orbit and "outer" (ratio >= 1-alpha) hugs
    the strictly pseudoconvex orbits.  For alpha >= 1/2 the two overlap;
    inner wins.  Where Re(z2)^{2p} and r both pass the double range, the
    ratio is taken in log form, as in_domain compares them.  Takes one
    point.
    """
    _require_single(z, "region")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha!r}")
    r = require_domain(params, z)
    power = _even_power(z.z2.real, 2 * params.p)
    if power == math.inf:  # then r is inf too, as z is in T_p
        ratio = math.exp(_log_ratio(params.p, z.z2.real, z.z1.real))
    else:
        ratio = power / r
    if ratio <= alpha:
        return RegionClass.INNER
    if ratio >= 1.0 - alpha:
        return RegionClass.OUTER
    return RegionClass.MIDDLE


def in_cone(params: TubeParams, z: Point, theta: float) -> bool:
    """Membership in the half cone of vertex (1/(4p), 0), axis R x {0}.

    The cone aperture condition is
    sqrt(Im(z1)^2 + |z2|^2) / (1/(4p) - Re(z1)) <= tan(theta), where
    1/(4p) - Re(z1) = r/(4p) is the depth over 4p.  A point with an
    infinite or NaN coordinate is not in the cone, as not in T_p.  Takes
    one point.
    """
    _require_single(z, "in_cone")
    if _is_bool(theta) or not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    if not _finite(z.z1, z.z2):
        return False
    r = _depth(params.p, z.z1.real)
    if r <= 0.0:
        raise DomainError(f"cone undefined: Re(z1) = {z.z1.real!r} >= 1/(4p)")
    # past the double range r/(4p) is -Re(z1): 1/(4p) is below its rounding
    depth = r / (4 * params.p) if r < math.inf else -z.z1.real
    # each part over the depth first: |z2| itself may pass the double range
    ratio = math.hypot(z.z1.imag / depth, z.z2.real / depth, z.z2.imag / depth)
    return ratio <= math.tan(theta)
