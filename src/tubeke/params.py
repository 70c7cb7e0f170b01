"""Domain parameters and the verification suites' names.

The family of tube domains treated by this package is

    T_p = { z in C^2 : Re(4p z1) + Re(z2)^(2p) < 1 },   p = 1, 2, 3, ...

Everything downstream (potential profile, metric, curvature) is driven by the
single integer p and the derived constant K = (2p+1)/3, which is the exponent
ratio appearing in the complete Kähler-Einstein metric with Ricci curvature -3.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

# The verification suites by name, in the order "all" runs them; the
# diagnostics module holds one suite function per name.  They live here so
# that the CLI's parser can offer them without loading the suites.
SUITE_NAMES = ("asymptotics", "origin", "invariance", "einstein",
               "boundary_limit", "regions")


def as_integer(name: str, value) -> int:
    """value as a Python int, or a ValueError that names it.

    operator.index admits every integer type, numpy's among them, and
    refuses floats, strings and None; a bool is refused too.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_seed(value) -> int:
    """A verification suite's seed: a non-negative integer as a Python int, or a ValueError."""
    seed = as_integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


@dataclass(frozen=True)
class TubeParams:
    """Parameters of the tube domain T_p.

    Attributes
    ----------
    p : int
        Positive integer exponent of the domain.  Non-integer input is
        rejected (the geometry genuinely needs Re(z2)^(2p) to be a
        polynomial), as is p < 1.
    """

    p: int

    def __post_init__(self):
        p = as_integer("p", self.p)
        if p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def K(self) -> Fraction:
        """Exact K = (2p+1)/3."""
        return Fraction(2 * self.p + 1, 3)

    @property
    def K_float(self) -> float:
        return (2 * self.p + 1) / 3.0

