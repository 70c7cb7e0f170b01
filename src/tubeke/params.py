"""Domain parameters, solver configuration and the verification suites' names.

The family of tube domains treated by this package is

    T_p = { z in C^2 : Re(4p z1) + Re(z2)^(2p) < 1 },   p = 1, 2, 3, ...

Everything downstream (potential profile, metric, curvature) is driven by the
single integer p and the derived constant K = (2p+1)/3, which is the exponent
ratio appearing in the complete Kähler-Einstein metric with Ricci curvature -3.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

# The verification suites by name, in the order "all" runs them; the
# diagnostics module holds one suite function per name.  They live here so
# that the CLI's parser can offer them without loading the suites.
SUITE_NAMES = ("asymptotics", "origin", "invariance", "einstein",
               "boundary_limit", "regions")

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
        try:
            p = operator.index(self.p)
        except TypeError:
            raise ValueError(f"p must be an integer, got {self.p!r}") from None
        if isinstance(self.p, bool) or p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def K(self) -> Fraction:
        """Exact K = (2p+1)/3."""
        return Fraction(2 * self.p + 1, 3)

    @property
    def K_float(self) -> float:
        return (2 * self.p + 1) / 3.0


@dataclass(frozen=True)
class ShootingConfig:
    """Knobs of the blow-up shooting solver.

    The defaults reproduce every tolerance quoted in the test suite; they are
    deliberately conservative because a single solve is cheap (~0.01 s).

    Attributes
    ----------
    f_blowup_threshold : float
        The slope f = F' is declared "blown up" once it exceeds this value.
        The blow-up estimate x + 1/f is off by O(1/f^2) there, about 1e-16
        at the default 1e8; a threshold whose error bound exceeds
        step_tolerance is refused, and so is one so high that the grid's
        tail no longer resolves the blow-up (see the solver's validation).
    step_tolerance : float
        Local relative error target of the adaptive integrator, recorded
        as the solution's tolerance; a solution is accepted only if its
        blow-up abscissa lies within 10*sqrt(step_tolerance) of 1.  At
        most 1e-7: from 1.5e-7 up the profile misses the fixed 1e-8
        integral-identity gate for nearly every p, so such values are
        refused here rather than by the solve.
    max_steps : int
        Hard cap on the accepted steps of a single integration.
    """

    f_blowup_threshold: float = 1e8
    step_tolerance: float = 1e-12
    max_steps: int = 500_000

    def __post_init__(self):
        if not (1e2 < self.f_blowup_threshold < math.inf):
            raise ValueError("f_blowup_threshold must be finite and exceed 1e2")
        if not (0 < self.step_tolerance <= 1e-7):
            raise ValueError("step_tolerance out of range (want <= 1e-7)")
        if self.max_steps < 1000:
            raise ValueError("max_steps too small to reach a blow-up")
