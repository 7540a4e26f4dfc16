"""Run configuration and tolerance policy.

All numerical tolerances are derived from a single decimal-digit precision
parameter p so that escalating p tightens every check consistently:

* lattice / identity residuals are required below 10^-(p-8),
* quad_tol = 10^-(p-5) targets tanh-sinh convergence between levels; it is
  not enforced (the rule stops at QUAD_MAX_LEVEL regardless), and the largest
  delta is reported as quad_delta_max,
* theta vanishing is relative: |theta| < 10^-(p/2) * scale,
* theta non-vanishing requires |theta| > 10^-(p/4) * scale,

with the band between the last two a rejection band in which nothing is
decided.  The Riemann-constant battery and the central-symmetry probe sum
theta to p//2 + 6 digits, not to the working precision, and decide on the end
of |theta| -+ 10^-(p//2+6) * scale nearer that band.  Only
PeriodEngine.compute escalates the precision, once, for tau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ValidationError

GUARD_DIGITS = 12        # extra digits used internally
QUAD_MAX_LEVEL = 12      # tanh-sinh refinement ceiling
ESCALATION_FACTOR = 2    # one-step precision escalation multiplier
BATTERY_SIZE = 20        # decisive rounds per theta-divisor battery


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run: precision, period cache directory and seed.

    Every tolerance derives from precision; the fixed policy around them
    lives in the module constants GUARD_DIGITS, QUAD_MAX_LEVEL,
    ESCALATION_FACTOR and BATTERY_SIZE.
    """

    precision: int = 40            # working decimal digits
    cache_dir: str | None = None
    seed: int = 20260814           # base seed for deterministic sampling

    def __post_init__(self) -> None:
        if self.precision < 20:
            raise ValidationError("precision must be at least 20 decimal digits")

    @property
    def working_dps(self) -> int:
        return self.precision + GUARD_DIGITS

    @property
    def lattice_tol(self):
        return _ten_pow(-(self.precision - 8))

    @property
    def quad_tol(self):
        return _ten_pow(-(self.precision - 5))

    @property
    def vanish_tol(self):
        return _ten_pow(-(self.precision // 2))

    @property
    def nonvanish_floor(self):
        return _ten_pow(-(self.precision // 4))

    def escalated(self) -> "RunConfig":
        return replace(self, precision=self.precision * ESCALATION_FACTOR)


def _ten_pow(e: int):
    import mpmath

    return mpmath.mpf(10) ** e


DEFAULT_CONFIG = RunConfig()
