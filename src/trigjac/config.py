"""Run configuration and tolerance policy.

All numerical tolerances are derived from a single decimal-digit precision
parameter p so that escalating p tightens every check consistently:

* lattice / identity residuals are required below 10^-(p-8),
* quadrature convergence between consecutive levels below 10^-(p-5),
* theta vanishing is relative: |theta| < 10^-(p/2) * scale,
* theta non-vanishing requires |theta| > 10^-(p/4) * scale,

with the band between the last two treated as a rejection band that triggers
precision escalation instead of a silent decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ValidationError

GUARD_DIGITS = 12        # extra digits used internally
QUAD_MAX_LEVEL = 12      # tanh-sinh refinement ceiling
ESCALATION_FACTOR = 2    # one-step precision escalation multiplier


@dataclass(frozen=True)
class RunConfig:
    """Container for precision and policy knobs shared across modules."""

    precision: int = 40            # working decimal digits
    cache_dir: str | None = None
    seed: int = 20260814           # base seed for deterministic sampling
    battery_size: int = 20         # random divisors per theta-divisor battery

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
