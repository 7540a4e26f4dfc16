"""Shared fixtures.

Period computation and the Riemann-constant battery are the expensive steps,
so the engines are session scoped; everything downstream (theta batteries,
divisor checks, acceptance runs) reuses them.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from trigjac import PeriodEngine, RunConfig, TrigonalCurve


@pytest.fixture(scope="session")
def config40() -> RunConfig:
    return RunConfig(precision=40)


@pytest.fixture(scope="session")
def curve12(config40: RunConfig) -> TrigonalCurve:
    with mp.workdps(config40.working_dps):
        return TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])


@pytest.fixture(scope="session")
def engine12(curve12: TrigonalCurve, config40: RunConfig) -> PeriodEngine:
    engine = PeriodEngine(curve12, config40)
    engine.compute()
    return engine
