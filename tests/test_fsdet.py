"""Interpolation determinants psi_n / mu_n and the zero-divisor accounting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import mp

from trigjac.config import RunConfig
from trigjac.curve import TrigonalCurve
from trigjac.errors import BasisExhausted, TrigjacError
from trigjac.fsdet import mu, mu_coefficients, mu_divisor_check, psi
from trigjac.periods import PeriodEngine
from trigjac.rconst import random_effective_points


@pytest.fixture(scope="module")
def curve(config40):
    with mp.workdps(config40.working_dps):
        return TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])


def pts_on(curve, n, seed=11):
    return random_effective_points(curve, n, random.Random(seed))


def test_psi1_is_w(curve, config40):
    with mp.workdps(config40.working_dps):
        (p1,) = pts_on(curve, 1)
        val = psi(curve, [p1])
        assert abs(val - p1.w) < mp.mpf("1e-36") * (1 + abs(p1.w))


def test_psi2_closed_form_and_antisymmetry(curve, config40):
    with mp.workdps(config40.working_dps):
        p1, p2 = pts_on(curve, 2)
        val = psi(curve, [p1, p2])
        want = p1.w * p2.y - p2.w * p1.y
        assert abs(val - want) < mp.mpf("1e-34") * (1 + abs(want))
        swapped = psi(curve, [p2, p1])
        assert abs(val + swapped) < mp.mpf("1e-34") * (1 + abs(val))


def test_psi_vanishes_at_branch_point(curve, config40):
    with mp.workdps(config40.working_dps):
        # x = 1 is a simple branch point: w = y = 0 there, so the exact
        # zero short-circuits before any determinant is formed
        b = curve.point(mp.mpf(1), w=mp.mpf(0))
        assert psi(curve, [b]) == 0


def test_basis_exhausted(curve, config40):
    with mp.workdps(config40.working_dps):
        with pytest.raises(BasisExhausted):
            psi(curve, pts_on(curve, 3), max_weight=5)


def test_mu_direct_ratio_matches_coefficient_path(curve, config40):
    with mp.workdps(config40.working_dps):
        base = pts_on(curve, 2, seed=3)
        fn = mu_coefficients(curve, base)
        tol = mp.mpf(10) ** (-(config40.precision - 8))
        for k in range(10):
            q = pts_on(curve, 1, seed=100 + k)[0]
            direct = mu(curve, base, q)
            via_coeffs = fn.element.evaluate(q)
            assert abs(direct - via_coeffs) < tol * (1 + abs(direct))


def test_mu_vanishes_at_inputs(curve, config40):
    with mp.workdps(config40.working_dps):
        base = pts_on(curve, 2, seed=5)
        fn = mu_coefficients(curve, base)
        for pt in base:
            assert abs(mu(curve, base, pt)) == 0
            assert abs(fn.element.evaluate(pt)) < mp.mpf("1e-33")
        assert fn.coefficients[-1] == 1


def test_norm_degree_is_weight(curve, config40):
    with mp.workdps(config40.working_dps):
        for n, order in [(1, 5), (2, 7), (3, 8)]:
            fn = mu_coefficients(curve, pts_on(curve, n, seed=20 + n))
            assert fn.order == order
            assert fn.element.norm_poly().degree == order


def test_confluent_matches_close_points(curve, config40):
    # a doubled point row equals the limit of two nearby simple points
    with mp.workdps(config40.working_dps):
        (p1,) = pts_on(curve, 1, seed=9)
        exact = psi(curve, [p1, p1])
        h = mp.mpf(10) ** -14
        p1b = curve.point(p1.x + h, sheet=p1.sheet)
        if abs(p1b.w - p1.w) > abs(p1b.w + p1.w * mp.exp(2j * mp.pi / 3)):
            # keep the same analytic branch as p1 when sheets reshuffle
            p1b = next(
                curve.point(p1.x + h, sheet=k)
                for k in range(3)
                if abs(curve.point(p1.x + h, sheet=k).w - p1.w) < abs(p1.w) / 2
            )
        approx = psi(curve, [p1, p1b]) / h
        assert abs(exact - approx) < mp.mpf("1e-10") * (1 + abs(exact))


def test_divisor_check_full_report(engine12, config40):
    with mp.workdps(config40.working_dps):
        pts = pts_on(engine12.curve, 1, seed=41)
        report = mu_divisor_check(engine12, pts)
        assert report["ok"]
        assert report["order"] == 5 and report["d1"] == 3
        assert report["complementary_count"] == 1
        assert report["abel_residual"] < mp.mpf("1e-30")
        assert report["class_residual"] < mp.mpf("1e-30")


def test_divisor_check_confluent_pair(engine12, config40):
    # a doubled base point still satisfies the divisor relation
    with mp.workdps(config40.working_dps):
        (p1,) = pts_on(engine12.curve, 1, seed=55)
        report = mu_divisor_check(engine12, [p1, p1])
        assert report["ok"]
        assert report["complementary_count"] == report["order"] - 2 - 3
