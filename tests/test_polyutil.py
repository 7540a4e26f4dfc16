"""Shared kernels of polyutil: the exact-to-mpmath conversion, the root
product and synthetic division."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import mp

from trigjac.curve import TrigonalCurve
from trigjac.polyutil import Poly, deflate, root_product, to_mp


@pytest.mark.parametrize("prec", [53, 110, 300])
def test_to_mp_rounds_like_integer_division(prec):
    # mp.mpmathify and mpf-Fraction arithmetic round about half of these
    # differently, so either one in place of to_mp fails here
    rng = random.Random(prec)
    with mp.workprec(prec):
        for _ in range(200):
            f = Fraction(rng.randint(-10**60, 10**60), rng.randint(1, 10**45))
            assert to_mp(f) == mp.mpf(f.numerator) / f.denominator
        assert to_mp(7) == 7 and isinstance(to_mp(7), mp.mpf)
        z = mp.mpc(1, 2)
        assert to_mp(z) is z


def test_deflate_known_cubic():
    # x^3 - 7x + 6 = (x - 1)(x - 2)(x + 3)
    cubic = [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]
    quotient, rem = deflate(cubic, Fraction(2))
    assert quotient == [Fraction(-3), Fraction(2), Fraction(1)] and rem == 0
    quotient, rem = deflate(cubic, Fraction(1, 2))
    assert quotient == [Fraction(-27, 4), Fraction(1, 2), Fraction(1)]
    assert rem == Fraction(21, 8) == Poly(cubic)(Fraction(1, 2))
    q_poly, r_poly = Poly(cubic).divmod(Poly([Fraction(-1, 2), Fraction(1)]))
    assert Poly(quotient) == q_poly and Poly([rem]) == r_poly


def test_root_product_matches_ab2():
    with mp.workdps(40):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1, 3), Fraction(-1)])
        roots = curve.branch_points_mp()
        expanded = curve.AB2.to_mp()
        for x in (mp.mpc("0.3", "1.7"), mp.mpc(-5, "0.25"), mp.mpc(100, -100)):
            got = root_product(roots, x, [1, 1, 2])
            assert got == curve.ab2_mp(x)
            assert abs(got - expanded(x)) <= mp.mpf(10) ** -35 * abs(got)
            assert root_product(roots, x) == curve.ab_mp(x)
