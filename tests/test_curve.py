"""Curve model: family validation, the quotient-ring relations, local data."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from trigjac.curve import TrigonalCurve, roots_of_poly
from trigjac.errors import ValidationError


def make12(points=(0, 1, -1)) -> TrigonalCurve:
    return TrigonalCurve(1, 2, [Fraction(p) for p in points])


def test_family_validation():
    with pytest.raises(ValidationError):
        TrigonalCurve(1, 1, [Fraction(0), Fraction(1)])        # 3 | s + 2r
    with pytest.raises(ValidationError):
        TrigonalCurve(1, 2, [Fraction(0), Fraction(1)])        # wrong count
    with pytest.raises(ValidationError):
        TrigonalCurve(1, 2, [Fraction(0), Fraction(0), Fraction(1)])  # repeated root


def test_genus_and_weights():
    c = make12()
    assert c.genus == 2
    assert c.wt_w == 4 and c.wt_y == 5         # 2r+s, 2s+r for (1, 2)
    c = TrigonalCurve(2, 3, [Fraction(k) for k in range(1, 6)])
    assert c.genus == 4
    assert (c.wt_w, c.wt_y) == (7, 8)


def test_ab_split():
    # first s points feed A (simple), last r feed B (double)
    c = make12()
    assert c.A.degree == 2 and c.B.degree == 1
    assert c.A(Fraction(0)) == 0 and c.A(Fraction(1)) == 0
    assert c.B(Fraction(-1)) == 0
    assert c.branch_exponent(0) == 1 and c.branch_exponent(2) == 2


def test_ring_relations_exact():
    c = make12()
    w, y = c.w_elem(), c.y_elem()
    AB = c.element(c.AB)
    A = c.element(c.A)
    B = c.element(c.B)
    assert w * y == AB
    assert w * w == B * y
    assert y * y == A * w
    # associativity through the relations: (w*w)*w = AB^2 as a polynomial
    assert w * w * w == c.element(c.A * c.B * c.B)
    assert y * y * y == c.element(c.A * c.A * c.B)


def test_monomial_weights_distinct_mod_3():
    c = make12()
    assert c.monomial_weight(0, 0, 0) == 0
    assert c.monomial_weight(1, 0, 0) == 3
    assert c.monomial_weight(0, 1, 0) == c.wt_w
    assert c.monomial_weight(0, 0, 1) == c.wt_y
    assert c.wt_w % 3 != 0 and c.wt_y % 3 != 0 and (c.wt_w - c.wt_y) % 3 != 0


def test_basis_occupied_weights_complement_gaps():
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        pts = [Fraction(k) for k in range(1, r + s + 1)]
        c = TrigonalCurve(r, s, pts)
        table = c.basis_R(3 * c.genus + 4)
        occupied = set(table.occupied_weights)
        from trigjac.semigroup import family_semigroup
        sg = family_semigroup(r, s)
        expected = set(range(3 * c.genus + 5)) - set(sg.gaps)
        assert occupied == expected


def test_holomorphic_form_count_is_genus():
    for r, s in [(1, 2), (2, 3), (1, 3), (2, 4)]:
        pts = [Fraction(k) for k in range(1, r + s + 1)]
        c = TrigonalCurve(r, s, pts)
        assert len(c.holomorphic_form_codes()) == c.genus


def test_point_on_curve_and_sheets():
    c = make12()
    with mp.workdps(45):
        pts = [c.point(mp.mpf(3) / 7, sheet=k) for k in range(3)]
        vals = sorted(mp.fabs(p.w) for p in pts)
        assert pts[0].w != pts[1].w
        for p in pts:
            lhs = p.w ** 3
            rhs = c.ab2_mp(p.x)
            assert mp.fabs(lhs - rhs) < mp.mpf(10) ** (-38) * (1 + mp.fabs(rhs))
            # w y = AB on points too
            assert mp.fabs(p.w * p.y - c.ab_mp(p.x)) < mp.mpf(10) ** (-38)
        # sheets are the three cube-root branches: equal magnitude
        assert mp.fabs(vals[0] - vals[2]) < mp.mpf(10) ** (-38)


def test_conjugate_cycles_sheets():
    c = make12()
    with mp.workdps(45):
        p = c.point(mp.mpc("0.37", "0.21"), sheet=0)
        q = p.conjugate(1).conjugate(1).conjugate(1)
        assert mp.fabs(q.w - p.w) < mp.mpf(10) ** (-38)


def test_local_series_satisfies_equation():
    c = make12()
    with mp.workdps(45):
        x0 = mp.mpf(2) / 5
        p = c.point(x0, sheet=1)
        order = 6
        wser, yser = c.local_series(x0, p.w, order)
        # compose: wser(h)^3 - A(x0+h) B(x0+h)^2 = O(h^(order+1))
        h = mp.mpf(10) ** -6
        lhs = sum(cf * h ** k for k, cf in enumerate(wser.coeffs))
        target = c.ab2_mp(x0 + h)
        assert mp.fabs(lhs ** 3 - target) < mp.mpf(10) ** (-30)
        lhs_y = sum(cf * h ** k for k, cf in enumerate(yser.coeffs))
        assert mp.fabs(lhs * lhs_y - c.ab_mp(x0 + h)) < mp.mpf(10) ** (-30)


def test_roots_of_poly_oracle():
    with mp.workdps(45):
        roots = roots_of_poly([Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)])
        got = sorted(float(r.real) for r in roots)
        assert [round(v) for v in got] == [1, 2, 3]
        assert max(abs(r.imag) for r in roots) < mp.mpf(10) ** (-38)


def test_fingerprint_is_determined_by_branch_points():
    c1 = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    c2 = make12()
    assert c1.fingerprint() == c2.fingerprint()
    c3 = make12((0, 1, 2))
    assert c3.fingerprint() != c2.fingerprint()


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(st.lists(rationals, min_size=3, max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
def test_property_ring_relations(points):
    c = TrigonalCurve(1, 2, points)
    w, y = c.w_elem(), c.y_elem()
    assert w * y == c.element(c.AB)
    assert w * w == c.element(c.B) * y
    assert y * y == c.element(c.A) * w
    # distributivity on a mixed element
    e = c.element(c.A) + w - y
    assert e * (w + y) == e * w + e * y


@given(st.lists(rationals, min_size=5, max_size=5, unique=True),
       st.integers(0, 6), st.sampled_from([(0, 0), (1, 0), (0, 1)]))
@settings(max_examples=25, deadline=None)
def test_property_monomial_weight_additivity(points, a, kind):
    c = TrigonalCurve(2, 3, points)
    b, cc = kind
    m = c.monomial(a, b, cc)
    assert m.weight == 3 * a + b * c.wt_w + cc * c.wt_y
