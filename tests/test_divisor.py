"""Exact divisor arithmetic, Riemann-Roch spaces, the semi-canonical class."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from trigjac import PeriodEngine, RunConfig
from trigjac.curve import TrigonalCurve
from trigjac.divisor import (
    Divisor,
    canonical_divisor,
    dx_over_wy_divisor,
    equivalence_witness,
    frak_B,
    frak_B1,
    is_linearly_trivial,
    place_B,
    place_P,
    principal_divisor,
    rr_dim,
    rr_space,
    semicanonical_D0,
    verify_semicanonical,
)
from trigjac.errors import RootAccountingFailure
from trigjac.polyutil import Poly
from trigjac.semigroup import family_semigroup


def make(r: int, s: int, points=None) -> TrigonalCurve:
    pts = points or [Fraction(k) for k in range(1, r + s + 1)]
    return TrigonalCurve(r, s, pts)


def test_divisor_arithmetic():
    c = make(1, 2)
    D1 = place_P(c, 3) - place_B(c, 0, 1)
    assert D1.degree == 2
    assert (D1 + D1).degree == 4
    assert (2 * D1).exact_eq(D1 + D1)
    assert (-D1).degree == -2
    assert not D1.is_effective()
    assert place_P(c, 2).is_effective()


def test_divisor_of_w_identity():
    # (w) = A-places + 2 B-places - (s + 2r) P for every family member
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        c = make(r, s)
        got = principal_divisor(c.w_elem())
        expected = Divisor(
            c,
            p=-(s + 2 * r),
            b=tuple(c.branch_exponent(i) for i in range(c.n_branch)),
        )
        assert got.exact_eq(expected)
        assert got.degree == 0


def test_divisor_of_y_identity():
    # (y) = 2 A-places + B-places - (2s + r) P
    c = make(1, 2)
    got = principal_divisor(c.y_elem())
    assert got.exact_eq(Divisor(c, p=-5, b=(2, 2, 1)))


def test_canonical_divisor_degree_and_form():
    for r, s in [(1, 2), (2, 3), (1, 3), (2, 4)]:
        c = make(r, s)
        K = canonical_divisor(c)
        g = c.genus
        assert K.degree == 2 * g - 2
        # dx/w vanishes exactly at the simple branch places plus infinity
        assert K.b == tuple(1 if c.branch_exponent(i) == 1 else 0
                            for i in range(c.n_branch))
        assert K.p == 2 * g - 2 - s


def test_dx_over_wy_divisor():
    c = make(2, 3)
    D = dx_over_wy_divisor(c)
    assert D.degree == 2 * c.genus - 2
    assert D.exact_eq(-frak_B1(c) + place_P(c, 2 * c.genus - 2 + c.n_branch))


def test_rr_dim_large_pole_oracle():
    # Riemann-Roch: l(nP) = n - g + 1 once n >= 2g - 1
    c = make(1, 2)
    g = c.genus
    for n in range(2 * g - 1, 2 * g + 6):
        assert rr_dim(place_P(c, n)) == n - g + 1


def test_rr_dim_counts_semigroup_elements():
    # l(nP) = #(H cap [0, n]) at a Weierstrass point, any n >= 0
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        c = make(r, s)
        sg = family_semigroup(r, s)
        elems = set(sg.elements_upto(3 * c.genus + 2))
        for n in range(0, 3 * c.genus + 3):
            assert rr_dim(place_P(c, n)) == sum(1 for e in elems if e <= n)


def test_rr_space_of_canonical_is_genus():
    for r, s in [(1, 2), (2, 3)]:
        c = make(r, s)
        basis = rr_space(canonical_divisor(c))
        assert len(basis) == c.genus


def test_nonsymmetric_obstruction():
    # frak_B - rP is never trivial for the non-symmetric members, but 3x is
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        c = make(r, s)
        B = frak_B(c)
        d = B - place_P(c, r)
        assert rr_dim(place_P(c, r) - B) == 0
        assert not is_linearly_trivial(d)
        assert is_linearly_trivial(3 * d)
        assert equivalence_witness(3 * d) is not None


def test_torsion_witness_has_right_divisor():
    c = make(1, 2)
    d3 = 3 * (frak_B(c) - place_P(c, c.r))
    f = equivalence_witness(d3)
    assert principal_divisor(f).exact_eq(d3)


def test_semicanonical_double_is_canonical():
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        c = make(r, s)
        D0 = semicanonical_D0(c)
        K = canonical_divisor(c)
        assert D0.degree == c.genus - 1
        assert is_linearly_trivial(K - 2 * D0)


def test_verify_semicanonical_full_report():
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        report = verify_semicanonical(make(r, s))
        bad = [k for k, v in report.items() if k.startswith("ok_") and not v]
        assert not bad, f"({r},{s}) failed: {bad}"


def test_b1_plus_b_principal():
    # B_1+...+B_s + 2(B_{s+1}+...+B_{s+r}) - (s+2r)P ~ 0, witnessed by w
    for r, s in [(1, 2), (2, 3), (1, 3)]:
        c = make(r, s)
        D = frak_B1(c) + frak_B(c) - place_P(c, s + 2 * r)
        assert D.degree == 0
        assert is_linearly_trivial(D)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@given(st.lists(rationals, min_size=3, max_size=3, unique=True),
       st.integers(0, 4), st.sampled_from([(0, 0), (1, 0), (0, 1)]),
       st.integers(0, 3), st.sampled_from([(0, 0), (1, 0), (0, 1)]))
# x (w + y) vanishes on all three lifts of x = 0, and twice on the one where
# w = -y
@example(points=[Fraction(6), Fraction(-1, 3), Fraction(-2)], a1=1, k1=(1, 0), a2=1, k2=(0, 1))
@settings(max_examples=30, deadline=None)
def test_property_principal_divisors_degree_zero(points, a1, k1, a2, k2):
    c = TrigonalCurve(1, 2, points)
    e = c.monomial(a1, *k1) + c.monomial(a2, *k2)
    if e.is_zero():
        return
    # norms can have zeros within ~1e-16 of a branch point (e.g. 1 + x^12*A*B^2
    # near a large root of B), so sheet assignment needs real working precision
    with mp.workdps(40):
        D = principal_divisor(e)
        assert D.degree == 0
        if not D.has_generic():
            # triviality certificates need support on P and the branch places only
            assert is_linearly_trivial(D)


@given(st.lists(rationals, min_size=3, max_size=3, unique=True))
@settings(max_examples=20, deadline=None)
def test_property_semicanonical_any_rational_curve(points):
    report = verify_semicanonical(TrigonalCurve(1, 2, points))
    assert all(v for k, v in report.items() if k.startswith("ok_"))


# -- principal divisors with generic zeros and poles, checked by Abel's theorem

CONFIG30 = RunConfig(precision=30)


@pytest.fixture(scope="module")
def engines30():
    with mp.workdps(CONFIG30.working_dps):
        curves = {
            "exact": TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)]),
            "decimal": TrigonalCurve(1, 2, [mp.mpc(0.5), mp.mpc(1), mp.mpc(-1)]),
        }
    return {kind: PeriodEngine(c, CONFIG30) for kind, c in curves.items()}


def _linear(c, root):
    """x - root as a polynomial over the curve's field."""
    return Poly([-root * c.one, c.one])


def _assert_fiber(D, x0, mult):
    """The generic part of D is mult times each of the three lifts of x0."""
    assert sorted(pt.sheet for pt, _ in D.generic) == [0, 1, 2]
    assert all(m == mult and abs(pt.x - x0) < mp.mpf(10) ** -25 for pt, m in D.generic)


@pytest.mark.parametrize("kind, build, p, b, generic", [
    # numerator norms whose leftover roots are simple: root finder, then _cluster
    ("decimal", lambda c: c.monomial(1, 0, 0) + c.w_elem().scale(3), -4, (0, 0, 0), 4),
    ("decimal", lambda c: c.monomial(2, 0, 1) + c.w_elem().scale(3), -11, (1, 1, 1), 8),
    # a branch root in the denominator: -3 B1 and no generic pole
    ("exact", lambda c: c.element(p0=_linear(c, -2), den=_linear(c, c.branch_points[0])),
     0, (-3, 0, 0), (-2, 1)),
    # a generic root in the denominator: a pole at each of its three lifts
    ("exact", lambda c: c.element(p1=1, den=_linear(c, 3)), -1, (1, 1, 2), (3, -1)),
    ("decimal", lambda c: c.element(p1=1, den=_linear(c, 3)), -1, (1, 1, 2), (3, -1)),
    # a repeated generic zero: the exact squarefree split finds its multiplicity
    ("exact", lambda c: c.element(p1=_linear(c, -3)), -7, (1, 1, 2), (-3, 1)),
], ids=["x+3w", "x2y+3w", "(x+2)/(x-b1)", "w/(x-3)", "w/(x-3)-decimal", "(x+3)w"])
def test_principal_divisor_with_generic_support_satisfies_abel(engines30, kind, build,
                                                                p, b, generic):
    engine = engines30[kind]
    with mp.workdps(CONFIG30.working_dps):
        D = principal_divisor(build(engine.curve))
        assert (D.p, D.b, D.degree) == (p, b, 0)
        if isinstance(generic, int):
            assert [m for _, m in D.generic] == [1] * generic
        else:
            _assert_fiber(D, *generic)
        assert engine.lattice_reduce(engine.abel_divisor(D)).dist <= CONFIG30.lattice_tol


def test_repeated_generic_zero_on_a_numeric_curve_is_a_root_accounting_failure(engines30):
    # the norm of (x + 3) w has the triple root x = -3, which the numeric root
    # finder cannot resolve; the exact curve splits it off (case "(x+3)w" above)
    c = engines30["decimal"].curve
    with mp.workdps(CONFIG30.working_dps):
        with pytest.raises(RootAccountingFailure, match="did not converge"):
            principal_divisor(c.element(p1=_linear(c, -3)))
