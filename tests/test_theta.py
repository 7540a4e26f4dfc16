"""Theta with characteristics: box-sum reference at g = 2, 3, 4, truncation
bound, genus-1 oracle, shifts, parity."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from trigjac.config import RunConfig
from trigjac.errors import PrecisionLoss
from trigjac.theta import (
    ThetaChar,
    classify_vanishing,
    half_characteristics,
    theta_value,
)

H = Fraction(1, 2)
Z = Fraction(0)


def tau_g2():
    # a synthetic Riemann matrix: symmetric with positive definite imaginary part
    return mp.matrix([
        [mp.mpc("0.25", "1.1"), mp.mpc("0.15", "0.3")],
        [mp.mpc("0.15", "0.3"), mp.mpc("-0.4", "0.9")],
    ])


def tau_g3():
    # symmetric, and Im tau is diagonally dominant, so positive definite
    re = [["0.2", "0.1", "-0.05"], ["0.1", "-0.3", "0.15"], ["-0.05", "0.15", "0.4"]]
    im = [["1.0", "0.2", "0.1"], ["0.2", "0.95", "0.25"], ["0.1", "0.25", "1.05"]]
    return mp.matrix([[mp.mpc(re[i][j], im[i][j]) for j in range(3)] for i in range(3)])


def tau_g4():
    # symmetric, and Im tau is diagonally dominant, so positive definite
    re = [["0.1", "-0.2", "0.05", "0.15"], ["-0.2", "0.3", "0.1", "-0.1"],
          ["0.05", "0.1", "-0.25", "0.2"], ["0.15", "-0.1", "0.2", "0.35"]]
    im = [["2.7", "0.1", "-0.05", "0.1"], ["0.1", "2.6", "0.15", "0.05"],
          ["-0.05", "0.15", "2.8", "-0.1"], ["0.1", "0.05", "-0.1", "2.65"]]
    return mp.matrix([[mp.mpc(re[i][j], im[i][j]) for j in range(4)] for i in range(4)])


def tau_long_rows():
    # Im tau_00 = 0.08: at 30 digits the innermost rows of the ellipsoid are
    # about 2 * 5.2 / sqrt(0.08) = 37 points long, so the term ratios are
    # carried over 18 steps each side of the vertex
    return mp.matrix([
        [mp.mpc("0.35", "0.08"), mp.mpc("-0.1", "0.05")],
        [mp.mpc("-0.1", "0.05"), mp.mpc("0.2", "1.2")],
    ])


def box_theta(z, tau, char, N):
    """(theta, max term magnitude, max term magnitude on the box surface) by
    the defining series over the box |n_i| <= N_i."""
    g = tau.rows
    dp, dq = char.entries_mp()
    total, scale, surface = mp.mpc(0), mp.mpf(0), mp.mpf(0)
    for n in product(*(range(-k, k + 1) for k in N)):
        nu = [n[i] + dp[i] for i in range(g)]
        quad = sum(nu[i] * tau[i, j] * nu[j] for i in range(g) for j in range(g))
        lin = sum(nu[i] * (z[i] + dq[i]) for i in range(g))
        term = mp.exp(mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
        total += term
        scale = max(scale, abs(term))
        if any(abs(a) == k for a, k in zip(n, N)):
            surface = max(surface, abs(term))
    return total, scale, surface


@pytest.mark.parametrize("tau_fn,char,z,N", [
    (tau_g2, ThetaChar(top=(H, Z), bottom=(Fraction(1, 3), H)),
     [("0.21", "-0.17"), ("-0.34", "0.26")], (6, 6)),
    (tau_g3, ThetaChar(top=(H, Fraction(1, 4), Z), bottom=(Z, H, Fraction(2, 3))),
     [("0.13", "0.22"), ("-0.41", "-0.08"), ("0.3", "0.15")], (6, 6, 6)),
    (tau_g4, ThetaChar(top=(Z, H, Fraction(1, 3), Z), bottom=(H, Z, Z, Fraction(1, 4))),
     [("0.07", "0.12"), ("-0.2", "0.05"), ("0.31", "-0.1"), ("-0.12", "0.2")], (4, 4, 4, 4)),
    (tau_long_rows, ThetaChar(top=(H, Z), bottom=(H, Fraction(1, 3))),
     [("0.17", "0.11"), ("-0.23", "-0.06")], (26, 6)),
], ids=["g2", "g3", "g4", "long-rows"])
def test_theta_matches_the_series_over_a_box(tau_fn, char, z, N):
    # an absolute reference, the defining series itself: N is large enough
    # that the terms on the box surface are below 10^-(dps+5) of the scale,
    # and the Gaussian terms outside the box fall off faster still
    dps = 30
    with mp.workdps(dps):
        tau = tau_fn()
        zv = [mp.mpc(*v) for v in z]
        want, want_scale, surface = box_theta(zv, tau, char, N)
        assert surface < mp.mpf(10) ** -(dps + 5) * want_scale
        got, scale = theta_value(zv, tau, char)
        assert abs(got - want) < mp.mpf(10) ** (3 - dps) * want_scale
        assert abs(scale - want_scale) < mp.mpf(10) ** (3 - dps) * want_scale


def tau_dense(g, rng):
    # purely imaginary, Im tau = A A^T + 0.3 I with A seeded: a dense lattice
    A = [[rng.uniform(-0.5, 0.5) for _ in range(g)] for _ in range(g)]
    tau = mp.matrix(g, g)
    for i in range(g):
        for j in range(g):
            tau[i, j] = mp.mpc(0, sum(A[i][k] * A[j][k] for k in range(g)) + 0.3 * (i == j))
    return tau


@pytest.mark.parametrize("g", [2, 3, 4])
def test_sum_to_verdict_digits_stays_within_its_bound(g):
    # Re tau = Re z = d'' = 0 makes every term positive, so no cancellation
    # hides what the shorter radius leaves out, and on a dense lattice the tail
    # bound is within a few digits of the tail: a radius one unit short of the
    # certified one exceeds 10^-digits * scale here
    rng = random.Random(g)
    with mp.workdps(30):
        tau = tau_dense(g, rng)
        for _ in range(6):
            char = ThetaChar.half_from_bits([rng.randrange(2) for _ in range(g)], [0] * g)
            z = [mp.mpc(0, rng.uniform(-0.5, 0.5)) for _ in range(g)]
            full, _ = theta_value(z, tau, char)
            for digits in (10, 16, 26):  # 16, 26: the verdict digits at p 20, 40
                got, scale = theta_value(z, tau, char, digits=digits)
                assert abs(got - full) < mp.mpf(10) ** -digits * scale


def test_genus_one_jtheta_oracle():
    with mp.workdps(45):
        tau = mp.matrix([[mp.mpc("0.3", "0.8")]])
        q = mp.exp(mp.pi * 1j * tau[0, 0])
        for z in (mp.mpc(0), mp.mpc("0.17", "0.05"), mp.mpc("-0.4", "0.33")):
            got, scale = theta_value([z], tau)
            want = mp.jtheta(3, mp.pi * z, q)
            assert abs(got - want) < mp.mpf("1e-38") * (1 + abs(want))


def test_genus_one_odd_characteristic_is_jtheta1():
    # delta = (1/2; 1/2) reproduces (up to sign) the classical theta_1
    with mp.workdps(45):
        tau = mp.matrix([[mp.mpc("0.1", "0.9")]])
        q = mp.exp(mp.pi * 1j * tau[0, 0])
        char = ThetaChar(top=(H,), bottom=(H,))
        z = mp.mpc("0.23", "-0.11")
        got, _ = theta_value([z], tau, char)
        want = -mp.jtheta(1, mp.pi * z, q)
        assert abs(got - want) < mp.mpf("1e-38") * (1 + abs(want))
        zero, _ = theta_value([mp.mpc(0)], tau, char)
        assert abs(zero) < mp.mpf("1e-38")


def test_characteristic_reduces_to_plain_shift():
    # theta[d](z) = exp(pi i d' tau d' + 2 pi i d'.(z + d'')) theta(z + tau d' + d'')
    with mp.workdps(45):
        tau = tau_g2()
        char = ThetaChar(top=(H, Z), bottom=(Z, H))
        z = [mp.mpc("0.12", "0.07"), mp.mpc("-0.31", "0.02")]
        got, _ = theta_value(z, tau, char)
        dp = [mp.mpf(1) / 2, mp.mpf(0)]
        dpp = [mp.mpf(0), mp.mpf(1) / 2]
        zs = [z[k] + tau[k, 0] * dp[0] + tau[k, 1] * dp[1] + dpp[k] for k in range(2)]
        plain, _ = theta_value(zs, tau)
        quad = dp[0] * (tau[0, 0] * dp[0] + tau[0, 1] * dp[1]) + dp[1] * (
            tau[1, 0] * dp[0] + tau[1, 1] * dp[1]
        )
        lin = dp[0] * (z[0] + dpp[0]) + dp[1] * (z[1] + dpp[1])
        factor = mp.exp(mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
        assert abs(got - factor * plain) < mp.mpf("1e-36") * (1 + abs(got))


def quasi_period_factor(char, z, tau, m, n0):
    """Factor relating theta at z + tau*m + n0 to theta at z:

    theta[d](z + tau m + n0) = factor * theta[d](z), with
    factor = exp(2 pi i (d'.n0 - m.(z+d'') - m.tau.m/2)).
    """
    g = char.genus
    dp, dq = char.entries_mp()
    expo = mp.mpc(0)
    for i in range(g):
        expo += dp[i] * n0[i] - m[i] * (mp.mpc(z[i]) + dq[i])
        for j in range(g):
            expo -= mp.mpf(m[i] * m[j]) * tau[i, j] / 2
    return mp.exp(2j * mp.pi * expo)


@pytest.mark.parametrize("m,n0", [([1, 0], [0, 0]), ([0, -1], [1, 0]), ([1, 1], [-1, 2])])
def test_quasi_periodicity(m, n0):
    with mp.workdps(45):
        tau = tau_g2()
        char = ThetaChar(top=(H, Z), bottom=(H, H))
        z = [mp.mpc("0.08", "0.21"), mp.mpc("0.4", "-0.13")]
        shifted = [
            z[k] + tau[k, 0] * m[0] + tau[k, 1] * m[1] + n0[k] for k in range(2)
        ]
        lhs, _ = theta_value(shifted, tau, char)
        base, _ = theta_value(z, tau, char)
        rhs = quasi_period_factor(char, z, tau, m, n0) * base
        assert abs(lhs - rhs) < mp.mpf("1e-34") * (1 + abs(lhs))


def test_parity_of_half_integer_characteristics():
    with mp.workdps(45):
        tau = tau_g2()
        z = [mp.mpc("0.19", "0.03"), mp.mpc("-0.07", "0.11")]
        neg = [-c for c in z]
        for char in half_characteristics(2):
            v1, _ = theta_value(z, tau, char)
            v2, _ = theta_value(neg, tau, char)
            e = char.parity()
            assert abs(v1 - e * v2) < mp.mpf("1e-36") * (1 + abs(v1))


def test_half_characteristics_census():
    for g in (1, 2, 3):
        chars = list(half_characteristics(g))
        assert len(chars) == 4 ** g
        evens = [c for c in chars if c.parity() == 1]
        assert len(evens) == 2 ** (g - 1) * (2 ** g + 1)
        assert all(c.is_half_integer() for c in chars)


def test_odd_characteristics_vanish_at_origin():
    with mp.workdps(45):
        tau = tau_g2()
        z0 = [mp.mpc(0), mp.mpc(0)]
        for char in half_characteristics(2):
            if char.parity() == -1:
                v, scale = theta_value(z0, tau, char)
                assert abs(v) < mp.mpf("1e-38") * scale


def test_classify_vanishing_bands():
    cfg = RunConfig(precision=40)
    scale = mp.mpf(3)
    assert classify_vanishing(scale * mp.mpf("1e-30"), scale, cfg) is True
    assert classify_vanishing(scale * mp.mpf("0.5"), scale, cfg) is False
    mid = classify_vanishing(scale * mp.mpf("1e-14"), scale, cfg)
    assert mid is None


def test_scale_reflects_magnitude(engine12, config40):
    with mp.workdps(config40.working_dps):
        tau = engine12.compute().tau
        v, scale = theta_value([mp.mpc("0.3"), mp.mpc("0.2", "0.4")], tau)
        assert scale > 0
        assert abs(v) <= scale * mp.mpf(2)


@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=12, deadline=None)
def test_property_quasi_periodicity_integer_lattice(m0, m1, n0, n1):
    with mp.workdps(35):
        tau = tau_g2()
        z = [mp.mpc("0.05", "0.12"), mp.mpc("0.3", "-0.02")]
        m = [m0, m1]
        n = [n0, n1]
        shifted = [z[k] + tau[k, 0] * m[0] + tau[k, 1] * m[1] + n[k] for k in range(2)]
        lhs, _ = theta_value(shifted, tau)
        base, _ = theta_value(z, tau)
        rhs = quasi_period_factor(ThetaChar.zero(2), z, tau, m, n) * base
        assert abs(lhs - rhs) < mp.mpf("1e-25") * (1 + abs(lhs))


def test_indefinite_im_tau_is_a_precision_loss():
    tau = mp.matrix([[1j, 0], [0, -1j]])
    with pytest.raises(PrecisionLoss, match="not positive definite"):
        theta_value([0, 0], tau)
