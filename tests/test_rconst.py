"""The Riemann constant, its branch shift, and the half-period structure."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from trigjac import PeriodEngine, RunConfig, TrigonalCurve, rconst
from trigjac.errors import PrecisionLoss
from trigjac.rconst import (
    characteristic_of,
    match_published,
    published_characteristic,
    riemann_constant,
    shifted_constant,
    verify_shifted,
)
from trigjac.theta import half_characteristics, theta_value


def test_riemann_constant_is_decisive(engine12):
    rc = riemann_constant(engine12)
    assert len(rc.delta) == 2
    assert rc.decisive_rounds >= 3
    # memoized on the engine: same object back
    assert riemann_constant(engine12) is rc


def test_unshifted_constant_not_half_period_when_nonsymmetric(engine12, config40):
    sc = shifted_constant(engine12)
    assert not sc.unshifted_is_half_period


def test_shifted_constant_is_half_period(engine12, config40):
    sc = shifted_constant(engine12)
    tol = config40.lattice_tol
    with mp.workdps(config40.working_dps):
        assert sc.lattice_dist_2delta_s < tol
        assert sc.char_residual < tol
        assert sc.char.is_half_integer()


def test_shifted_theta_vanishes_on_abel_images(engine12, config40):
    # theta[delta](Abl_s(P)) = 0: the shifted Abel map adds abel(frak_B)
    import random

    from trigjac.divisor import frak_B
    from trigjac.rconst import random_effective_points

    sc = shifted_constant(engine12)
    data = engine12.compute()
    with mp.workdps(config40.working_dps):
        aB = engine12.abel_divisor(frak_B(engine12.curve))
        pts = random_effective_points(engine12.curve, 3, random.Random(7))
        for pt in pts:
            av = engine12.abel_point(pt)
            v = [aB[l] + av[l] for l in range(2)]
            val, scale = theta_value(v, data.tau, sc.char)
            assert abs(val) < mp.mpf("1e-30") * scale
        # an off-divisor control: a generic z should not vanish
        zc = [mp.mpc("0.31", "0.12"), mp.mpc("-0.22", "0.41")]
        val, scale = theta_value(zc, data.tau, sc.char)
        assert abs(val) > mp.mpf("1e-10") * scale


def test_characteristic_roundtrip(engine12, config40):
    with mp.workdps(config40.working_dps):
        tau = engine12.compute().tau
        for k, ch in enumerate(half_characteristics(2)):
            # tau d' + d'' moved by a nonzero lattice vector m + tau n
            m, n = (k % 3 - 1, 1), (-1, k % 2 + 1)
            v = [x + m[i] + tau[i, 0] * n[0] + tau[i, 1] * n[1]
                 for i, x in enumerate(ch.vector(tau))]
            char, resid = characteristic_of(engine12, v)
            assert resid < config40.lattice_tol
            assert char.top == ch.top and char.bottom == ch.bottom, k


def test_verify_shifted_report(engine12, monkeypatch):
    # the session engine keeps its 20-round Riemann constant; only the
    # verification battery is cut short
    riemann_constant(engine12)
    monkeypatch.setattr(rconst, "BATTERY_SIZE", 6)
    report = verify_shifted(engine12)
    assert report["ok"], report
    assert report["vanishing_ok"] and report["plain_shift_ok"] and report["offdiv_ok"]
    assert report["parity_ok"] and report["symmetric_divisor_ok"]
    assert report["torsion3_ok"]


def test_no_published_value_for_generic_member(engine12):
    assert published_characteristic(engine12.curve) is None
    assert match_published(engine12) == {"applicable": False}


def test_undecided_battery_is_a_precision_loss(monkeypatch):
    # every draw after the second lands in the grey band, so the battery runs
    # out of draws with one survivor and 2 of its 4 decisive rounds
    cfg = RunConfig(precision=20)
    monkeypatch.setattr(rconst, "BATTERY_SIZE", 4)
    with mp.workdps(cfg.working_dps):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    engine = PeriodEngine(curve, cfg)
    draws = []
    real_draw, real_classify = rconst.random_effective_points, rconst.classify_vanishing

    def counted_draw(*args):
        draws.append(args)
        return real_draw(*args)

    def classify(value_abs, scale, config):
        return real_classify(value_abs, scale, config) if len(draws) <= 2 else None

    monkeypatch.setattr(rconst, "random_effective_points", counted_draw)
    monkeypatch.setattr(rconst, "classify_vanishing", classify)
    with pytest.raises(PrecisionLoss, match="only 2 of 4 battery rounds decisive"):
        riemann_constant(engine)
    assert len(draws) == 6 * rconst.BATTERY_SIZE + 10
