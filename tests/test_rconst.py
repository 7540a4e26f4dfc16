"""The Riemann constant, its branch shift, and the half-period structure."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from trigjac import PeriodEngine, RunConfig, TrigonalCurve, cli, periods, rconst, roots_of_poly
from trigjac.cli import EXIT_PRECISION, EXIT_VERIFICATION, main
from trigjac.divisor import canonical_divisor
from trigjac.errors import NoCandidate, PrecisionLoss
from trigjac.rconst import (
    automorphism_offset,
    characteristic_of,
    match_published,
    published_characteristic,
    riemann_constant,
    shifted_constant,
    verify_shifted,
)
from trigjac.theta import ThetaChar, half_characteristics, theta_value


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


def test_verify_shifted_report(engine12):
    report = verify_shifted(engine12)
    assert report["ok"], report
    assert report["vanishing_ok"] and report["offdiv_ok"]
    assert report["parity_ok"] and report["symmetric_divisor_ok"]
    assert report["torsion3_ok"]


def test_verify_shifted_reuses_the_battery_draws(engine12, monkeypatch):
    # every divisor comes from the riemann_constant battery: no draw, no Abel
    # point, one theta per battery draw plus off-divisor, parity and symmetry
    rc = riemann_constant(engine12)
    abel_calls, theta_calls = [], []
    real_abel, real_theta = PeriodEngine.abel_point, rconst.theta_value

    def no_draw(*args):
        raise AssertionError("verify_shifted drew a divisor")

    def abel_point(self, pt):
        abel_calls.append(pt)
        return real_abel(self, pt)

    def theta(*args):
        theta_calls.append(args)
        return real_theta(*args)

    monkeypatch.setattr(rconst, "random_effective_points", no_draw)
    monkeypatch.setattr(PeriodEngine, "abel_point", abel_point)
    monkeypatch.setattr(rconst, "theta_value", theta)
    report = verify_shifted(engine12)
    assert report["ok"], report
    assert abel_calls == []
    assert len(theta_calls) == rconst.BATTERY_SIZE + 3
    assert report["plain_shift_worst_rel"] == max(rel for _z, rel in rc.battery)


@pytest.mark.parametrize("call, probe", [
    (0, "characteristic battery"),
    (rconst.BATTERY_SIZE - 1, "characteristic battery"),
    (rconst.BATTERY_SIZE, "off-divisor control"),
    (rconst.BATTERY_SIZE + 1, "central symmetry"),
], ids=["first-draw", "last-draw", "off-divisor", "symmetry"])
def test_grey_band_in_verify_shifted_is_a_precision_loss(engine12, monkeypatch, call, probe):
    # the battery itself decides with the real verdicts; only the given call
    # inside verify_shifted lands in the grey band
    riemann_constant(engine12)
    real = rconst.classify_vanishing
    calls = []

    def classify(value_abs, scale, config):
        calls.append(value_abs)
        return None if len(calls) == call + 1 else real(value_abs, scale, config)

    monkeypatch.setattr(rconst, "classify_vanishing", classify)
    with pytest.raises(PrecisionLoss, match=f"{probe} lands in the theta grey band"):
        verify_shifted(engine12)


def test_grey_band_in_verify_exits_4(monkeypatch, capsys):
    inside = []
    real_verify, real_classify = rconst.verify_shifted, rconst.classify_vanishing

    def verify(engine):
        inside.append(engine)
        return real_verify(engine)

    def classify(value_abs, scale, config):
        return None if inside else real_classify(value_abs, scale, config)

    monkeypatch.setattr(cli, "verify_shifted", verify)
    monkeypatch.setattr(rconst, "classify_vanishing", classify)
    assert main(["--precision", "20", "verify", "1", "2", "0", "1", "--", "-1"]) == EXIT_PRECISION
    assert "grey band" in capsys.readouterr().err


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


def _engine(r, s, branch, precision):
    """A computed engine; branch is a list of rationals or, as a string, the
    low-to-high coefficients of the polynomial whose roots are the branch set."""
    cfg = RunConfig(precision=precision)
    with mp.workdps(cfg.working_dps):
        if isinstance(branch, str):
            branch = roots_of_poly([Fraction(c) for c in branch.split(",")])
        engine = PeriodEngine(TrigonalCurve(r, s, branch), cfg)
        engine.compute()
    return engine


def _offset(engine):
    """automorphism_offset at base = -abel(K)/2, as riemann_constant calls it."""
    with mp.workdps(engine.config.working_dps):
        acan = engine.abel_divisor(canonical_divisor(engine.curve))
        return automorphism_offset(engine, [-v / 2 for v in acan])


def _int_product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


F = Fraction
# the offsets the 4^g-candidate battery picked on these curves before the
# automorphism derivation replaced it
BATTERY_PICKS = [
    (1, 2, [F(0), F(1), F(-1)], 20, ((0, 1), (1, 1))),
    (1, 2, [F(6), F(-1, 3), F(-2)], 20, ((0, 1), (1, 1))),
    (2, 1, [F(0), F(1), F(-1)], 20, ((0, 1), (0, 1))),
    (1, 3, [F(0), F(1), F(-1), F(2)], 20, ((0, 1, 1), (1, 0, 1))),
    (3, 1, [F(0), F(1), F(-1), F(2)], 20, ((0, 1, 1), (0, 1, 0))),
    (1, 2, "1,1,0,1", 30, ((0, 1), (1, 1))),
    (0, 4, "1,0,0,0,1", 40, ((0, 1, 1), (1, 0, 1))),
]


@pytest.mark.parametrize("r, s, branch, precision, bits", BATTERY_PICKS,
                         ids=["1_2", "1_2_thirds", "2_1", "1_3", "3_1", "1_2_roots_of", "quartic"])
def test_automorphism_offset_is_the_battery_pick(r, s, branch, precision, bits):
    _R, got = _offset(_engine(r, s, branch, precision))
    assert got == bits


def test_automorphism_matrix_identities_at_genus_4():
    R, bits = _offset(_engine(2, 3, [F(0), F(1), F(-1), F(2), F(-2)], 20))
    n = len(R)
    assert n == 8
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    J = [[(j == i + 4) - (i == j + 4) for j in range(n)] for i in range(n)]
    RR = _int_product(R, R)
    assert [[RR[i][j] + R[i][j] + eye[i][j] for j in range(n)] for i in range(n)] == \
        [[0] * n for _ in range(n)]
    assert _int_product(RR, R) == eye
    Rt = [list(col) for col in zip(*R)]
    assert _int_product(_int_product(Rt, J), R) == J
    assert bits == ((0, 1, 1, 1), (1, 1, 0, 0))


def test_wrong_prediction_is_no_candidate(monkeypatch, capsys):
    # the battery pick on this curve is ((0, 1), (1, 1)); flip its first bit
    real = rconst.automorphism_offset

    def wrong(engine, base):
        R, (top, bottom) = real(engine, base)
        return R, ((1 - top[0], *top[1:]), bottom)

    monkeypatch.setattr(rconst, "automorphism_offset", wrong)
    predicted = str(ThetaChar.half_from_bits((1, 1), (1, 1)).to_json())
    with pytest.raises(NoCandidate, match="fails Riemann vanishing") as exc:
        riemann_constant(_engine(1, 2, [F(0), F(1), F(-1)], 20))
    assert predicted in str(exc.value)
    assert main(["--precision", "20", "rc", "1", "2", "0", "1", "--", "-1"]) == EXIT_VERIFICATION
    assert predicted in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, message", [
    # Lam scaled off the lattice: its images round badly
    (lambda kind, k: periods._character(kind, k) * (1 + mp.mpf("1e-6")), "misses the lattice"),
    # Lam = I reduces exactly, but I + R + R^2 = 3I
    (lambda kind, k: 1, r"fails I \+ R \+ R\^2"),
], ids=["off-lattice", "identity"])
def test_corrupted_automorphism_is_a_precision_loss(monkeypatch, capsys, corrupt, message):
    monkeypatch.setattr(rconst, "_character", corrupt)
    with pytest.raises(PrecisionLoss, match=message):
        _offset(_engine(1, 2, [F(0), F(1), F(-1)], 20))
    assert main(["--precision", "20", "rc", "1", "2", "0", "1", "--", "-1"]) == EXIT_PRECISION
    assert "precision failure" in capsys.readouterr().err
