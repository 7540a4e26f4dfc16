"""Period matrices: axioms, a genus-1 complex-multiplication oracle, Abel's theorem,
plain-chord quadrature against a tanh-sinh reference, and the period cache."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from mpmath import mp

from trigjac import periods
from trigjac.curve import TrigonalCurve
from trigjac.divisor import frak_B, place_P, points_divisor, principal_divisor
from trigjac.errors import PathCrossesBranchPoint
from trigjac.periods import PeriodEngine, _gauss_legendre_rule, _split_chord
from trigjac.config import RunConfig
from trigjac.quadrature import tanh_sinh_batch
from trigjac.rconst import random_effective_points


def imag_matrix(tau, g):
    return mp.matrix([[tau[i, j].imag for j in range(g)] for i in range(g)])


def test_riemann_matrix_axioms(engine12, config40):
    data = engine12.compute()
    g = 2
    with mp.workdps(config40.working_dps):
        tol = mp.mpf(10) ** (-(config40.precision - 8))
        for i in range(g):
            for j in range(g):
                assert abs(data.tau[i, j] - data.tau[j, i]) < tol
        eigs = mp.eigsy(imag_matrix(data.tau, g), eigvals_only=True)
        assert min(eigs) > mp.mpf("0.05")


def test_period_data_diagnostics(engine12):
    d = engine12.compute().diagnostics
    assert "tau_asym" in d and "imtau_min_eig" in d
    assert d["imtau_min_eig"] > 0
    assert isinstance(d["quad_levels"], list)


def test_genus_one_cm_oracle(config40):
    # w^3 = x^2 - 1 has genus 1 with an order-3 automorphism fixing P, so its
    # Jacobian is the hexagonal elliptic curve: j = 0, tau ~ sixth root of unity
    with mp.workdps(config40.working_dps):
        curve = TrigonalCurve(0, 2, [Fraction(1), Fraction(-1)])
        engine = PeriodEngine(curve, config40)
        data = engine.compute()
        tau = data.tau[0, 0]
        assert tau.imag > 0
        j = mp.kleinj(tau)
        assert abs(j) < mp.mpf(10) ** (-(config40.precision - 10))


def test_abel_of_principal_divisors_in_lattice(engine12, config40):
    curve = engine12.curve
    tol = mp.mpf(10) ** (-(config40.precision - 8))
    with mp.workdps(config40.working_dps):
        for elem in (curve.w_elem(), curve.y_elem()):
            D = principal_divisor(elem)
            v = engine12.abel_divisor(D)
            red = engine12.lattice_reduce(v)
            assert red.dist < tol, f"{elem} residual {red.dist}"


def test_abel_of_branch_triple_is_lattice_vector(engine12, config40):
    # 3 B_i ~ 3 P, so 3 * abel(B_i) must reduce to zero
    tol = mp.mpf(10) ** (-(config40.precision - 8))
    with mp.workdps(config40.working_dps):
        for i in range(engine12.curve.n_branch):
            v = engine12.abel_branch(i)
            red = engine12.lattice_reduce([3 * c for c in v])
            assert red.dist < tol


def test_frak_b_is_nontrivial_torsion(engine12, config40):
    # abel(frak_B - rP) is 3-torsion but not 0 for the non-symmetric members
    tol = mp.mpf(10) ** (-(config40.precision - 8))
    with mp.workdps(config40.working_dps):
        v = engine12.abel_divisor(frak_B(engine12.curve) - place_P(engine12.curve, 1))
        assert engine12.lattice_reduce(v).dist > mp.mpf("0.01")
        assert engine12.lattice_reduce([3 * c for c in v]).dist < tol


def test_abel_values_round_to_working_precision(engine12, config40):
    # a value with a longer mantissa than mp.prec is rounded by its first
    # use, even 1 * v, so the same Abel sum assembled two ways would differ
    def mantissa_bits(z):
        return max(z.real._mpf_[3], z.imag._mpf_[3])

    curve = engine12.curve
    with mp.workdps(config40.working_dps):
        pts = random_effective_points(curve, 3, random.Random(7))
        values = [engine12.abel_point(pt) for pt in pts]
        values += [engine12.abel_branch(i) for i in range(curve.n_branch)]
        assert all(mantissa_bits(c) <= mp.prec for v in values for c in v)
        total = values[0]
        for v in values[1 : len(pts)]:
            total = [t + c for t, c in zip(total, v)]
        assert engine12.abel_divisor(points_divisor(curve, pts)) == total


def test_lattice_reduce_roundtrip(engine12, config40):
    with mp.workdps(config40.working_dps):
        tau = engine12.compute().tau
        m = [2, -1]
        n = [1, 3]
        v = [tau[0, 0] * m[0] + tau[0, 1] * m[1] + n[0],
             tau[1, 0] * m[0] + tau[1, 1] * m[1] + n[1]]
        red = engine12.lattice_reduce(v)
        assert red.dist < mp.mpf(10) ** (-30)
        assert (red.m, red.n) == (tuple(-x for x in m), tuple(-x for x in n)) or red.dist < mp.mpf(10) ** (-30)


def test_cache_roundtrip_bit_identical(tmp_path, config40):
    cfg = RunConfig(precision=config40.precision, cache_dir=str(tmp_path))
    with mp.workdps(cfg.working_dps):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    cold = PeriodEngine(curve, cfg).compute()
    files = list(tmp_path.iterdir())
    assert files, "cache file was not written"
    warm = PeriodEngine(curve, cfg).compute()
    g = curve.genus
    for i in range(g):
        for j in range(g):
            assert warm.tau[i, j] == cold.tau[i, j]
            assert warm.tau[i, j].real._mpf_ == cold.tau[i, j].real._mpf_
    assert warm.fingerprint == cold.fingerprint
    assert warm.diagnostics.keys() == cold.diagnostics.keys()
    for k, v in cold.diagnostics.items():
        w = warm.diagnostics[k]
        assert (v == w if isinstance(v, list) else v._mpf_ == w._mpf_)


def test_fingerprint_distinguishes_curves(config40):
    with mp.workdps(config40.working_dps):
        c1 = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
        c2 = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-2)])
    e1, e2 = PeriodEngine(c1, config40), PeriodEngine(c2, config40)
    assert e1.cache_key() != e2.cache_key()


def test_cache_refuses_lower_precision_entries(tmp_path):
    with mp.workdps(70):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    low = PeriodEngine(curve, RunConfig(precision=25, cache_dir=str(tmp_path)))
    assert low.compute().precision == 25
    # a higher-precision engine must not accept the 25-digit entry
    high = PeriodEngine(curve, RunConfig(precision=40, cache_dir=str(tmp_path)))
    assert high.compute().precision == 40
    # and the refreshed entry now serves the low-precision engine too
    again = PeriodEngine(curve, RunConfig(precision=25, cache_dir=str(tmp_path)))
    assert again.compute().precision == 40


def test_precision_escalation_shrinks_abel_residual():
    with mp.workdps(70):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    residuals = {}
    for p in (30, 50):
        cfg = RunConfig(precision=p)
        engine = PeriodEngine(curve, cfg)
        engine.compute()
        with mp.workdps(cfg.working_dps):
            v = engine.abel_divisor(principal_divisor(curve.w_elem()))
            residuals[p] = engine.lattice_reduce(v).dist
    assert residuals[30] < mp.mpf(10) ** (-22)
    assert residuals[50] < residuals[30] * mp.mpf(10) ** (-10)


# -- plain chords: Gauss-Legendre on root-clear pieces ------------------------


def tanh_sinh_chord(engine, x1, w1, x2, p):
    """Reference chord integrals: tanh-sinh on [x1, p] and [p, x2], with w
    continued from x1 by the principal log of every root factor."""
    totals = [mp.mpc(0)] * len(engine.forms)
    for a, b in ((x1, p), (p, x2)):
        d = b - a

        def eval_batch(nodes, a=a, d=d):
            out = []
            for u, _ in nodes:
                x = a + d * u
                ab = mp.mpc(1)
                s = mp.mpc(0)
                for r, m in zip(engine._roots, engine._mults):
                    ab *= x - r
                    s += m * mp.log((x - r) / (x1 - r))
                w = w1 * mp.exp(s / 3)
                out.append([x**k * (w / ab if kind == "y" else 1 / w) * d
                            for k, kind in engine.forms])
            return out

        tol = mp.mpf(10) ** (-(mp.dps - 5))
        res = tanh_sinh_batch(eval_batch, len(engine.forms), tol, 12)
        assert res.last_delta < tol, "reference did not converge"
        totals = [t + v for t, v in zip(totals, res.values)]
    return totals


def near_root_chord(engine):
    """A chord over the root 1 that passes within scale/1000 of it."""
    scale = mp.mpf(engine.compute().geo.scale)
    p = mp.mpc(1) + 1j * scale / 1000
    return p - scale * mp.mpf("0.8"), p + scale * mp.mpf("0.7"), p


@pytest.mark.parametrize("escalate", [False, True], ids=["p40", "p80"])
def test_plain_chord_near_root_matches_tanh_sinh(engine12, config40, escalate):
    cfg = config40.escalated() if escalate else config40
    engine = PeriodEngine(engine12.curve, cfg)
    with mp.workdps(cfg.working_dps):
        tol = mp.mpf(10) ** (-(cfg.working_dps - 5))
        x1, x2, p = near_root_chord(engine12)
        w1 = engine._w0_at(x1)
        got, w2 = engine._plain_segment(x1, w1, x2)
        # the rule is fixed by the working precision alone
        n = len(_gauss_legendre_rule())
        assert 2 * n * mp.log10(2 + mp.sqrt(3)) > cfg.working_dps
        # the continued w is a cube root of A B^2 at x2
        assert abs(w2**3 - engine._w0_at(x2) ** 3) < tol
    with mp.workdps(cfg.working_dps + 10):
        want = tanh_sinh_chord(engine, x1, w1, x2, p)
    for a, b in zip(got, want):
        assert abs(a - b) < tol * max(1, abs(b)), (mp.nstr(a, 20), mp.nstr(b, 20))


class CountingRoots(list):
    """A root list that counts how often a piece is tested against it."""

    def __init__(self, roots):
        super().__init__(roots)
        self.visits = 0

    def __iter__(self):
        self.visits += 1
        return super().__iter__()


@pytest.mark.parametrize("x1, x2", [("-0.5", "0.5"), ("0", "0.5")],
                         ids=["through", "from-root"])
def test_chord_through_root_raises_after_bounded_splits(engine12, config40, x1, x2):
    with mp.workdps(config40.working_dps):
        x1, x2 = mp.mpc(x1), mp.mpc(x2)
        roots = CountingRoots(engine12._roots)
        with pytest.raises(PathCrossesBranchPoint):
            _split_chord(roots, x1, x2)
        # each depth level fails only the few pieces next to the root
        assert roots.visits <= 8 * mp.prec
        with pytest.raises(PathCrossesBranchPoint):
            engine12._plain_segment(x1, engine12._w0_at(x1), x2)


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    cfg = RunConfig(precision=20, cache_dir=str(tmp_path))
    with mp.workdps(cfg.working_dps):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    engine = PeriodEngine(curve, cfg)
    engine.compute()
    (path,) = tmp_path.iterdir()
    before = path.read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(periods.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        engine.compute(force=True)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before
