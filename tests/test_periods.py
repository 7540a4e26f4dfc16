"""Period matrices: axioms, a genus-1 complex-multiplication oracle, Abel's theorem,
plain-chord quadrature against a tanh-sinh reference, and the period cache."""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import pytest
from mpmath import mp

from trigjac import periods
from trigjac.cli import EXIT_OK, main
from trigjac.curve import TrigonalCurve, roots_of_poly
from trigjac.divisor import frak_B, place_P, points_divisor, principal_divisor
from trigjac.errors import PathCrossesBranchPoint, PrecisionLoss
from trigjac.homology import seg_point_dist
from trigjac.periods import PeriodEngine, _cuberoot_along, _form_values, _piece_rule, _split_chord
from trigjac.config import RunConfig
from trigjac.polyutil import root_product
from trigjac.quadrature import tanh_sinh_batch
from trigjac.rconst import random_effective_points

DATA = os.path.join(os.path.dirname(__file__), "data")
CURVE12 = ["1", "2", "0", "1", "--", "-1"]


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
    # nor does the refreshed 40-digit entry serve a 25-digit engine: its
    # diagnostics would differ from a cold 25-digit run
    again = PeriodEngine(curve, RunConfig(precision=25, cache_dir=str(tmp_path)))
    assert again.compute().precision == 25


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a cached entry ran quadrature")


@pytest.fixture
def engine_at(tmp_path):
    """Engines for curve (1,2) at a given precision, all on one cache directory."""
    with mp.workdps(70):
        curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
    return lambda p: PeriodEngine(curve, RunConfig(precision=p, cache_dir=str(tmp_path)))


def test_cache_keeps_one_entry_per_precision(tmp_path, monkeypatch, engine_at):
    # a 20-digit run between two 40-digit runs must not evict the 40-digit entry
    cold = engine_at(40).compute()
    assert engine_at(20).compute().precision == 20
    monkeypatch.setattr(periods, "tanh_sinh_batch", _no_quadrature)
    warm = engine_at(40).compute()
    assert _tau_bits(warm) == _tau_bits(cold)
    assert _diagnostics_bits(warm) == _diagnostics_bits(cold)
    assert len(list(tmp_path.iterdir())) == 2


def test_escalated_cache_entry_serves_the_next_run(monkeypatch, engine_at):
    # a 20-digit run that escalates stores 40-digit data; the next 20-digit
    # run reads it back, even after a 40-digit run on the same directory
    compute_once = PeriodEngine._compute_once

    def loses_precision_at_20(self, config):
        if config.precision == 20:
            raise PrecisionLoss("forced at 20 digits")
        return compute_once(self, config)

    monkeypatch.setattr(PeriodEngine, "_compute_once", loses_precision_at_20)
    cold = engine_at(20).compute()
    assert cold.precision == 40
    assert engine_at(40).compute().precision == 40
    monkeypatch.setattr(periods, "tanh_sinh_batch", _no_quadrature)
    warm = engine_at(20).compute()
    assert _tau_bits(warm) == _tau_bits(cold)
    assert _diagnostics_bits(warm) == _diagnostics_bits(cold)


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


def tanh_sinh_chord(engine, x1, w1, x2, p, tol=None):
    """Reference chord integrals: tanh-sinh on [x1, p] and [p, x2], with w
    continued from x1 by the principal log of every root factor, converged to
    tol (by default 10^(5 - dps))."""
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

        tol = mp.mpf(10) ** (-(mp.dps - 5)) if tol is None else tol
        res = tanh_sinh_batch(eval_batch, len(engine.forms), tol, 12)
        assert res.last_delta < tol, "reference did not converge"
        totals = [t + v for t, v in zip(totals, res.values)]
    return totals


def bernstein_rho(roots, c, h):
    """The parameter rho of the smallest Bernstein ellipse of the piece
    c + h*[-1, 1] through a root: the focal distances of the root sum to
    rho + 1/rho."""
    rho = mp.inf
    for b in roots:
        z = (b - c) / h
        a = (abs(z - 1) + abs(z + 1)) / 2
        rho = min(rho, a + mp.sqrt(a**2 - 1))
    return rho


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
        # every piece's rule meets the bound of its own Bernstein ellipse
        for c, h in _split_chord(engine._roots, x1, x2):
            n = len(_piece_rule(engine._roots, c, h))
            assert (bernstein_rho(engine._roots, c, h) / mp.mpf("1.25")) ** (-2 * n) \
                <= mp.mpf(10) ** (-cfg.working_dps)
        # the continued w is a cube root of A B^2 at x2
        assert abs(w2**3 - engine._w0_at(x2) ** 3) < tol
    with mp.workdps(cfg.working_dps + 10):
        want = tanh_sinh_chord(engine, x1, w1, x2, p)
    for a, b in zip(got, want):
        assert abs(a - b) < tol * max(1, abs(b)), (mp.nstr(a, 20), mp.nstr(b, 20))


def quartic_engine(precision):
    """w^3 = x^4 + 1, with the roots the CLI's --roots-of 1,0,0,0,1 gives."""
    cfg = RunConfig(precision=precision)
    with mp.workdps(cfg.working_dps):
        return PeriodEngine(TrigonalCurve(0, 4, roots_of_poly([1, 0, 0, 0, 1])), cfg)


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_plain_chord_grazing_a_complex_root_matches_tanh_sinh(side):
    # the chord passes 1e-20 from the root e^(i pi/4), far closer than a
    # complex double resolves; below the root, a cube root of unity picked
    # from doubles would put w on the wrong sheet past it
    engine = quartic_engine(40)
    with mp.workdps(engine.config.working_dps):
        roots = engine._roots
        root = min(roots, key=lambda r: abs(r - mp.expjpi(mp.mpf(1) / 4)))
        p = root + side * 1j * mp.mpf("1e-20")
        x1, x2 = p - mp.mpf("0.8"), p + mp.mpf("0.7")
        w1 = engine._w0_at(x1)
        got, w2 = engine._plain_segment(x1, w1, x2)
        want_w2 = _cuberoot_along(roots, engine._mults, x1, w1)(x2)
        assert abs(w2 - want_w2) < mp.mpf(10) ** (-(mp.dps - 5)) * abs(want_w2)
        # the root is rounded to dps digits, so x - root keeps about dps - 20
        # of them where the chord passes it; a wrong sheet errs in digit 5
        tol = mp.mpf(10) ** (-(mp.dps - 25))
    with mp.workdps(engine.config.working_dps + 10):
        want = tanh_sinh_chord(engine, x1, w1, x2, p, tol)
    for a, b in zip(got, want):
        assert abs(a - b) < tol * max(1, abs(b)), (mp.nstr(a, 20), mp.nstr(b, 20))


def _agreement_engine(name, precision):
    if name == "quartic":
        return quartic_engine(precision)
    cfg = RunConfig(precision=precision)
    branch = {
        "(1,2)": (1, 2, [Fraction(0), Fraction(1), Fraction(-1)]),
        "(1,3)": (1, 3, [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]),
        "decimal": (1, 2, [mp.mpc(0.5), mp.mpc(1), mp.mpc(-1)]),
    }[name]
    with mp.workdps(cfg.working_dps):
        return PeriodEngine(TrigonalCurve(*branch), cfg)


def _refuse(x):
    raise AssertionError("a point fell back to one log per root")


@pytest.mark.parametrize("precision", [20, 40], ids=["p20", "p40"])
@pytest.mark.parametrize("name", ["(1,2)", "(1,3)", "quartic", "decimal"])
def test_one_log_continuation_matches_per_root_logs(monkeypatch, name, precision):
    engine = _agreement_engine(name, precision)
    with mp.workdps(engine.config.working_dps):
        roots, mults = engine._roots, engine._mults
        pts = random_effective_points(engine.curve, 8, random.Random(22))
        chords = [(a.x, a.w, b.x) for a, b in zip(pts[::2], pts[1::2])]
        slows = [_cuberoot_along(roots, mults, x1, w1) for x1, w1, _ in chords]
        # on these chords no point may fall back to _cuberoot_along
        monkeypatch.setattr(periods, "_cuberoot_along", lambda *args: _refuse)
        tol = mp.mpf(10) ** (-(mp.dps - 3))
        for (x1, w1, x2), slow in zip(chords, slows):
            values = periods._chord_values(roots, mults, x1, w1, x2)
            for t in range(1, 9):
                x = x1 + (x2 - x1) * t / 8
                ab, w = values(x)
                assert ab == root_product(roots, x)
                assert abs(w - slow(x)) <= tol * abs(w)


@pytest.mark.parametrize("guide", [complex("nan"), complex("inf")], ids=["nan", "inf"])
def test_undecided_guide_falls_back_to_per_root_logs_bit_for_bit(monkeypatch, engine12,
                                                                 config40, guide):
    with mp.workdps(config40.working_dps):
        x1, x2, _ = near_root_chord(engine12)
        w1 = engine12._w0_at(x1)
        roots, forms = engine12._roots, engine12.forms
        slow = _cuberoot_along(roots, engine12._mults, x1, w1)
        want = [mp.mpc(0)] * len(forms)
        for c, h in _split_chord(roots, x1, x2):
            for s, wt in _piece_rule(roots, c, h):
                x = c + h * s
                vals = _form_values(forms, x, slow(x), root_product(roots, x), h * wt)
                want = [t + v for t, v in zip(want, vals)]
        monkeypatch.setattr(periods, "_cuberoot_guide", lambda *args: lambda x: guide)
        got, w2 = engine12._plain_segment(x1, w1, x2)
        assert got == want and w2 == slow(x2)


def test_chord_of_length_zero_integrates_to_zero(engine12, config40):
    # the Abel point over the base point x0 itself: no piece, w unchanged
    with mp.workdps(config40.working_dps):
        x0 = mp.mpc(engine12.compute().geo.x0)
        w0 = engine12._w0_at(x0)
        assert engine12._plain_segment(x0, w0, x0) == ([0] * len(engine12.forms), w0)


def test_abel_point_node_budget(monkeypatch):
    # integrand evaluations of the plain chords over a fixed seeded set of
    # Abel points on (1,3) at 40 digits: a cost count no machine changes
    cfg = RunConfig(precision=40)
    with mp.workdps(cfg.working_dps):
        curve = TrigonalCurve(1, 3, [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)])
    engine = PeriodEngine(curve, cfg)
    engine.compute()
    counts = {"nodes": 0, "pieces": 0}

    def counted(fn, key, size):
        def wrapped(*args):
            out = fn(*args)
            counts[key] += size(out)
            return out
        return wrapped

    monkeypatch.setattr(periods, "_form_values", counted(_form_values, "nodes", lambda _: 1))
    monkeypatch.setattr(periods, "_split_chord", counted(_split_chord, "pieces", len))
    with mp.workdps(cfg.working_dps):
        for pt in random_effective_points(curve, 8, random.Random(22)):
            engine.abel_point(pt)
    # a fixed 48-node rule would take 48 * 43 = 2064
    assert counts == {"nodes": 1888, "pieces": 43}
    assert counts["nodes"] < 48 * counts["pieces"]


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
        engine._store(path, engine.compute())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


@pytest.mark.parametrize("escalate", [False, True], ids=["p40", "p80"])
def test_abel_fiber_past_a_root_sums_to_lattice_vector(engine12, config40, escalate):
    # x - c has divisor (the three lifts over c) - 3P, so their Abel values sum
    # to a lattice vector.  c lies past the root 0 on the ray from x0, offset
    # by scale/1000, so the straight chord from x0 to c grazes that root.
    cfg = config40.escalated() if escalate else config40
    engine = PeriodEngine(engine12.curve, cfg) if escalate else engine12
    geo = engine.compute().geo
    with mp.workdps(cfg.working_dps):
        x0, b = mp.mpc(geo.x0), engine._roots[0]
        u = (b - x0) / abs(b - x0)
        c = b + u * geo.scale / 2 + 1j * u * geo.scale / 1000
        assert seg_point_dist(complex(x0), complex(c), complex(b)) < geo.scale / 500
        total = [mp.mpc(0)] * engine.curve.genus
        for k in range(3):
            v = engine.abel_point(engine.curve.point(c, sheet=k))
            total = [t + a for t, a in zip(total, v)]
        assert engine.lattice_reduce(total).dist < cfg.lattice_tol


def _tau_bits(data):
    return [(z.real._mpf_, z.imag._mpf_) for z in data.tau]


def _diagnostics_bits(data):
    return {k: v if isinstance(v, list) else v._mpf_ for k, v in data.diagnostics.items()}


@pytest.mark.parametrize("spoil", [
    lambda e: {k: e[k] for k in ("format", "fingerprint", "precision")},
    lambda e: dict(e, segment_integrals=[e["segment_integrals"][0][:-1],
                                         *e["segment_integrals"][1:]]),
], ids=["keys-missing", "truncated-row"])
def test_malformed_cache_entry_is_recomputed(tmp_path, capsys, engine12, spoil):
    argv = ["--cache-dir", str(tmp_path), "periods", *CURVE12]
    assert main(argv) == EXIT_OK
    cold = capsys.readouterr().out
    (path,) = tmp_path.iterdir()
    entry = json.loads(path.read_text())
    path.write_text(json.dumps(spoil(entry)))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == cold
    # the entry was rewritten whole, and it reloads to the cold bits
    assert json.loads(path.read_text()) == entry
    cfg = RunConfig(precision=engine12.config.precision, cache_dir=str(tmp_path))
    assert _tau_bits(PeriodEngine(engine12.curve, cfg).compute()) == _tau_bits(engine12.compute())


@pytest.mark.parametrize("spoil", [
    lambda e: [e],
    lambda e: dict(e, precision=str(e["precision"])),
    lambda e: dict(e, tail_integrals=e["tail_integrals"][:-1]),
    lambda e: dict(e, segment_integrals=e["segment_integrals"][:-1]),
    lambda e: dict(e, segment_integrals=[[1.5] * len(r) for r in e["segment_integrals"]]),
    lambda e: dict(e, tail_integrals=[["1234", "5678"]] * len(e["tail_integrals"])),
    lambda e: dict(e, diagnostics={"quad_levels": "6 8", "quad_delta_max": [0, "1", 0, 1]}),
    lambda e: dict(e, diagnostics={"quad_levels": [6]}),
    # well formed, but a singular alpha-period matrix: no Riemann matrix
    lambda e: dict(e, segment_integrals=[[[[0, "0", 0, 0]] * 2] * len(r)
                                         for r in e["segment_integrals"]]),
], ids=["not-an-object", "precision-str", "short-tail", "short-matrix", "float-entries",
        "string-entries", "levels-str", "delta-missing", "zero-integrals"])
def test_cache_loader_treats_malformed_entries_as_misses(tmp_path, engine12, spoil):
    path = tmp_path / "entry.json"
    entry = engine12._dump(engine12.compute())
    path.write_text(json.dumps(entry))
    assert _tau_bits(engine12._load(str(path))) == _tau_bits(engine12.compute())
    path.write_text(json.dumps(spoil(entry)))
    assert engine12._load(str(path)) is None


def test_cache_entry_in_the_full_layout_is_read_without_quadrature(tmp_path, monkeypatch,
                                                                    engine12):
    # an entry that also stores geometry, words, basis, cycle periods and tau
    # is read for its chord integrals alone, and re-assembled to the cold bits
    cfg = RunConfig(precision=engine12.config.precision, cache_dir=str(tmp_path))
    engine = PeriodEngine(engine12.curve, cfg)
    with open(os.path.join(DATA, "periods_cache_full_layout_1_2_p40.json")) as fh:
        full = fh.read()
    with open(engine._cache_path(), "w") as fh:
        fh.write(full)

    monkeypatch.setattr(periods, "tanh_sinh_batch", _no_quadrature)
    warm, cold = engine.compute(), engine12.compute()
    assert _tau_bits(warm) == _tau_bits(cold)
    assert warm.swapped == cold.swapped
    assert _diagnostics_bits(warm) == _diagnostics_bits(cold)
