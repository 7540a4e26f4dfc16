"""The three benchmark workloads and the correctness check of every operation.

Each workload has a ``setup`` (curve construction, a cold
``PeriodEngine.compute`` that writes the period cache, and for the warm
workloads a fresh engine that reloads it) and a ``round``: the fixed set of
operations whose completion time is ``wall_s``.  An operation is a callable
that returns the accuracy margins of its checks, in digits, and raises
``CheckFailed`` when a check misses.  inversion-g3 and theta-g3 draw their
random inputs in the benchmark and hand trigjac only ``curve.point(x, sheet)``
points, characteristics and arguments; verify-g2 hands the CLI a seed, as a
user does.

Why these three: each numeric layer is dominant in one workload and idle in
another.  verify-g2 is the user's whole job on a new curve and touches every
layer; inversion-g3 is almost all plain-chord quadrature and cube-root
continuation (``abel_point``) with no theta; theta-g3 is almost all theta
lattice sums with no quadrature outside setup.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

from trigjac import cli, fsdet, theta
from trigjac.config import RunConfig
from trigjac.curve import TrigonalCurve, roots_of_poly
from trigjac.periods import PeriodEngine


class CheckFailed(Exception):
    """An operation returned, but its output failed the benchmark's check."""


def margin_digits(tolerance, residual) -> float:
    """log10(tolerance / residual); infinite when the residual is exactly 0."""
    residual = float(residual)
    if residual == 0:
        return math.inf
    return math.log10(float(tolerance) / residual)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    run: Callable[[], list]


# -- verify-g2 -----------------------------------------------------------------

# the genus-2 curve (1,2) with branch points {0, 1, -1}; the characteristic of
# its shifted constant depends on the curve and the homology basis, never on
# the seed
G2_ARGS = ["1", "2", "0", "1", "--", "-1"]
G2_PRECISION = 20
# The pipeline runs with the CLI's default seed, as a user's first `verify`
# does.  Its random points decide how close the Abel chords pass to branch
# points, so the work of one pipeline doubles between seeds (26 k against
# 48 k quadrature nodes, 15 s against 34 s); with room for one pipeline per
# run, a per-run seed would make that the whole run-to-run spread.
G2_SEED = 20260814
G2_CHARACTERISTIC = {"top": ["0", "0"], "bottom": ["0", "0"]}


def _verify_margins(report: dict, precision: int) -> list:
    cfg = RunConfig(precision=precision)
    lat, van, floor = cfg.lattice_tol, cfg.vanish_tol, cfg.nonvanish_floor
    st = report["stages"]
    sc = st["shifted_constant"]
    th = st["shifted_theorems"]["report"]
    ji = st["jacobi_inversion"]["report"]
    return [
        margin_digits(lat, sc["two_delta_s_lattice_dist"]),
        margin_digits(lat, sc["char_residual"]),
        margin_digits(lat, th["torsion3_dist"]),
        margin_digits(van, th["vanishing_worst_rel"]),
        margin_digits(van, th["plain_shift_worst_rel"]),
        margin_digits(van, th["symmetric_divisor_rel"]),
        margin_digits(mp.mpf(10) ** -(precision // 2), th["parity_numeric_err"]),
        margin_digits(th["offdiv_rel"], floor),
        margin_digits(lat, ji["abel_residual"]),
        margin_digits(lat, ji["class_residual"]),
    ]


class VerifyG2:
    """The full ``verify`` pipeline through ``cli.main``, cold."""

    name = "verify-g2"
    precision = G2_PRECISION

    def setup(self, cache_dir: str):
        cfg = RunConfig(precision=self.precision, cache_dir=cache_dir)
        with mp.workdps(cfg.working_dps):
            curve = TrigonalCurve(1, 2, [Fraction(0), Fraction(1), Fraction(-1)])
        PeriodEngine(curve, cfg).compute()
        return None

    def round(self, state, seed: int, index: int, scratch) -> list[Op]:
        return [Op(f"verify seed={G2_SEED}", lambda: self._pipeline(G2_SEED, scratch))]

    def _pipeline(self, seed: int, scratch) -> list:
        out, err = io.StringIO(), io.StringIO()
        with scratch() as cache_dir:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["--precision", str(self.precision), "--seed", str(seed),
                                 "--cache-dir", cache_dir, "verify", *G2_ARGS])
        require(code == 0, f"verify exit code {code}: {err.getvalue().strip()}")
        report = json.loads(out.getvalue())
        require(report["ok"] is True, f"verify failed stage {report.get('failed_stage')}")
        char = report["stages"]["shifted_constant"]["characteristic"]
        require(all(Fraction(v) in (0, Fraction(1, 2)) for v in char["top"] + char["bottom"]),
                f"characteristic {char} is not half-integer")
        require(char == G2_CHARACTERISTIC,
                f"characteristic {char} differs from {G2_CHARACTERISTIC}")
        return _verify_margins(report, self.precision)


# -- inversion-g3 --------------------------------------------------------------

G3_BRANCH = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
G3_PRECISION = 40
# The op set is a fixed pool drawn once from this seed.  One check costs 2 s
# to 20 s depending on how near its complementary zeros fall to a branch
# point, so a few sets drawn per run seed would make run-level timings
# swing by a factor of two between seeds; a fixed pool keeps that spread
# inside every run (op_p50_s against op_tail_s) instead of between runs.
G3_POOL_SEED = 1604
G3_POOL_SIZE = 2


def draw_points(curve: TrigonalCurve, count: int, rng: random.Random) -> list:
    """Seeded smooth points in a box around the branch points, off the fibers."""
    bpts = curve.branch_points_mp()
    cx = sum(bpts) / len(bpts)
    spread = max(max(abs(b - cx) for b in bpts), mp.mpf(1))
    pts = []
    while len(pts) < count:
        x = cx + spread * mp.mpc(rng.uniform(-1.9, 1.9), rng.uniform(-1.9, 1.9))
        sheet = rng.randrange(3)
        if min(abs(x - b) for b in bpts) < spread / 20:
            continue
        pts.append(curve.point(x, sheet=sheet))
    return pts


def _warm_engine(curve: TrigonalCurve, cfg: RunConfig) -> PeriodEngine:
    """Compute cold into the cache, then reload it into a fresh engine."""
    PeriodEngine(curve, cfg).compute()
    engine = PeriodEngine(curve, cfg)
    engine.compute()
    return engine


class InversionG3:
    """``mu_divisor_check`` on degree-2 point sets of the genus-3 curve (1,3)."""

    name = "inversion-g3"
    precision = G3_PRECISION

    def setup(self, cache_dir: str):
        cfg = RunConfig(precision=self.precision, cache_dir=cache_dir)
        with mp.workdps(cfg.working_dps):
            curve = TrigonalCurve(1, 3, G3_BRANCH)
        return _warm_engine(curve, cfg)

    def round(self, engine, seed: int, index: int, scratch) -> list[Op]:
        curve = engine.curve
        rng = random.Random(G3_POOL_SEED)
        with mp.workdps(engine.config.working_dps):
            pool = [draw_points(curve, curve.genus - 1, rng) for _ in range(G3_POOL_SIZE)]
        order = list(range(len(pool)))
        random.Random(f"{self.name}:{seed}:{index}").shuffle(order)
        return [Op(f"mu_divisor_check set={k}", lambda k=k: self._check(engine, pool[k]))
                for k in order]

    @staticmethod
    def _check(engine: PeriodEngine, points) -> list:
        report = fsdet.mu_divisor_check(engine, points)
        tol = engine.config.lattice_tol
        require(report["ok"] is True, "mu_divisor_check reported not ok")
        require(report["abel_residual"] <= tol, f"abel residual {report['abel_residual']}")
        require(report["class_residual"] <= tol, f"class residual {report['class_residual']}")
        return [margin_digits(tol, report["abel_residual"]),
                margin_digits(tol, report["class_residual"])]


# -- theta-g3 ------------------------------------------------------------------

# w^3 = x^4 + 1, the CLI's `--roots-of 1,0,0,0,1` with (r, s) = (0, 4)
QUARTIC = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
THETA_PRECISION = 40
# Per round: THETA_PER_TOP thetanulls for each of the 2^g top halves d' of
# the characteristic, with seeded bottom halves d'', and THETA_PAIRS parity
# pairs theta[d](z), theta[d](-z) at seeded z.  At z = 0 the lattice walk of
# theta[d'; d''] is centred on d' alone, so its cost depends on the top half
# only: a fixed count per top keeps every round the same amount of work
# whatever the seed, while the seeds between them reach all 64
# characteristics.  A round is about 17 s of work: shorter rounds let the
# host's speed swings show in the run-to-run spread.
THETA_PER_TOP = 2
THETA_PAIRS = 2


class ThetaG3:
    """``theta_value`` with half-integer characteristics on the quartic."""

    name = "theta-g3"
    precision = THETA_PRECISION

    def setup(self, cache_dir: str):
        cfg = RunConfig(precision=self.precision, cache_dir=cache_dir)
        with mp.workdps(cfg.working_dps):
            curve = TrigonalCurve(0, 4, roots_of_poly(QUARTIC))
        engine = _warm_engine(curve, cfg)
        by_top: dict[tuple, list] = {}
        for ch in theta.half_characteristics(curve.genus):
            by_top.setdefault(ch.top, []).append(ch)
        return cfg, engine.compute().tau, [by_top[top] for top in sorted(by_top)]

    def round(self, state, seed: int, index: int, scratch) -> list[Op]:
        cfg, tau, groups = state
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        for group in groups:
            for ch in rng.sample(group, THETA_PER_TOP):
                ops.append(Op(f"thetanull {ch.to_json()}",
                              lambda ch=ch: self._thetanull(cfg, tau, ch)))
        for _ in range(THETA_PAIRS):
            ch = rng.choice(rng.choice(groups))
            z = [(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)) for _ in range(tau.rows)]
            ops.append(Op("parity pair", lambda ch=ch, z=z: self._parity(cfg, tau, ch, z)))
        return ops

    @staticmethod
    def _thetanull(cfg: RunConfig, tau, ch) -> list:
        with mp.workdps(cfg.working_dps):
            value, scale = theta.theta_value([mp.mpc(0)] * tau.rows, tau, ch)
            verdict = theta.classify_vanishing(abs(value), scale, cfg)
            rel = abs(value) / scale
        odd = ch.parity() == -1
        require(verdict is not None, f"{ch.to_json()} at z=0 falls in the grey band")
        # at z = 0 exactly the odd characteristics vanish
        require(verdict == odd, f"{ch.to_json()} at z=0: verdict {verdict}, parity odd={odd}")
        if odd:
            return [margin_digits(cfg.vanish_tol, rel)]
        return [margin_digits(rel, cfg.nonvanish_floor)]

    @staticmethod
    def _parity(cfg: RunConfig, tau, ch, z) -> list:
        with mp.workdps(cfg.working_dps):
            zv = [mp.mpc(a, b) for a, b in z]
            vp, sp = theta.theta_value(zv, tau, ch)
            vm, sm = theta.theta_value([-v for v in zv], tau, ch)
            err = abs(vm - ch.parity() * vp) / max(sp, sm)
        tol = mp.mpf(10) ** -(cfg.precision // 2)
        require(err <= tol, f"parity identity error {mp.nstr(err, 3)} for {ch.to_json()}")
        return [margin_digits(tol, err)]


WORKLOADS = {w.name: w for w in (VerifyG2(), InversionG3(), ThetaG3())}
