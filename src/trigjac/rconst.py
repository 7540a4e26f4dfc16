"""Riemann constant and its half-period shift.

The vector kappa of Riemann constants for base point at infinity satisfies
2*kappa = -abel(canonical divisor) modulo the period lattice, which pins kappa
up to one of the 4^g half-period offsets.  The right offset is singled out by
Riemann vanishing: theta(abel(D) + kappa) = 0 for every effective divisor D of
degree g-1, while a wrong offset fails this for a generic D.  Candidates are
filtered against a seeded battery of random effective divisors with a
vanishing band well above the working precision and a non-vanishing band well
below typical theta magnitudes; a value between the bands discards the draw
rather than risking a wrong verdict.

For this curve family the canonical class is twice (g-1+r)P - (sum of the
B-type branch points), so kappa shifted by the Abel image of that branch sum
is a half-period even though kappa itself is not one on the non-symmetric
members.  The shifted constant therefore has a theta characteristic with
entries in {0, 1/2}, which the package extracts and verifies.

The 4^g candidate offsets are the points tau*d' + d'' of the characteristics
of theta.half_characteristics, in its order; the characteristic of a
half-period v is read off one lattice reduction of 2v.  A battery that runs
out of draws before config.battery_size rounds were decisive raises
PrecisionLoss instead of returning an answer on thinner evidence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .curve import PointOnCurve, TrigonalCurve, is_exact_scalar
from .divisor import canonical_divisor, frak_B, points_divisor
from .errors import (
    AmbiguousCandidate,
    NoCandidate,
    NotHalfPeriod,
    PrecisionLoss,
    TheoremCheckFailed,
)
from .periods import PeriodEngine
from .theta import ThetaChar, classify_vanishing, half_characteristics, theta_value


@dataclass
class RiemannConstant:
    delta: tuple
    offset_bits: tuple
    decisive_rounds: int


@dataclass
class ShiftedConstant:
    delta: tuple
    delta_s: tuple
    char: ThetaChar
    char_residual: object
    lattice_dist_2delta_s: object
    unshifted_is_half_period: bool


def random_effective_points(curve: TrigonalCurve, count: int, rng: random.Random) -> list[PointOnCurve]:
    """Deterministic pseudo-random smooth points, away from the branch fibers."""
    bpts = curve.branch_points_mp()
    n = len(bpts)
    cx = sum(bpts) / n
    spread = max(max(abs(b - cx) for b in bpts), mp.mpf(1))
    pts = []
    while len(pts) < count:
        u = rng.uniform(-1.9, 1.9)
        v = rng.uniform(-1.9, 1.9)
        sheet = rng.randrange(3)
        x = cx + spread * mp.mpc(u, v)
        if min(abs(x - b) for b in bpts) < spread / 20:
            continue
        pts.append(curve.point(x, sheet=sheet))
    return pts


def riemann_constant(engine: PeriodEngine) -> RiemannConstant:
    """Filter the half-period candidates for kappa by Riemann vanishing."""
    cached = getattr(engine, "_rconst_memo", None)
    if cached is not None:
        return cached
    curve = engine.curve
    config = engine.config
    g = curve.genus
    data = engine.compute()
    with mp.workdps(config.working_dps):
        acan = engine.abel_divisor(canonical_divisor(curve))
        base = [-v / 2 for v in acan]
        chars = list(half_characteristics(g))
        offsets = [ch.vector(data.tau) for ch in chars]
        survivors = set(range(len(chars)))
        rng = random.Random(config.seed)
        decisive = 0
        draws = 0
        max_draws = 6 * config.battery_size + 10
        while (decisive < config.battery_size or len(survivors) > 1) and draws < max_draws:
            draws += 1
            pts = random_effective_points(curve, g - 1, rng)
            zD = engine.abel_divisor(points_divisor(curve, pts))
            verdicts = {}
            ambiguous = False
            for c in sorted(survivors):
                off = offsets[c]
                z = [zD[l] + base[l] + off[l] for l in range(g)]
                val, scale = theta_value(z, data.tau)
                verdict = classify_vanishing(abs(val), scale, config)
                if verdict is None:
                    ambiguous = True
                    break
                verdicts[c] = verdict
            if ambiguous:
                continue
            decisive += 1
            survivors = {c for c in survivors if verdicts[c]}
            if not survivors:
                raise NoCandidate("no half-period offset satisfies Riemann vanishing")
        if len(survivors) != 1:
            raise AmbiguousCandidate(
                f"{len(survivors)} candidates left after {draws} draws"
            )
        if decisive < config.battery_size:
            raise PrecisionLoss(
                f"only {decisive} of {config.battery_size} battery rounds decisive"
                f" after {draws} draws"
            )
        c = survivors.pop()
        ch, off = chars[c], offsets[c]
        bits = (tuple(int(2 * v) for v in ch.top), tuple(int(2 * v) for v in ch.bottom))
        delta = tuple(base[l] + off[l] for l in range(g))
        result = RiemannConstant(delta=delta, offset_bits=bits, decisive_rounds=decisive)
        engine._rconst_memo = result
        return result


def characteristic_of(engine: PeriodEngine, v) -> tuple[ThetaChar, object]:
    """Nearest half-integer characteristic to v: v = tau d' + d'' mod lattice.

    2v reduces to tau n + m modulo the lattice, so d' = n/2 and d'' = m/2.
    Returns the characteristic with entries reduced into {0, 1/2} and the
    rounding residual max|v - tau d' - d'' - lattice|, half the lattice
    distance of 2v.
    """
    config = engine.config
    with mp.workdps(config.working_dps):
        red = engine.lattice_reduce([2 * x for x in v])
        return ThetaChar.half_from_bits(red.n, red.m), red.dist / 2


def shifted_constant(engine: PeriodEngine) -> ShiftedConstant:
    """kappa - abel(B-branch sum): a half-period with extractable characteristic."""
    cached = getattr(engine, "_shifted_memo", None)
    if cached is not None:
        return cached
    curve = engine.curve
    config = engine.config
    g = curve.genus
    rc = riemann_constant(engine)
    with mp.workdps(config.working_dps):
        aB = engine.abel_divisor(frak_B(curve))
        delta_s = tuple(rc.delta[l] - aB[l] for l in range(g))
        char, residual = characteristic_of(engine, delta_s)
        if 2 * residual > config.lattice_tol:
            raise NotHalfPeriod(
                f"2*(shifted constant) misses the lattice by {mp.nstr(2 * residual, 5)}"
            )
        red_unshifted = engine.lattice_reduce([2 * v for v in rc.delta])
        result = ShiftedConstant(
            delta=rc.delta,
            delta_s=delta_s,
            char=char,
            char_residual=residual,
            lattice_dist_2delta_s=2 * residual,
            unshifted_is_half_period=bool(red_unshifted.dist <= config.lattice_tol),
        )
        engine._shifted_memo = result
        return result



def published_characteristic(curve: TrigonalCurve) -> ThetaChar | None:
    """Classical characteristic value on record for this exact curve, if any.

    The only member of the family with a characteristic in the classical
    literature is the genus-3 curve w^3 = x^4 + 1 (r = 0, branch points the
    4th roots of -1), whose Riemann constant is the odd half period with
    characteristic (0, 1/2, 0; 0, 1/2, 0).  Root order does not matter.
    """
    if curve.r != 0 or curve.s != 4:
        return None
    coeffs = curve.A.coeffs
    if len(coeffs) != 5:
        return None
    # accept the exact rational polynomial x^4 + 1 or a numeric version of it
    target = [1, 0, 0, 0, 1]
    for c, t in zip(coeffs, target):
        if is_exact_scalar(c):
            if c != t:
                return None
        elif abs(mp.mpc(c) - t) > mp.mpf("1e-30"):
            return None
    h = Fraction(1, 2)
    z = Fraction(0)
    return ThetaChar(top=(z, h, z), bottom=(z, h, z))


def match_published(engine: PeriodEngine) -> dict:
    """Compare the computed shifted-constant characteristic with the
    published value for this curve, up to relabeling of the handles.

    The characteristic depends on the choice of symplectic homology basis,
    which the classical sources fix differently from the reduction performed
    here; relabeling the g handle pairs (a_i, b_i) -> (a_sigma(i), b_sigma(i))
    is a symplectic change of basis that permutes the coordinates of the
    characteristic.  The check passes only if some permutation carries the
    computed characteristic exactly onto the published one; the witness
    permutation is reported.  Parity is permutation-invariant and is compared
    directly as well.
    """
    expected = published_characteristic(engine.curve)
    if expected is None:
        return {"applicable": False}
    sc = shifted_constant(engine)
    got = sc.char
    g = engine.curve.genus
    witness = None
    for sigma in itertools.permutations(range(g)):
        if (tuple(got.top[i] for i in sigma) == expected.top
                and tuple(got.bottom[i] for i in sigma) == expected.bottom):
            witness = sigma
            break
    return {
        "applicable": True,
        "expected": expected.to_json(),
        "computed": got.to_json(),
        "parity_expected": expected.parity(),
        "parity_computed": got.parity(),
        "parity_ok": got.parity() == expected.parity(),
        "relabeling": witness,
        "char_residual": sc.char_residual,
        "ok": bool(witness is not None and got.parity() == expected.parity()),
    }

def verify_shifted(engine: PeriodEngine, rounds: int | None = None,
                   strict: bool = False) -> dict:
    """End-to-end checks of the shifted-constant statements.

    Returns a report with: the half-period property of the shifted constant,
    the characteristic and its rounding residual, theta-vanishing of
    abel(D + B-branch sum) under the extracted characteristic for a battery of
    random effective divisors of degree g-1, the same vanishing phrased
    through the plain theta function at abel(D) + abel(B-sum) + shifted
    constant, an off-divisor non-vanishing control, numeric parity against
    the characteristic parity formula, central symmetry of the shifted theta
    divisor, and exact 3-torsion of the class of (B-sum) - r*P.

    With strict=True the first failing sub-check raises TheoremCheckFailed.
    """
    curve = engine.curve
    config = engine.config
    g = curve.genus
    if rounds is None:
        rounds = config.battery_size
    sc = shifted_constant(engine)
    data = engine.compute()
    report = {
        "char": sc.char.to_json(),
        "char_residual": sc.char_residual,
        "two_delta_s_lattice_dist": sc.lattice_dist_2delta_s,
        "unshifted_is_half_period": sc.unshifted_is_half_period,
        "parity_formula": sc.char.parity(),
    }
    with mp.workdps(config.working_dps):
        B = frak_B(curve)
        rng = random.Random(config.seed + 1)
        worst_vanish = mp.mpf(0)
        worst_plain = mp.mpf(0)
        for _ in range(rounds):
            pts = random_effective_points(curve, g - 1, rng)
            z = engine.abel_divisor(B + points_divisor(curve, pts))
            val, scale = theta_value(z, data.tau, sc.char)
            worst_vanish = max(worst_vanish, abs(val) / scale)
            # same locus through the plain theta: shift the argument instead
            # of the characteristic
            zs = [z[l] + sc.delta_s[l] for l in range(g)]
            vplain, splain = theta_value(zs, data.tau)
            worst_plain = max(worst_plain, abs(vplain) / splain)
        report["vanishing_worst_rel"] = worst_vanish
        report["vanishing_ok"] = bool(worst_vanish <= config.vanish_tol)
        report["plain_shift_worst_rel"] = worst_plain
        report["plain_shift_ok"] = bool(worst_plain <= config.vanish_tol)

        # off-divisor control: a random point should not be on the divisor
        zoff = [mp.mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)) for _ in range(g)]
        voff, soff = theta_value(zoff, data.tau, sc.char)
        report["offdiv_rel"] = abs(voff) / soff
        report["offdiv_ok"] = bool(abs(voff) >= config.nonvanish_floor * soff)

        # numeric parity: theta[d](-z) = parity * theta[d](z)
        vneg, _ = theta_value([-v for v in zoff], data.tau, sc.char)
        parity_err = abs(vneg - sc.char.parity() * voff) / max(abs(voff), mp.mpf(1) ** 1)
        report["parity_numeric_err"] = parity_err
        report["parity_ok"] = bool(parity_err <= mp.mpf(10) ** (-(config.precision // 2)))

        # theta divisor of the shifted function is centrally symmetric:
        # abel(D + B-sum) lies on it, so its negative must as well
        rng2 = random.Random(config.seed + 2)
        pts = random_effective_points(curve, g - 1, rng2)
        z = engine.abel_divisor(B + points_divisor(curve, pts))
        vneg2, sneg2 = theta_value([-v for v in z], data.tau, sc.char)
        report["symmetric_divisor_rel"] = abs(vneg2) / sneg2
        report["symmetric_divisor_ok"] = bool(abs(vneg2) <= config.vanish_tol * sneg2)

        # the class of (B-sum) - r*P is killed by 3; it is nontrivial exactly
        # when the branch sum is nonempty
        aB = engine.abel_divisor(B)
        torsion3 = engine.lattice_reduce([3 * v for v in aB])
        report["torsion3_dist"] = torsion3.dist
        torsion3_ok = bool(torsion3.dist <= config.lattice_tol)
        if curve.r > 0:
            torsion1 = engine.lattice_reduce(list(aB))
            report["torsion1_dist"] = torsion1.dist
            torsion3_ok = torsion3_ok and bool(torsion1.dist > 10 * config.lattice_tol)
        report["torsion3_ok"] = torsion3_ok

    report["ok"] = bool(
        report["vanishing_ok"]
        and report["plain_shift_ok"]
        and report["offdiv_ok"]
        and report["parity_ok"]
        and report["symmetric_divisor_ok"]
        and report["torsion3_ok"]
    )
    if strict and not report["ok"]:
        failing = [k for k in report if k.endswith("_ok") and not report[k]]
        raise TheoremCheckFailed(f"failing sub-checks: {failing}; report: {report}")
    return report
