"""Riemann constant and its half-period shift.

The vector kappa of Riemann constants for base point at infinity satisfies
2*kappa = -abel(canonical divisor) modulo the period lattice, which pins kappa
up to one of the 4^g half-period offsets.  automorphism_offset derives the
offset from the automorphism (x, w) -> (x, zeta w), which fixes P; a seeded
battery then confirms it by Riemann vanishing, theta(abel(D) + kappa) = 0 for
config.BATTERY_SIZE random effective divisors D of degree g-1, reused by
verify_shifted.  A grey-band value discards the draw; a non-vanishing one
raises NoCandidate, and running out of draws raises PrecisionLoss.

For this curve family the canonical class is twice (g-1+r)P - (sum of the
B-type branch points), so kappa shifted by the Abel image of that branch sum
is a half-period even though kappa itself is not one on the non-symmetric
members.  The shifted constant therefore has a theta characteristic with
entries in {0, 1/2}, which the package extracts and verifies; the
characteristic of a half-period v is read off one lattice reduction of 2v.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import mpmath as mp

from .config import BATTERY_SIZE
from .curve import PointOnCurve, TrigonalCurve, is_exact_scalar
from .divisor import canonical_divisor, frak_B, points_divisor
from .errors import NoCandidate, NotHalfPeriod, PrecisionLoss
from .periods import PeriodEngine, _character
from .theta import ThetaChar, classify_vanishing, theta_value


@dataclass
class RiemannConstant:
    delta: tuple
    offset_bits: tuple
    battery: list  # (abel(D), |theta(abel(D) + kappa)| / scale) per decisive draw

    @property
    def decisive_rounds(self) -> int:
        return len(self.battery)


@dataclass
class ShiftedConstant:
    delta_s: tuple
    branch_abel: tuple
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


def _int_product(A, B) -> list:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def automorphism_offset(engine: PeriodEngine, base) -> tuple[list, tuple]:
    """(R, (x', x'')) with kappa = base + (tau x' + x'')/2, read off rho.

    rho: (x, w) -> (x, zeta w) fixes P and multiplies the forms by chi, so it
    acts by Lam = Omega_a^-1 diag(chi) Omega_a on C^g, maps tau n + m to
    tau n' + m' with (n'; m') = R (n; m), and maps W_{g-1} onto itself.  It
    moves the theta divisor by Lam v_e, e the change of the semicharacter
    (-1)^(n.m) of theta under R.  Theta = W_{g-1} + kappa has trivial
    stabilizer, so (Lam - 1) kappa = Lam v_e mod the lattice, which for
    kappa = base + (tau x' + x'')/2 reads (R - I) x = t mod 2.  X/<rho> is P^1,
    so I + R + R^2 = 0, det(R - I) divides 3^(2g) and x is unique.

    A swapped basis needs no special case: R and e are read in the basis the
    engine returns, where Im tau > 0, so the lattice, theta and its Riemann
    form J on (n; m) come from tau alone, and R^T J R = J is unchanged when J
    is replaced by -J.  A rounding residual above lattice_tol, a failed exact
    identity or a solution count other than 1 raises PrecisionLoss.
    """
    data = engine.compute()
    tau, g = data.tau, engine.curve.genus
    with mp.workdps(engine.config.working_dps):
        chi = mp.diag([_character(kind, 1) for _a, kind in engine.forms])
        lam = data.omega_alpha**-1 * chi * data.omega_alpha
        reds = [engine.lattice_reduce([M[i, j] for i in range(g)])
                for M in (lam * tau, lam) for j in range(g)]
        nm = [sum(a * b for a, b in zip(red.n, red.m)) for red in reds]
        v = ThetaChar.half_from_bits(nm[g:], nm[:g]).vector(tau)
        red_t = engine.lattice_reduce(
            [2 * (sum(lam[i, k] * (v[k] - base[k]) for k in range(g)) + base[i])
             for i in range(g)])
        dist = max(red.dist for red in reds + [red_t])
    if dist > engine.config.lattice_tol:
        raise PrecisionLoss(f"automorphism misses the lattice by {mp.nstr(dist, 5)}")
    cols = [red.n + red.m for red in reds]
    R = [list(row) for row in zip(*cols)]
    RR = _int_product(R, R)
    J = [[(j == i + g) - (i == j + g) for j in range(2 * g)] for i in range(2 * g)]
    if (any(RR[i][j] + R[i][j] + (i == j) for i in range(2 * g) for j in range(2 * g))
            or _int_product(_int_product(cols, J), R) != J):
        raise PrecisionLoss("automorphism matrix fails I + R + R^2 = 0 or R^T J R = J")
    t = red_t.n + red_t.m
    sols = [x for x in itertools.product((0, 1), repeat=2 * g)
            if not any((y - xi - ti) % 2 for y, xi, ti in zip(_int_product([x], cols)[0], x, t))]
    if len(sols) != 1:
        raise PrecisionLoss(f"{len(sols)} offsets solve (R - I) x = t mod 2")
    return R, (sols[0][:g], sols[0][g:])


def riemann_constant(engine: PeriodEngine) -> RiemannConstant:
    """Derive kappa's half-period offset and confirm it by Riemann vanishing."""
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
        _R, bits = automorphism_offset(engine, base)
        ch = ThetaChar.half_from_bits(*bits)
        off = ch.vector(data.tau)
        rng = random.Random(config.seed)
        battery = []
        draws = 0
        max_draws = 6 * BATTERY_SIZE + 10
        while len(battery) < BATTERY_SIZE and draws < max_draws:
            draws += 1
            pts = random_effective_points(curve, g - 1, rng)
            zD = engine.abel_divisor(points_divisor(curve, pts))
            z = [zD[l] + base[l] + off[l] for l in range(g)]
            val, scale = theta_value(z, data.tau)
            verdict = classify_vanishing(abs(val), scale, config)
            if verdict is False:
                raise NoCandidate(f"predicted offset {ch.to_json()} fails Riemann vanishing")
            if verdict:
                battery.append((zD, abs(val) / scale))
        if len(battery) < BATTERY_SIZE:
            raise PrecisionLoss(
                f"only {len(battery)} of {BATTERY_SIZE} battery rounds decisive"
                f" after {draws} draws"
            )
        delta = tuple(base[l] + off[l] for l in range(g))
        result = RiemannConstant(delta=delta, offset_bits=bits, battery=battery)
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
            delta_s=delta_s,
            branch_abel=tuple(aB),
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
    return ThetaChar.half_from_bits((0, 1, 0), (0, 1, 0))


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

def _decide(value_abs, scale, config, probe: str) -> bool:
    verdict = classify_vanishing(value_abs, scale, config)
    if verdict is None:
        raise PrecisionLoss(f"{probe} lands in the theta grey band")
    return verdict


def verify_shifted(engine: PeriodEngine) -> dict:
    """End-to-end checks of the shifted-constant statements.

    Returns a report with: the half-period property of the shifted constant,
    the characteristic and its rounding residual, theta-vanishing of
    abel(D + B-branch sum) under the extracted characteristic on the decisive
    draws D of riemann_constant (none is drawn here), the worst plain-theta
    value that battery saw, an off-divisor non-vanishing control, numeric
    parity against the characteristic parity formula, central symmetry at the
    first draw, and exact 3-torsion of the class of (B-sum) - r*P.  A theta
    value in the grey band raises PrecisionLoss.
    """
    curve = engine.curve
    config = engine.config
    g = curve.genus
    rc = riemann_constant(engine)
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
        aB = sc.branch_abel
        zs = [[zD[l] + aB[l] for l in range(g)] for zD, _rel in rc.battery]
        vals = [theta_value(z, data.tau, sc.char) for z in zs]
        verdicts = [_decide(abs(v), s, config, "characteristic battery") for v, s in vals]
        report["vanishing_worst_rel"] = max(abs(v) / s for v, s in vals)
        report["vanishing_ok"] = all(verdicts)
        # same locus through the plain theta: theta(z + delta_s) = theta(abel(D) + kappa)
        report["plain_shift_worst_rel"] = max(rel for _zD, rel in rc.battery)

        # off-divisor control: a random point should not be on the divisor
        rng = random.Random(config.seed + 1)
        zoff = [mp.mpc(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)) for _ in range(g)]
        voff, soff = theta_value(zoff, data.tau, sc.char)
        report["offdiv_rel"] = abs(voff) / soff
        report["offdiv_ok"] = not _decide(abs(voff), soff, config, "off-divisor control")

        # numeric parity: theta[d](-z) = parity * theta[d](z)
        vneg, _ = theta_value([-v for v in zoff], data.tau, sc.char)
        parity_err = abs(vneg - sc.char.parity() * voff) / max(abs(voff), 1)
        report["parity_numeric_err"] = parity_err
        report["parity_ok"] = bool(parity_err <= config.vanish_tol)

        # theta divisor of the shifted function is centrally symmetric:
        # abel(D + B-sum) lies on it, so its negative must as well
        vneg2, sneg2 = theta_value([-v for v in zs[0]], data.tau, sc.char)
        report["symmetric_divisor_rel"] = abs(vneg2) / sneg2
        report["symmetric_divisor_ok"] = _decide(abs(vneg2), sneg2, config, "central symmetry")

        # the class of (B-sum) - r*P is killed by 3; it is nontrivial exactly
        # when the branch sum is nonempty
        torsion3 = engine.lattice_reduce([3 * v for v in aB])
        report["torsion3_dist"] = torsion3.dist
        torsion3_ok = bool(torsion3.dist <= config.lattice_tol)
        if curve.r > 0:
            torsion1 = engine.lattice_reduce(list(aB))
            report["torsion1_dist"] = torsion1.dist
            torsion3_ok = torsion3_ok and bool(torsion1.dist > 10 * config.lattice_tol)
        report["torsion3_ok"] = torsion3_ok

    report["ok"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report
