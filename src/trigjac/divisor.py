"""Divisors on a family curve, principal divisors, and Riemann-Roch spaces.

Supported places: the branch places B_1..B_{r+s}, the place P over infinity,
and generic points (x, sheet).  Exact operations never require branch-point
values: at B_i and P the three canonical components 1, w, y of an element have
pairwise distinct valuation residues mod 3, so valuations, Riemann-Roch
dimensions and bases reduce to degree and multiplicity bookkeeping that is
exact over any coefficient field.

Key effective/known divisors:
    frak_B  = B_{s+1} + ... + B_{s+r}                (degree d0 = r)
    frak_B1 = B_1 + ... + B_{r+s}                    (degree d1 = r + s)
    (dx/w)    =  B_1 + ... + B_s + (2g-2-s) P        (a canonical divisor)
    (dx/(wy)) = -frak_B1 + (2g-2+r+s) P              (also canonical)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .curve import PointOnCurve, RingElement, TrigonalCurve
from .errors import (
    NonZeroDegree,
    RootAccountingFailure,
    UnsupportedSupport,
    ValidationError,
)
from .polyutil import Poly, leftover_roots, squarefree_decomposition


@dataclass(frozen=True)
class Divisor:
    """Formal sum  p*P + sum_i b[i]*B_i + sum_j mult_j * (generic point)."""

    curve: TrigonalCurve
    p: int = 0
    b: tuple[int, ...] = ()
    generic: tuple[tuple[PointOnCurve, int], ...] = ()

    def __post_init__(self):
        n = self.curve.n_branch
        if len(self.b) != n:
            object.__setattr__(self, "b", tuple(self.b) + (0,) * (n - len(self.b)))

    @property
    def degree(self) -> int:
        return self.p + sum(self.b) + sum(m for _, m in self.generic)

    def is_effective(self) -> bool:
        return self.p >= 0 and all(c >= 0 for c in self.b) and all(
            m >= 0 for _, m in self.generic
        )

    def has_generic(self) -> bool:
        return bool(self.generic)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.curve is not other.curve:
            raise ValidationError("divisors on different curves")
        return Divisor(
            self.curve,
            self.p + other.p,
            tuple(a + b for a, b in zip(self.b, other.b)),
            self.generic + other.generic,
        )

    def __neg__(self) -> "Divisor":
        return Divisor(
            self.curve,
            -self.p,
            tuple(-a for a in self.b),
            tuple((pt, -m) for pt, m in self.generic),
        )

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor(
            self.curve,
            k * self.p,
            tuple(k * a for a in self.b),
            tuple((pt, k * m) for pt, m in self.generic),
        )

    def exact_eq(self, other: "Divisor") -> bool:
        """Equality on the exactly-represented part (P and branch places)."""
        return (
            self.curve is other.curve
            and self.p == other.p
            and self.b == other.b
            and not self.generic
            and not other.generic
        )

    def to_json(self) -> dict:
        return {
            "P": self.p,
            "B": list(self.b),
            "generic": [
                [mp.nstr(pt.x, 20), pt.sheet, m] for pt, m in self.generic
            ],
        }

    def __repr__(self) -> str:
        bits = []
        if self.p:
            bits.append(f"{self.p}*P")
        for i, c in enumerate(self.b):
            if c:
                bits.append(f"{c}*B{i + 1}")
        for pt, m in self.generic:
            bits.append(f"{m}*({mp.nstr(pt.x, 6)};sheet {pt.sheet})")
        return "Divisor(" + (" + ".join(bits) if bits else "0") + ")"


# -- named divisors -------------------------------------------------------


def place_P(curve: TrigonalCurve, n: int = 1) -> Divisor:
    return Divisor(curve, p=n, b=(0,) * curve.n_branch)


def place_B(curve: TrigonalCurve, i: int, n: int = 1) -> Divisor:
    b = [0] * curve.n_branch
    b[i] = n
    return Divisor(curve, p=0, b=tuple(b))


def point_divisor(pt: PointOnCurve, n: int = 1) -> Divisor:
    return Divisor(pt.curve, p=0, b=(0,) * pt.curve.n_branch, generic=((pt, n),))


def points_divisor(curve: TrigonalCurve, points, b: tuple[int, ...] = ()) -> Divisor:
    """Each smooth point once, plus b[i] times the branch place B_i."""
    return Divisor(curve, p=0, b=tuple(b), generic=tuple((pt, 1) for pt in points))


def frak_B(curve: TrigonalCurve) -> Divisor:
    """B_{s+1} + ... + B_{s+r}, the B-root part (degree d0 = r)."""
    return Divisor(
        curve, p=0, b=tuple(0 if i < curve.s else 1 for i in range(curve.n_branch))
    )


def frak_B1(curve: TrigonalCurve) -> Divisor:
    """B_1 + ... + B_{r+s}, all branch places (degree d1 = r + s)."""
    return Divisor(curve, p=0, b=(1,) * curve.n_branch)


def canonical_divisor(curve: TrigonalCurve) -> Divisor:
    """The divisor of dx/w: B_1 + ... + B_s + (2g - 2 - s) P."""
    g = curve.genus
    return Divisor(
        curve,
        p=2 * g - 2 - curve.s,
        b=tuple(1 if i < curve.s else 0 for i in range(curve.n_branch)),
    )


def dx_over_wy_divisor(curve: TrigonalCurve) -> Divisor:
    """The divisor of dx/(w y): -frak_B1 + (2g - 2 + r + s) P."""
    g = curve.genus
    return Divisor(
        curve, p=2 * g - 2 + curve.r + curve.s, b=(-1,) * curve.n_branch
    )


def semicanonical_D0(curve: TrigonalCurve) -> Divisor:
    """D0 = (g - 1 + d0) P - frak_B with 2 D0 canonical."""
    return place_P(curve, curve.genus - 1 + curve.r) - frak_B(curve)


# -- principal divisors ----------------------------------------------------


def principal_divisor(e: RingElement) -> Divisor:
    """Divisor of a nonzero function: exact at P and B_i, numeric generic zeros.

    Numeric roots are accounted for at the scale 1e-25.
    """
    if e.is_zero():
        raise ValidationError("zero element has no divisor")
    curve = e.curve
    tol = mp.mpf("1e-25")
    mult_tol = None if curve.exact else tol
    p_coeff = e.ord_at_infinity()
    b_coeffs = tuple(
        e.ord_at_branch(i, tol=mult_tol) for i in range(curve.n_branch)
    )
    generic = _generic_zeros(e, tol)
    den_extra = _denominator_generic_poles(e, tol)
    return Divisor(curve, p=p_coeff, b=b_coeffs, generic=generic + den_extra)


def _generic_zeros(e: RingElement, tol):
    """Zeros of the numerator away from branch points, located via the norm."""
    curve = e.curve
    num = RingElement(curve, e.p0, e.p1, e.p2, Poly.one()) if e.den.degree else e
    norm = num.norm_poly()
    if norm.degree == 0:
        return ()
    # the known branch-point roots: multiplicity = ord at B_i of numerator
    branch_orders = [
        num.ord_at_branch(i, tol=None if curve.exact else tol)
        for i in range(curve.n_branch)
    ]
    clusters, degree = _off_branch_roots(curve, norm, branch_orders, tol)
    # num.weight is the total zero count of the numerator
    if degree != num.weight - sum(branch_orders):
        raise RootAccountingFailure(
            f"norm degree {norm.degree} does not match valuation bookkeeping"
        )
    out = []
    for x0, mult in clusters:
        out.extend(_assign_sheets(e, x0, mult, tol))
    return tuple(out)


def _denominator_generic_poles(e: RingElement, tol):
    """Poles from denominator roots that are not branch points (all 3 sheets)."""
    curve = e.curve
    if e.den.degree == 0:
        return ()
    orders = [
        e.den.root_multiplicity(b, tol=None if curve.exact else tol)
        for b in curve.branch_points
    ]
    clusters, _ = _off_branch_roots(curve, e.den, orders, tol)
    return tuple(
        (curve.point(x0, sheet=k), -mult) for x0, mult in clusters for k in range(3)
    )


def _off_branch_roots(curve: TrigonalCurve, f: Poly, orders, tol):
    """(clusters, degree) of f once (x - b_i)^orders[i] is divided out.

    clusters lists (root, multiplicity) of what is left, of that degree.  On
    an exact curve the division is exact and repeated factors are split off
    first, so the numeric root finder only ever sees squarefree inputs; on a
    numeric curve leftover_roots divides at tol and the roots are clustered.
    """
    if curve.exact:
        for b, v in zip(curve.branch_points, orders):
            lin = Poly([-b, Fraction(1)])
            for _ in range(v):
                f, rem = f.divmod(lin)
                if not rem.is_zero():
                    raise RootAccountingFailure(
                        f"branch root x = {b} missing from the polynomial"
                    )
        clusters = [
            (x0, k)
            for g, k in squarefree_decomposition(f)
            for x0 in leftover_roots(_to_mp_poly(g), (), tol)
        ]
        return clusters, f.degree
    known = [b for b, v in zip(curve.branch_points_mp(), orders) for _ in range(v)]
    roots = leftover_roots(_to_mp_poly(f), known, tol)
    return _cluster(roots, tol), f.degree - len(known)


def _to_mp_poly(p: Poly) -> list:
    return [mp.mpc(c) for c in p.to_mp().coeffs]


def _cluster(roots, tol):
    scale = 1 + max((abs(z) for z in roots), default=mp.mpf(0))
    eps = mp.sqrt(tol) * scale
    used = [False] * len(roots)
    clusters = []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        group = [z]
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - z) < eps:
                group.append(roots[j])
                used[j] = True
        center = sum(group) / len(group)
        clusters.append((center, len(group)))
    return clusters


def _assign_sheets(e: RingElement, x0, mult: int, tol):
    curve = e.curve
    xm = mp.mpc(x0)
    # norms like 1 + x^m * A * B^2 have genuine zeros exponentially close to a
    # branch point; sheet values there react like dist^(-2/3) to the rounding
    # of the root, so the acceptance floor must track that sensitivity
    bdist = min((abs(xm - bx) for bx in curve.branch_points_mp()), default=mp.mpf(1))
    xeps = mp.mpf(10) ** (2 - mp.mp.dps) * (1 + abs(xm))
    if bdist <= xeps:
        raise RootAccountingFailure(
            f"zero at x = {mp.nstr(xm, 8)} collides with a branch point at this "
            "precision; branch valuations are already stripped, so raise the "
            "working precision to separate the two"
        )
    lifts = [curve.point(x0, sheet=k) for k in range(3)]
    vals = [abs(e.evaluate(pt)) for pt in lifts]
    scale = 1 + max(vals)
    sens = (1 / bdist) ** (mp.mpf(2) / 3) if bdist < 1 else mp.mpf(1)
    thr = max(mp.sqrt(tol), xeps * sens, mp.mpf(10) ** (-(2 * mp.mp.dps) // 3))
    small = [k for k in range(3) if vals[k] < thr * scale]
    if len(small) == mult:
        return [(lifts[k], 1) for k in small]
    if len(small) == 1:
        return [(lifts[small[0]], mult)]
    if len(small) == 3 and mult % 3 == 0:
        return [(lifts[k], mult // 3) for k in range(3)]
    if len(small) > 1:
        # e vanishes on every lift where x - x0 divides p0, p1 and p2, and may
        # vanish to a higher order on some of them: read each order off the
        # Taylor series of e on that sheet
        orders = []
        for k in small:
            ser = e.series_at(lifts[k], mult + 1).coeffs
            size = 1 + max((abs(v) for v in ser), default=0)
            orders.append(next((i for i, v in enumerate(ser) if abs(v) > thr * size), mult))
        if sum(orders) == mult:
            return [(lifts[k], o) for k, o in zip(small, orders)]
    raise RootAccountingFailure(
        f"cannot split multiplicity {mult} over sheets with residuals {vals}"
    )


# -- Riemann-Roch spaces ----------------------------------------------------


def rr_space(D: Divisor) -> list[RingElement]:
    """Basis of L(D) = {f : (f) + D >= 0} for D supported on branch places and P.

    The canonical components decouple: a basis consists of elements
    q(x) * prod_i (x - b_i)^{c_ik} * phi_k with phi_k in {1, w, y}, where the
    integer c_ik and the degree cap on q depend only on valuations.  Negative
    c_ik are realised through the element's denominator.
    """
    if D.has_generic():
        raise UnsupportedSupport("rr_space supports divisors on branch places and P")
    curve = D.curve
    basis: list[RingElement] = []
    offs_P = (0, curve.wt_w, curve.wt_y)
    for k in range(3):
        o_p = offs_P[k]
        c = []
        for i in range(curve.n_branch):
            o_ik = (0, curve.ord_w_at(i), curve.ord_y_at(i))[k]
            v_i = -D.b[i]
            c.append(-((o_ik - v_i) // 3))  # integer ceil((v_i - o_ik)/3)
        deg_cap = (D.p - o_p) // 3 - sum(c)  # floor((p - o_p)/3) - sum c
        if deg_cap < 0:
            continue
        num_base = Poly.from_roots(
            [b for b, ci in zip(curve.branch_points, c) for _ in range(max(ci, 0))],
            one=curve.one,
        )
        den = Poly.from_roots(
            [b for b, ci in zip(curve.branch_points, c) for _ in range(max(-ci, 0))],
            one=curve.one,
        )
        for j in range(deg_cap + 1):
            q = num_base * (Poly.x() ** j)
            parts = [None, None, None]
            parts[k] = q
            basis.append(
                RingElement(
                    curve,
                    parts[0] or Poly.zero(),
                    parts[1] or Poly.zero(),
                    parts[2] or Poly.zero(),
                    den,
                )
            )
    return basis


def rr_dim(D: Divisor) -> int:
    return len(rr_space(D))


def is_linearly_trivial(D: Divisor) -> bool:
    """True iff D ~ 0.  Requires deg D = 0 and support on branch places and P.

    For deg D = 0 any nonzero f in L(-D) has (f) >= D with degree equality,
    hence (f) = D exactly.
    """
    return equivalence_witness(D) is not None


def equivalence_witness(D: Divisor) -> RingElement | None:
    """A function f with (f) = D when D ~ 0, else None."""
    if D.has_generic():
        raise UnsupportedSupport("linear equivalence test needs exact support")
    if D.degree != 0:
        raise NonZeroDegree(f"divisor has degree {D.degree}, expected 0")
    V = rr_space(-D)
    return V[0] if V else None


# -- structural verification -------------------------------------------------


def verify_semicanonical(curve: TrigonalCurve) -> dict:
    """Exact verification of the canonical/semi-canonical divisor identities.

    Returns a report dict; every entry named ok_* must be True for a healthy
    family member.  All checks run over exact valuation bookkeeping and
    Riemann-Roch dimensions, with explicit witnesses where available.
    """
    g = curve.genus
    r, s = curve.r, curve.s
    K = canonical_divisor(curve)
    D0 = semicanonical_D0(curve)
    B = frak_B(curve)
    B1 = frak_B1(curve)
    P = place_P(curve, 1)

    report: dict[str, object] = {
        "r": r,
        "s": s,
        "genus": g,
        "d0": r,
        "d1": r + s,
    }

    w = curve.w_elem()
    expected_w = Divisor(
        curve,
        p=-(2 * r + s),
        b=tuple(curve.ord_w_at(i) for i in range(curve.n_branch)),
    )
    report["ok_divisor_of_w"] = principal_divisor(w).exact_eq(expected_w)

    # K ~ 2*D0, i.e. dx/w realises the double of the semi-canonical class
    report["ok_canonical_is_2D0"] = is_linearly_trivial(K - 2 * D0)

    # frak_B1 + frak_B - (s + 2r) P ~ 0 (witnessed by w)
    report["ok_B1_plus_B"] = is_linearly_trivial(
        B1 + B - place_P(curve, curve.s + 2 * curve.r)
    )

    # frak_B1 - (s + r) P ~ 2 (frak_B - r P)
    report["ok_B1_shift"] = is_linearly_trivial(
        (B1 - place_P(curve, r + s)) - 2 * (B - place_P(curve, r))
    )

    # 3 B_i ~ 3 P for every branch place (witnessed by x - b_i)
    report["ok_3Bi"] = all(
        is_linearly_trivial(place_B(curve, i, 3) - place_P(curve, 3))
        for i in range(curve.n_branch)
    )

    # torsion order of frak_B - r P: nontrivial for r >= 1, trivial at k = 3
    tors = tuple(
        is_linearly_trivial(k * (B - place_P(curve, r))) for k in (1, 2, 3)
    )
    report["torsion_pattern"] = tors
    if r >= 1 and s >= 1:
        report["ok_torsion"] = tors == (False, False, True)
    else:
        report["ok_torsion"] = tors == (True, True, True)
        report["symmetric_case"] = is_linearly_trivial(K - place_P(curve, 2 * g - 2))

    # L(r P - frak_B) = 0 for r >= 1: the obstruction that makes H non-symmetric
    if r >= 1:
        report["ok_L_rP_minus_B_trivial"] = rr_dim(place_P(curve, r) - B) == 0

    # dx/(wy) is also canonical: K - (dx/(wy)) is the divisor of y
    report["ok_wy_canonical"] = is_linearly_trivial(K - dx_over_wy_divisor(curve))

    report["ok"] = all(v for k, v in report.items() if k.startswith("ok_"))
    return report
