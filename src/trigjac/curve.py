"""Pointed cyclic trigonal curves X with a totally ramified place P over infinity.

Family parameters (r, s) with r, s >= 0, r + s >= 2 and 3 not dividing s + 2r.
Branch points b_1..b_{s+r} are pairwise distinct; the first s are the roots of
A(x), the last r the roots of B(x).  The affine coordinate ring is

    R = C[x, w, y] / (w^2 - B y,  y^2 - A w,  w y - A B)

so that w^3 = A B^2 and y^3 = A^2 B.  R is a free C[x]-module with basis
{1, w, y}; every element has a unique canonical form p0 + p1 w + p2 y.  Pole
orders at P (weights) are wt(x) = 3, wt(w) = 2r + s, wt(y) = 2s + r, and these
three residues are pairwise distinct mod 3, so the weight of a canonical form
is the maximum of its term weights with no cancellation.  The Weierstrass
semigroup at P is H = <3, 2r+s, 2s+r> of genus g = r + s - 1.

Valuations at the branch place B_i over b_i: ord(x - b_i) = 3, and
ord(w), ord(y) = (1, 2) for i <= s (A-roots) and (2, 1) for i > s (B-roots).

Elements may carry a polynomial denominator in x, giving the full function
field; denominators stay trivial throughout the graded-ring layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from . import polyutil, semigroup as sgmod
from .errors import (
    DegenerateBranching,
    SemigroupMismatch,
    ValidationError,
)
from .polyutil import Poly, root_product, to_mp

CONVENTION = "w2=By;y2=Aw;wy=AB;v1"


def is_exact_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


def decisive_sheet(values) -> int | None:
    """Index of the smallest of three per-sheet values, or None when it is
    not below 1e-6 times the runner-up."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    if values[order[0]] > mp.mpf("1e-6") * values[order[1]]:
        return None
    return order[0]


class TrigonalCurve:
    """Curve data shared by the exact and numeric layers."""

    def __init__(self, r: int, s: int, branch_points: Sequence):
        sgmod.validate_family(r, s)
        pts = tuple(branch_points)
        if len(pts) != r + s:
            raise ValidationError(f"expected {r + s} branch points, got {len(pts)}")
        if r + s < 2:
            raise ValidationError("family genus r + s - 1 must be at least 1")
        self.r = int(r)
        self.s = int(s)
        self.exact = all(is_exact_scalar(b) for b in pts)
        if self.exact:
            pts = tuple(Fraction(b) for b in pts)
        else:
            pts = tuple(mp.mpmathify(to_mp(b)) for b in pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise DegenerateBranching(
                        f"branch points {i + 1} and {j + 1} coincide ({pts[i]})"
                    )
        self.branch_points = pts
        # the unit of the coefficient field
        self.one = Fraction(1) if self.exact else mp.mpf(1)
        self.A = Poly.from_roots(pts[: self.s], one=self.one)
        self.B = Poly.from_roots(pts[self.s :], one=self.one)
        self.AB = self.A * self.B
        self.AB2 = self.AB * self.B
        self.H = sgmod.family_semigroup(r, s)
        if self.H.genus != self.genus:
            raise SemigroupMismatch(
                f"gap count {self.H.genus} != r + s - 1 = {self.genus}"
            )

    # -- basic invariants ----------------------------------------------

    @property
    def genus(self) -> int:
        return self.r + self.s - 1

    @property
    def wt_w(self) -> int:
        return 2 * self.r + self.s

    @property
    def wt_y(self) -> int:
        return 2 * self.s + self.r

    @property
    def n_branch(self) -> int:
        return self.r + self.s

    def branch_exponent(self, i: int) -> int:
        """Monodromy exponent of w around b_i: w gains zeta^m, m in {1, 2}."""
        return 1 if i < self.s else 2

    def ord_w_at(self, i: int) -> int:
        return 1 if i < self.s else 2

    def ord_y_at(self, i: int) -> int:
        return 2 if i < self.s else 1

    def fingerprint(self) -> str:
        if self.exact:
            pts = ",".join(str(b) for b in self.branch_points)
        else:
            pts = ",".join(mp.nstr(b, 25) for b in self.branch_points)
        return f"r={self.r};s={self.s};b=[{pts}];{CONVENTION}"

    def __repr__(self) -> str:
        return f"TrigonalCurve(r={self.r}, s={self.s}, g={self.genus})"

    # -- ring elements ---------------------------------------------------

    def element(self, p0=None, p1=None, p2=None, den=None) -> "RingElement":
        def as_poly(p):
            if p is None:
                return Poly.zero()
            if isinstance(p, Poly):
                return p
            return Poly.const(Fraction(p) if is_exact_scalar(p) else mp.mpmathify(p))

        d = Poly.one() if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        return RingElement(self, as_poly(p0), as_poly(p1), as_poly(p2), d)

    def w_elem(self) -> "RingElement":
        return self.element(p1=1)

    def y_elem(self) -> "RingElement":
        return self.element(p2=1)

    def monomial(self, a: int, b: int, c: int) -> "RingElement":
        """Canonical element for the monomial x^a w^b y^c with b, c in {0, 1}.

        (b, c) = (1, 1) denotes x^a w y, whose canonical form is x^a A B.
        """
        if a < 0 or b not in (0, 1) or c not in (0, 1):
            raise ValidationError("monomial exponents out of range")
        xa = Poly.x() ** a if a else Poly.one()
        if (b, c) == (0, 0):
            return self.element(p0=xa)
        if (b, c) == (1, 0):
            return self.element(p1=xa)
        if (b, c) == (0, 1):
            return self.element(p2=xa)
        return self.element(p0=xa * self.AB)

    def monomial_weight(self, a: int, b: int, c: int) -> int:
        return 3 * a + b * self.wt_w + c * self.wt_y

    # -- graded monomial bases --------------------------------------------

    def basis_R(self, max_weight: int) -> "BasisTable":
        """One canonical monomial per occupied weight of R, weights 0..max_weight."""
        return self._basis(max_weight, kinds=((0, 0), (1, 0), (0, 1)), name="R")

    def basis_RB(self, max_weight: int) -> "BasisTable":
        """Same for R^B, the elements vanishing at every branch place."""
        return self._basis(max_weight, kinds=((1, 0), (0, 1), (1, 1)), name="RB")

    def _basis(self, max_weight: int, kinds, name: str) -> "BasisTable":
        if max_weight < 0:
            raise ValidationError("max_weight must be non-negative")
        rows = []
        offsets = {
            (0, 0): 0,
            (1, 0): self.wt_w,
            (0, 1): self.wt_y,
            (1, 1): self.wt_w + self.wt_y,
        }
        for n in range(max_weight + 1):
            for b, c in kinds:
                o = offsets[(b, c)]
                if n >= o and (n - o) % 3 == 0:
                    rows.append((n, ((n - o) // 3, b, c)))
                    break
        return BasisTable(curve=self, name=name, max_weight=max_weight, rows=tuple(rows))

    def holomorphic_form_codes(self) -> list[tuple[int, str]]:
        """The g holomorphic differentials f_i dx/(w y) as (a, kind) codes.

        kind "y" means x^a dx / y (from monomial x^a w), "w" means x^a dx / w.
        The first g R^B weights never include a w*y monomial because
        3(r+s) > 2g - 2 + r + s.
        """
        g = self.genus
        codes = []
        for _, (a, b, c) in self.basis_RB(2 * g - 2 + self.r + self.s).rows[:g]:
            if (b, c) == (1, 0):
                codes.append((a, "y"))
            elif (b, c) == (0, 1):
                codes.append((a, "w"))
            else:  # pragma: no cover - excluded by the weight bound
                raise AssertionError("w*y monomial among holomorphic forms")
        if len(codes) != g:  # pragma: no cover
            raise AssertionError("holomorphic form count != genus")
        return codes

    # -- numeric points ---------------------------------------------------

    def branch_points_mp(self) -> list:
        return [mp.mpc(to_mp(b)) for b in self.branch_points]

    def ab2_mp(self, x):
        """A(x) B(x)^2 evaluated with mpmath scalars."""
        exponents = [self.branch_exponent(i) for i in range(self.n_branch)]
        return root_product(self.branch_points_mp(), x, exponents)

    def ab_mp(self, x):
        """A(x) B(x) evaluated with mpmath scalars."""
        return root_product(self.branch_points_mp(), x)

    def point(self, x, sheet: int = 0, w=None) -> "PointOnCurve":
        """Point over x on a labelled sheet.

        Sheet k carries w = zeta^k * (principal cube root of A B^2(x)); this is
        a deterministic labelling, not a global analytic continuation.  Passing
        an explicit w overrides the sheet label (validated against the curve).
        """
        xm = mp.mpc(x)
        if w is None:
            v = self.ab2_mp(xm)
            if v == 0:
                raise ValidationError("x is a branch point; use a branch place instead")
            w = mp.root(v, 3) * mp.exp(2j * mp.pi * (sheet % 3) / 3)
        wm = mp.mpc(w)
        if wm == 0:
            # only branch fibers carry w = 0, and there y vanishes as well
            v = self.ab2_mp(xm)
            if abs(v) > mp.mpf(10) ** (-(mp.mp.dps - 6)) * (1 + abs(xm)) ** (
                self.AB2.degree
            ):
                raise ValidationError("w = 0 only lies over a branch point")
            ym = mp.mpc(0)
        else:
            ym = self.ab_mp(xm) / wm
        return PointOnCurve(curve=self, x=xm, w=wm, y=ym)

    def local_series(self, x0, w0, order: int) -> tuple[Poly, Poly]:
        """Taylor series of (w, y) in h = x - x0 at a non-branch point, mpc coefficients."""
        x0 = mp.mpc(x0)
        w0 = mp.mpc(w0)
        K = order + 1
        f = _shift_series(self.AB2, x0, K)
        wser = Poly([w0])
        # Newton iteration in the truncated series ring doubles accuracy each step.
        prec_terms = 1
        while prec_terms < K:
            prec_terms = min(2 * prec_terms, K)
            w2 = polyutil_mul_trunc(wser, wser, prec_terms)
            w3 = polyutil_mul_trunc(w2, wser, prec_terms)
            num = _trunc(w3 - Poly(f.coeffs[:prec_terms]), prec_terms)
            inv = series_inverse(polyutil_mul_trunc(w2, Poly([mp.mpc(3)]), prec_terms), prec_terms)
            wser = _trunc(wser - polyutil_mul_trunc(num, inv, prec_terms), prec_terms)
        ab = _shift_series(self.AB, x0, K)
        yser = polyutil_mul_trunc(ab, series_inverse(wser, K), K)
        return _trunc(wser, K), _trunc(yser, K)


def _shift_series(p: Poly, x0, K: int) -> Poly:
    """p(x0 + h) as an mpc Poly in h, truncated to K terms."""
    coeffs = []
    q = Poly([mp.mpc(c) for c in p.to_mp().coeffs])
    fact = mp.mpf(1)
    for k in range(K):
        coeffs.append(q(x0) / fact)
        q = q.derivative()
        fact *= k + 1
        if q.is_zero():
            break
    return Poly(coeffs)


def _trunc(p: Poly, K: int) -> Poly:
    return Poly(p.coeffs[:K])


def polyutil_mul_trunc(a: Poly, b: Poly, K: int) -> Poly:
    out = [mp.mpc(0)] * min(K, max(0, len(a.coeffs) + len(b.coeffs) - 1))
    for i, ca in enumerate(a.coeffs):
        if i >= K:
            break
        for j, cb in enumerate(b.coeffs):
            if i + j >= K:
                break
            out[i + j] += ca * cb
    return Poly(out)


def series_inverse(a: Poly, K: int) -> Poly:
    """Multiplicative inverse of a power series with a(0) != 0, K terms."""
    if not a.coeffs or a.coeffs[0] == 0:
        raise ZeroDivisionError("series has no inverse (vanishing constant term)")
    inv = [1 / mp.mpc(a.coeffs[0])]
    for n in range(1, K):
        acc = mp.mpc(0)
        for k in range(1, min(n, len(a.coeffs) - 1) + 1):
            acc += a.coeffs[k] * inv[n - k]
        inv.append(-acc / a.coeffs[0])
    return Poly(inv)


@dataclass(frozen=True)
class PointOnCurve:
    """A generic (non-branch, finite) point (x, w, y) with w^3 = A B^2."""

    curve: TrigonalCurve
    x: object
    w: object
    y: object

    def validate(self, tol) -> None:
        scale = 1 + abs(self.w) ** 3
        if abs(self.w**3 - self.curve.ab2_mp(self.x)) > tol * scale:
            raise ValidationError("point does not satisfy w^3 = A B^2")
        if abs(self.w * self.y - self.curve.ab_mp(self.x)) > tol * (1 + abs(self.w * self.y)):
            raise ValidationError("point does not satisfy w y = A B")

    @property
    def sheet(self) -> int:
        """Sheet label relative to the principal cube root at x."""
        ref = mp.root(self.curve.ab2_mp(self.x), 3)
        ratio = self.w / ref
        k = int(mp.nint(mp.arg(ratio) / (2 * mp.pi / 3))) % 3
        return k

    def conjugate(self, k: int = 1) -> "PointOnCurve":
        """Apply the deck transformation (w, y) -> (zeta^k w, zeta^{2k} y)."""
        z = mp.exp(2j * mp.pi * k / 3)
        return PointOnCurve(curve=self.curve, x=self.x, w=self.w * z, y=self.y * z**2)


class RingElement:
    """Canonical form (p0 + p1 w + p2 y) / den with den in C[x].

    Denominators appear only through Riemann-Roch bases with poles at branch
    places; the graded ring layer keeps den = 1.
    """

    __slots__ = ("curve", "p0", "p1", "p2", "den")

    def __init__(self, curve: TrigonalCurve, p0: Poly, p1: Poly, p2: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if curve.exact:
            p0, p1, p2, den = _normalize_exact(p0, p1, p2, den)
        self.curve = curve
        self.p0 = p0
        self.p1 = p1
        self.p2 = p2
        self.den = den

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.p0.is_zero() and self.p1.is_zero() and self.p2.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.curve is not other.curve:
            return False
        a = (self.p0 * other.den, self.p1 * other.den, self.p2 * other.den)
        b = (other.p0 * self.den, other.p1 * self.den, other.p2 * self.den)
        return a == b

    def __hash__(self):
        return hash((id(self.curve), self.p0, self.p1, self.p2, self.den))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        if self.den == other.den:
            return RingElement(
                self.curve,
                self.p0 + other.p0,
                self.p1 + other.p1,
                self.p2 + other.p2,
                self.den,
            )
        return RingElement(
            self.curve,
            self.p0 * other.den + other.p0 * self.den,
            self.p1 * other.den + other.p1 * self.den,
            self.p2 * other.den + other.p2 * self.den,
            self.den * other.den,
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.curve, -self.p0, -self.p1, -self.p2, self.den)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other) -> "RingElement":
        if not isinstance(other, RingElement):
            return self.scale(other)
        self._check(other)
        A, B, AB = self.curve.A, self.curve.B, self.curve.AB
        p0, p1, p2 = self.p0, self.p1, self.p2
        q0, q1, q2 = other.p0, other.p1, other.p2
        r0 = p0 * q0 + (p1 * q2 + p2 * q1) * AB
        r1 = p0 * q1 + p1 * q0 + (p2 * q2) * A
        r2 = p0 * q2 + p2 * q0 + (p1 * q1) * B
        return RingElement(self.curve, r0, r1, r2, self.den * other.den)

    def scale(self, c) -> "RingElement":
        parts = (self.p0, self.p1, self.p2)
        if not is_exact_scalar(c):
            # exact coefficients meet a numeric scalar through to_mp
            parts = tuple(p.to_mp() for p in parts)
        elif self.curve.exact:
            c = Fraction(c)
        return RingElement(self.curve, *(p.scale(c) for p in parts), self.den)

    def __rmul__(self, other):
        return self.scale(other)

    def _check(self, other: "RingElement") -> None:
        if self.curve is not other.curve:
            raise ValidationError("elements belong to different curves")

    # -- weights and valuations --------------------------------------------

    def term_weights(self) -> list[int]:
        wts = []
        if not self.p0.is_zero():
            wts.append(3 * self.p0.degree)
        if not self.p1.is_zero():
            wts.append(3 * self.p1.degree + self.curve.wt_w)
        if not self.p2.is_zero():
            wts.append(3 * self.p2.degree + self.curve.wt_y)
        return wts

    @property
    def weight(self) -> int:
        """Pole order at P.  Exact: term weights are pairwise distinct mod 3."""
        if self.is_zero():
            raise ValidationError("zero element has no weight")
        return max(self.term_weights()) - 3 * self.den.degree

    def ord_at_infinity(self) -> int:
        return -self.weight

    def ord_at_branch(self, i: int, tol=None) -> int:
        """Valuation at the branch place B_i (0-based index)."""
        if self.is_zero():
            raise ValidationError("zero element has no valuation")
        b = self.curve.branch_points[i]
        offs = (0, self.curve.ord_w_at(i), self.curve.ord_y_at(i))
        vals = []
        for p, o in zip((self.p0, self.p1, self.p2), offs):
            if not p.is_zero():
                vals.append(3 * p.root_multiplicity(b, tol=tol) + o)
        v = min(vals)
        if self.den.degree > 0:
            v -= 3 * self.den.root_multiplicity(b, tol=tol)
        return v

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, pt: PointOnCurve):
        return self.evaluate_xwy(pt.x, pt.w, pt.y)

    def evaluate_xwy(self, x, w, y):
        num = _eval_mp(self.p0, x) + _eval_mp(self.p1, x) * w + _eval_mp(self.p2, x) * y
        d = _eval_mp(self.den, x)
        return num / d

    def norm_poly(self) -> Poly:
        """Norm to C[x]: product over the deck group, for den = 1 elements.

        N(p0 + p1 w + p2 y) = p0^3 + p1^3 A B^2 + p2^3 A^2 B - 3 p0 p1 p2 A B.
        """
        if self.den.degree != 0:
            raise ValidationError("norm_poly requires a trivial denominator")
        c = self.curve
        p0, p1, p2 = self.p0, self.p1, self.p2
        ab, ab2, a2b = c.AB, c.AB2, c.A * c.A * c.B
        # numeric coefficients meet the exact curve polynomials through to_mp
        if not all(is_exact_scalar(v) for p in (p0, p1, p2) for v in p.coeffs):
            ab, ab2, a2b = ab.to_mp(), ab2.to_mp(), a2b.to_mp()
        n = (
            p0 * p0 * p0
            + ab2 * (p1 * p1 * p1)
            + a2b * (p2 * p2 * p2)
            - Poly.const(3) * ab * p0 * p1 * p2
        )
        d0 = self.den.coeffs[0]
        return n.scale(1 / (d0 * d0 * d0)) if d0 != 1 else n

    def __repr__(self) -> str:
        parts = []
        if not self.p0.is_zero():
            parts.append(f"({self.p0})")
        if not self.p1.is_zero():
            parts.append(f"({self.p1})*w")
        if not self.p2.is_zero():
            parts.append(f"({self.p2})*y")
        body = " + ".join(parts) if parts else "0"
        if self.den.degree > 0 or (self.den.coeffs and self.den.coeffs[0] != 1):
            return f"RingElement(({body}) / ({self.den}))"
        return f"RingElement({body})"


def _normalize_exact(p0: Poly, p1: Poly, p2: Poly, den: Poly):
    """Cancel common factors and make the denominator monic (Fraction field)."""
    if den.degree > 0:
        g = polyutil.gcd(den, polyutil.gcd(p0, polyutil.gcd(p1, p2)))
        if g.degree > 0:
            p0 = p0.divmod(g)[0]
            p1 = p1.divmod(g)[0]
            p2 = p2.divmod(g)[0]
            den = den.divmod(g)[0]
    lead = den.leading()
    if lead != 1:
        inv = 1 / lead
        p0, p1, p2 = p0.scale(inv), p1.scale(inv), p2.scale(inv)
        den = den.scale(inv)
    return p0, p1, p2, den


def _eval_mp(p: Poly, x):
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * x + to_mp(c)
    return acc


@dataclass(frozen=True)
class BasisTable:
    """Occupied-weight monomial table for R or R^B up to max_weight."""

    curve: TrigonalCurve
    name: str
    max_weight: int
    rows: tuple[tuple[int, tuple[int, int, int]], ...]

    @property
    def occupied_weights(self) -> tuple[int, ...]:
        return tuple(wt for wt, _ in self.rows)

    def to_rows_json(self) -> list[dict]:
        return [{"weight": wt, "monomial": list(mon)} for wt, mon in self.rows]

    def elements(self) -> list[RingElement]:
        return [self.curve.monomial(*mon) for _, mon in self.rows]


def build_family(r: int, s: int, branch_points: Sequence) -> TrigonalCurve:
    """Construct a family curve after validating all preconditions."""
    return TrigonalCurve(r, s, branch_points)


def roots_of_poly(coeffs: Sequence, extraprec: int = 40) -> list:
    """Roots of a polynomial given low-to-high coefficients, deterministic order.

    Roots are computed with mpmath at the current working precision and sorted
    by (argument, modulus) rounded to 12 digits to make the order stable.
    """
    cs = [to_mp(c) if is_exact_scalar(c) else mp.mpc(c) for c in coeffs]
    roots = mp.polyroots([c for c in reversed(cs)], maxsteps=200, extraprec=extraprec)

    def key(z):
        return (round(float(mp.arg(z)), 12), round(float(abs(z)), 12))

    return sorted((mp.mpc(z) for z in roots), key=key)
