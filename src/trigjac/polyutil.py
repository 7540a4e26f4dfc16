"""Dense univariate polynomials over a duck-typed coefficient field.

Used with fractions.Fraction for the exact layer and with mpmath mpf/mpc for
the numeric layer.  Coefficients are stored low degree first and trimmed by
exact equality with 0, which is meaningful for both coefficient types (mpmath
zeros compare exactly).  Nothing here assumes ordering of the field.

The kernels the two layers share live here as well: to_mp, the one door from
exact scalars into mpmath; root_product, a monic polynomial evaluated from its
roots; deflate, synthetic division by a linear factor; and leftover_roots,
the roots of a polynomial that remain once its known roots are divided out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import mpmath as mp

from .errors import RootAccountingFailure


def to_mp(c):
    """An exact scalar (int or Fraction) as mp.mpf(numerator) / denominator.

    The division rounds once, to nearest, at the ambient precision.
    mp.mpmathify, and mpmath arithmetic that meets a Fraction operand, round
    a Fraction by another rule, so exact values enter the numeric layer only
    through here.  Any other value is returned unchanged.
    """
    if isinstance(c, (int, Fraction)):
        return mp.mpf(c.numerator) / c.denominator
    return c


def root_product(roots: Sequence, x, mults: Sequence[int] | None = None):
    """The monic product prod (x - root)^mult, every mult 1 unless given.

    Unlike the expanded coefficients, the product of the linear factors stays
    accurate arbitrarily far from the roots.
    """
    v = mp.mpc(1)
    for i, b in enumerate(roots):
        v *= x - b if mults is None else (x - b) ** mults[i]
    return v


def deflate(coeffs: Sequence, root) -> tuple[list, object]:
    """Synthetic division of sum c_k x^k (low degree first) by (x - root).

    Returns (quotient coefficients, remainder); the remainder is the value of
    the polynomial at root.
    """
    acc = coeffs[-1]
    quotient = []
    for c in reversed(coeffs[:-1]):
        quotient.append(acc)
        acc = acc * root + c
    return quotient[::-1], acc


def leftover_roots(coeffs: Sequence, known: Iterable, tol) -> list:
    """The roots of sum c_k x^k (low degree first) besides the known ones.

    Each known root r is divided out in turn with deflate.  A remainder above
    tol * (1 + sum |c_k| |r|^k), over the coefficients it was divided from,
    means r is not a root and raises RootAccountingFailure; so does a root
    finder that does not converge, as on a repeated leftover root.
    """
    for r in known:
        quotient, remainder = deflate(coeffs, r)
        scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
        if abs(remainder) > tol * (1 + scale):
            raise RootAccountingFailure(
                f"polynomial does not vanish at known root {mp.nstr(mp.mpc(r), 8)}"
                f" (residue {mp.nstr(abs(remainder), 3)})"
            )
        coeffs = quotient
    if len(coeffs) <= 1:
        return []
    try:
        return mp.polyroots(list(reversed(coeffs)), maxsteps=300, extraprec=80)
    except mp.mp.NoConvergence as exc:
        raise RootAccountingFailure(
            f"roots of the degree-{len(coeffs) - 1} leftover did not converge: {exc}"
        ) from exc


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def zero() -> "Poly":
        return Poly([])

    @staticmethod
    def one() -> "Poly":
        return Poly([Fraction(1)])

    @staticmethod
    def x() -> "Poly":
        return Poly([Fraction(0), Fraction(1)])

    @staticmethod
    def from_roots(roots: Iterable, one=Fraction(1)) -> "Poly":
        """Monic product of (x - root) over the given roots."""
        p = Poly([one])
        for r in roots:
            p = p * Poly([-r, one])
        return p

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def scale(self, c) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def to_mp(self) -> "Poly":
        """The same polynomial with every exact coefficient passed through to_mp."""
        return Poly([to_mp(c) for c in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact-field division with remainder (requires invertible leading)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        q = [0] * max(0, len(rem) - d)
        for k in range(len(rem) - d - 1, -1, -1):
            c = rem[k + d] / lead
            q[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(q), Poly(rem)

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def root_multiplicity(self, b, tol=None) -> int:
        """Multiplicity of b as a root; exact when tol is None, else |p(b)| <= tol."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite multiplicity")
        m = 0
        p = self
        while not p.is_zero():
            v = p(b)
            if tol is None:
                if v != 0:
                    break
            else:
                scale = max((abs(c) for c in p.coeffs), default=0)
                if abs(v) > tol * (1 + scale):
                    break
            p, rem = p.divmod(Poly([-b, 1 if tol is not None else Fraction(1)]))
            m += 1
        return m

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*x")
            else:
                terms.append(f"({c})*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid; intended for exact (Fraction) coefficients."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.leading()
    return Poly([c / lead for c in a.coeffs])


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: f = c * prod g_i^i with the g_i squarefree, coprime.

    Exact coefficients only.  Returns the (g_i, i) with deg g_i >= 1.
    """
    if f.degree <= 0:
        return []
    a = gcd(f, f.derivative())
    if a.degree == 0:
        return [(f, 1)]
    b, r0 = f.divmod(a)
    c, r1 = f.derivative().divmod(a)
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
            b, _ = b.divmod(g)
            c, _ = d.divmod(g)
        else:
            c = d
        i += 1
    return out
