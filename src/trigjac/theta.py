"""Riemann theta series with characteristics.

theta[d](z, tau) = sum over n in Z^g of
    exp( pi*i (n+d')^T tau (n+d') + 2*pi*i (n+d')^T (z+d'') ).

With Y = Im tau = L L^T a term has magnitude exp(pi y^T Y^-1 y) *
exp(-pi |L^T nu|^2), nu = n + d' + Y^-1 y and y = Im(z + d''), so the sum is
truncated to the ellipsoid |L^T nu| <= r, r the least radius whose tail bound
(Deconinck, Heil, Bobenko, van Hoeij & Schmies, Math. Comp. 73, 2004, Thm. 2)
is below 10^-digits of the largest term; digits defaults to the working
precision plus 6, and a caller that only needs a vanishing verdict asks for
fewer.  One walk over the ellipsoid, last coordinate first, sums the series:
each level carries the exponent of the coordinates already fixed and the
linear coefficient they give each lower one, and each innermost row is summed
from its vertex, its largest term, outward by term ratios (Frauendiener,
Jaber & Klein, J. Geom. Phys. 2019), two exps per row.  Alongside the value
the largest term magnitude is returned; vanishing on the theta divisor is
only meaningful relative to that scale.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .config import RunConfig
from .errors import PrecisionLoss
from .polyutil import to_mp


@dataclass(frozen=True)
class ThetaChar:
    """Characteristic [d'; d''] with rational entries."""

    top: tuple[Fraction, ...]
    bottom: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "top", tuple(Fraction(v) for v in self.top))
        object.__setattr__(self, "bottom", tuple(Fraction(v) for v in self.bottom))
        if len(self.top) != len(self.bottom):
            raise ValueError("characteristic halves must have equal length")

    @property
    def genus(self) -> int:
        return len(self.top)

    @staticmethod
    def zero(g: int) -> "ThetaChar":
        return ThetaChar((Fraction(0),) * g, (Fraction(0),) * g)

    @staticmethod
    def half_from_bits(top_bits: Sequence[int], bottom_bits: Sequence[int]) -> "ThetaChar":
        return ThetaChar(
            tuple(Fraction(int(b) % 2, 2) for b in top_bits),
            tuple(Fraction(int(b) % 2, 2) for b in bottom_bits),
        )

    def is_half_integer(self) -> bool:
        return all(2 * v % 1 == 0 for v in self.top + self.bottom)

    def parity(self) -> int:
        """exp(4*pi*i d'.d'') for a half-integer characteristic: +1 even, -1 odd."""
        if not self.is_half_integer():
            raise ValueError("parity defined for half-integer characteristics")
        s = 4 * sum(a * b for a, b in zip(self.top, self.bottom))
        return -1 if s % 2 else 1

    def entries_mp(self) -> tuple[list, list]:
        """(d', d'') as mpf lists at the ambient precision."""
        return [to_mp(v) for v in self.top], [to_mp(v) for v in self.bottom]

    def vector(self, tau) -> list:
        """The point tau*d' + d'' in C^g."""
        g = self.genus
        dp, dq = self.entries_mp()
        return [sum((tau[i, j] * dp[j] for j in range(g)), dq[i]) for i in range(g)]

    def to_json(self) -> dict:
        return {"top": [str(v) for v in self.top], "bottom": [str(v) for v in self.bottom]}


def half_characteristics(g: int):
    """All 4^g half-integer characteristics, in mask order.

    Mask k, read as 2g binary digits from the most significant, lists the
    bottom bits and then the top bits: the bottom row varies slowest, and mask
    1 is top (0, ..., 0, 1/2) with bottom 0.
    """
    for bits in itertools.product((0, 1), repeat=2 * g):
        yield ThetaChar.half_from_bits(bits[g:], bits[:g])


def imag_cholesky(tau):
    """(Y, L): Y the symmetrised Im tau and L its lower Cholesky factor.

    Y = L L^T.  A Y that is not numerically positive definite raises
    PrecisionLoss.
    """
    g = tau.rows
    Y = mp.matrix([[(tau[i, j].imag + tau[j, i].imag) / 2 for j in range(g)] for i in range(g)])
    try:
        L = mp.cholesky(Y)
    except ValueError as exc:
        raise PrecisionLoss("Im tau is not positive definite") from exc
    return Y, L


def _walk(R, center, radius2, state, descend, row):
    """Visit the ellipsoid |R (n + center)|^2 <= radius2, R upper triangular,
    fixing coordinates last first: descend(i, n_i, state) is the state of level
    i - 1, and row(state, m, lo, hi, rem2) gets each innermost row, integers
    lo..hi around the real centre m, with rem2 of the squared radius left."""
    g = len(center)
    point = [0] * g

    def rec(i, rem2, state):
        s = sum((R[i][j] * (point[j] + center[j]) for j in range(i + 1, g)), mp.mpf(0))
        m = -s / R[i][i] - center[i]
        half = mp.sqrt(rem2) / R[i][i] if rem2 > 0 else 0
        lo, hi = int(mp.ceil(m - half)), int(mp.floor(m + half))
        if i == 0:
            if lo <= hi:
                row(state, m, lo, hi, rem2)
            return
        for ni in range(lo, hi + 1):
            rem = rem2 - (R[i][i] * (ni - m)) ** 2
            if rem >= 0:
                point[i] = ni
                rec(i - 1, rem, descend(i, ni, state))

    rec(g - 1, radius2, state)


@functools.lru_cache(maxsize=16)
def _lattice(key, digits: int):
    """(Y, L^T as a list of rows, squared radius r^2) for the tau and mp.prec of key.

    r = R/sqrt(pi) for the least R >= (sqrt(2g) + rho)/2 with (g/2) (2/rho)^g
    Gamma(g/2, (R - rho/2)^2) <= 10^-digits exp(-pi mu^2), rho the shortest
    vector of sqrt(pi) L^T Z^g (found by the walk).  The left side bounds the
    tail relative to exp(pi y^T Y^-1 y); the largest term is at least that
    times exp(-pi mu^2), mu the covering radius of L^T Z^g, mu^2 <= sum L_ii^2/4.
    """
    prec, g, entries = key
    with mp.workprec(prec):
        Y, L = imag_cholesky(mp.matrix([[mp.make_mpc(v) for v in entries[i * g:(i + 1) * g]]
                                        for i in range(g)]))
        R = [[L[j, i] for j in range(g)] for i in range(g)]
        reach = short = min(Y[i, i] for i in range(g))  # a basis vector, squared

        def row(origin, m, lo, hi, rem2):
            nonlocal short
            n0 = int(mp.nint(m)) or int(origin)  # the nearest point but 0
            if lo <= n0 <= hi:
                short = min(short, reach - rem2 + (R[0][0] * (n0 - m)) ** 2)

        _walk(R, [0] * g, reach, True, lambda i, ni, origin: origin and ni == 0, row)
        mu2 = sum(L[i, i] ** 2 for i in range(g)) / 4
    with mp.workdps(15):
        rho, a = mp.sqrt(mp.pi * short), mp.mpf(g) / 2
        goal = -digits * mp.log(10) - mp.pi * mu2 - mp.log(a) - g * mp.log(2 / rho)

        def meets(r):
            return mp.log(mp.gammainc(a, (r - rho / 2) ** 2)) <= goal

        lo = hi = (mp.sqrt(2 * g) + rho) / 2
        while not meets(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1e-9 * hi:  # bisect to the least R that meets it
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    with mp.workprec(prec):
        return Y, R, hi**2 / mp.pi


def theta_value(z: Sequence, tau, char: ThetaChar | None = None, *, digits: int | None = None):
    """Return (theta[char](z, tau), scale) with scale = max term magnitude.

    The terms left out total at most 10^-digits * scale; digits defaults to
    the working precision plus 6.
    """
    g = tau.rows
    if char is None:
        char = ThetaChar.zero(g)
    if char.genus != g:
        raise ValueError("characteristic size does not match tau")
    if digits is None:
        digits = mp.mp.dps + 6
    entries = ((tau[i, j].real._mpf_, tau[i, j].imag._mpf_) for i in range(g) for j in range(g))
    Y, R, radius2 = _lattice((mp.mp.prec, g, tuple(entries)), digits)
    dp, dq = char.entries_mp()
    zq = [mp.mpc(z[i]) + dq[i] for i in range(g)]  # z + d''
    Yinv_y = mp.lu_solve(Y, [v.imag for v in zq])
    center = [dp[i] + Yinv_y[i] for i in range(g)]

    # tau_jk + tau_kj, not 2 tau_jk: tau is symmetric only up to rounding
    pi_i = mp.pi * 1j
    diag = [pi_i * tau[i, i] for i in range(g)]
    cross = [[pi_i * (tau[j, k] + tau[k, j]) for k in range(g)] for j in range(g)]
    q2 = mp.exp(2 * diag[0])  # term ratios along a row grow by this factor
    total, scale = mp.mpc(0), mp.mpf(0)

    def descend(i, ni, state):
        # lin[j], j < i: coefficient of nu_j given the coordinates fixed so far
        expo, lin = state
        nu = ni + dp[i]
        return expo + nu * (lin[i] + diag[i] * nu), [lin[j] + cross[j][i] * nu for j in range(i)]

    def row(state, m, lo, hi, _rem2):
        nonlocal total, scale
        expo, lin = state
        v = min(max(int(mp.nint(m)), lo), hi)  # the vertex, the row's largest term
        nu = v + dp[0]
        top = mp.exp(expo + nu * (lin[0] + diag[0] * nu))
        up = mp.exp(lin[0] + diag[0] * (2 * nu + 1))  # term(v + 1) / term(v)
        scale = max(scale, abs(top))
        for r, steps in ((up, hi - v), (q2 / up, v - lo)):
            t = top
            for _ in range(steps):
                t *= r
                total += t
                r *= q2
        total += top

    _walk(R, center, radius2, (mp.mpc(0), [2 * pi_i * v for v in zq]), descend, row)
    return total, scale


def classify_vanishing(value_abs, scale, config: RunConfig) -> bool | None:
    """True if clearly on the divisor, False if clearly off, None if ambiguous."""
    if value_abs <= config.vanish_tol * scale:
        return True
    if value_abs >= config.nonvanish_floor * scale:
        return False
    return None
