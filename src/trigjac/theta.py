"""Riemann theta series with characteristics.

theta[d](z, tau) = sum over n in Z^g of
    exp( pi*i (n+d')^T tau (n+d') + 2*pi*i (n+d')^T (z+d'') ).

The sum is truncated to the ellipsoid where the Gaussian factor still
contributes at the working precision: with Y = Im tau = L L^T the magnitude of
a term is exp(pi y^T Y^-1 y) * exp(-pi |L^T nu|^2), nu = n + d' + Y^-1 y and
y = Im(z + d''), so integer points are enumerated with |L^T nu| below a radius
set by the precision.  Alongside the value the maximum term magnitude is
returned; vanishing on the theta divisor is only meaningful relative to that
scale.
"""

from __future__ import annotations

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
        return {
            "top": [str(v) for v in self.top],
            "bottom": [str(v) for v in self.bottom],
        }


def half_characteristics(g: int):
    """All 4^g half-integer characteristics, in mask order.

    Mask k, read as 2g binary digits from the most significant, lists the
    bottom bits and then the top bits: the bottom row varies slowest, and mask
    1 is top (0, ..., 0, 1/2) with bottom 0.
    """
    for mask in range(4**g):
        bits = []
        v = mask
        for _ in range(2 * g):
            bits.append(v % 2)
            v //= 2
        top = bits[:g][::-1]
        bottom = bits[g:][::-1]
        yield ThetaChar.half_from_bits(top, bottom)


def imag_cholesky(tau):
    """(Y, L): Y the symmetrised Im tau and L its lower Cholesky factor.

    Y = L L^T.  A Y that is not numerically positive definite raises
    PrecisionLoss.
    """
    g = tau.rows
    Y = mp.matrix(g, g)
    for i in range(g):
        for j in range(g):
            Y[i, j] = (tau[i, j].imag + tau[j, i].imag) / 2
    try:
        L = mp.cholesky(Y)
    except ValueError as exc:
        raise PrecisionLoss("Im tau is not positive definite") from exc
    return Y, L


def _ellipsoid_points(R, center, radius):
    """Integer vectors n with |R (n + center)| <= radius, R upper triangular."""
    g = R.rows
    out = []
    point = [0] * g

    def rec(i, rem2):
        if i < 0:
            out.append(tuple(point))
            return
        # coordinate i enters through (R[i,i]*(n_i + c_i) + s_i)^2 <= rem2
        s = mp.mpf(0)
        for j in range(i + 1, g):
            s += R[i, j] * (point[j] + center[j])
        rad = mp.sqrt(rem2) if rem2 > 0 else mp.mpf(0)
        lo = (-rad - s) / R[i, i] - center[i]
        hi = (rad - s) / R[i, i] - center[i]
        for ni in range(int(mp.ceil(lo)), int(mp.floor(hi)) + 1):
            t = R[i, i] * (ni + center[i]) + s
            rem_next = rem2 - t * t
            if rem_next < 0:
                continue
            point[i] = ni
            rec(i - 1, rem_next)
        point[i] = 0

    rec(g - 1, radius * radius)
    return out


def theta_value(z: Sequence, tau, char: ThetaChar | None = None):
    """Return (theta[char](z, tau), scale) with scale = max term magnitude."""
    g = tau.rows
    if char is None:
        char = ThetaChar.zero(g)
    if char.genus != g:
        raise ValueError("characteristic size does not match tau")
    zv = [mp.mpc(v) for v in z]
    dp, dq = char.entries_mp()

    Y, L = imag_cholesky(tau)
    R = L.T
    yv = mp.matrix(g, 1)
    for i in range(g):
        yv[i, 0] = (zv[i] + dq[i]).imag
    Yinv_y = mp.lu_solve(Y, yv)
    center = [dp[i] + Yinv_y[i, 0] for i in range(g)]

    radius = mp.sqrt((mp.mp.dps + 6) * mp.log(10) / mp.pi) + mp.mpf(2)
    points = _ellipsoid_points(R, center, radius)

    total = mp.mpc(0)
    scale = mp.mpf(0)
    pi_i = mp.pi * 1j
    for n in points:
        nu = [n[i] + dp[i] for i in range(g)]
        quad = mp.mpc(0)
        for i in range(g):
            for j in range(g):
                quad += nu[i] * tau[i, j] * nu[j]
        lin = mp.mpc(0)
        for i in range(g):
            lin += nu[i] * (zv[i] + dq[i])
        term = mp.exp(pi_i * quad + 2 * pi_i * lin)
        total += term
        mag = abs(term)
        if mag > scale:
            scale = mag
    return total, scale


def quasi_period_factor(char: ThetaChar, z: Sequence, tau, m: Sequence[int], n0: Sequence[int]):
    """Factor relating theta at z + tau*m + n0 to theta at z:

    theta[d](z + tau m + n0) = factor * theta[d](z), with
    factor = exp(2 pi i (d'.n0 - m.(z+d'') - m.tau.m/2)).
    """
    g = char.genus
    dp, dq = char.entries_mp()
    expo = mp.mpc(0)
    for i in range(g):
        expo += dp[i] * n0[i] - m[i] * (mp.mpc(z[i]) + dq[i])
        for j in range(g):
            expo -= mp.mpf(m[i] * m[j]) * tau[i, j] / 2
    return mp.exp(2j * mp.pi * expo)


def classify_vanishing(value_abs, scale, config: RunConfig) -> bool | None:
    """True if clearly on the divisor, False if clearly off, None if ambiguous."""
    if value_abs <= config.vanish_tol * scale:
        return True
    if value_abs >= config.nonvanish_floor * scale:
        return False
    return None
