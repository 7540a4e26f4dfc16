"""Tanh-sinh quadrature on (0, 1) with explicit level control.

The period engine uses it only for chords with endpoint singularities: the
chords that end at a branch point and the tail out to the point over
infinity.  Plain chords, which are analytic, go to fixed Gauss-Legendre rules
in periods.py instead.  The driver integrates a batch of integrands sharing
one set of nodes, doubling the node density until every integral is stable to
the requested tolerance.

Nodes are passed as (u, 1-u) pairs.  Both coordinates are computed from
exponential formulas without cancellation, so an evaluator can resolve an
integrable power singularity (1-u)^(-q), q < 1, at the right endpoint to full
working precision even when 1-u is far below the epsilon of u itself.  The
node tail is cut once the weight beats the declared singularity order, so the
achievable accuracy is set by mp.mp.dps, not by where tanh rounds to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp

from .polyutil import to_mp


@dataclass
class QuadResult:
    values: list
    level: int
    # max over integrands of |I_L - I_{L-1}| / (1 + |I_L|) at the final level
    last_delta: object
    nodes_used: int


def _nodes_at_level(level: int, eps_w, sing_order) -> list[tuple[Fraction, object, object, object]]:
    """All tanh-sinh nodes (key, u, 1-u, weight) for step h = 2^-level.

    key is the exact rational trapezoid abscissa k*h, a stable cache key
    across levels.  The tail stops once w * gap^(-sing_order - 1/8) drops
    below eps_w, gap being the distance to the nearer endpoint.
    """
    h = mp.mpf(2) ** (-level)
    q = mp.mpf(to_mp(sing_order)) + mp.mpf(1) / 8
    out = []
    k = 0
    while True:
        kh = k * h
        y = mp.pi / 2 * mp.sinh(kh)
        # u = (1 + tanh(y))/2 and 1-u, both cancellation-free
        u = 1 / (1 + mp.exp(-2 * y))
        comp = 1 / (1 + mp.exp(2 * y))
        w = (mp.pi / 4) * mp.cosh(kh) / mp.cosh(y) ** 2
        if comp <= 0 or w * comp ** (-q) < eps_w:
            break
        out.append((Fraction(k, 2**level), u, comp, w))
        if k > 0:
            out.append((Fraction(-k, 2**level), comp, u, w))
        k += 1
        if k > 40 * 2**level:
            raise RuntimeError("tanh-sinh tail failed to terminate")
    return out


def tanh_sinh_batch(
    eval_batch: Callable[[Sequence], list[list]],
    n_integrands: int,
    tol,
    max_level: int,
    sing_order=0,
) -> QuadResult:
    """Integrate a batch of functions over (0, 1).

    eval_batch(nodes) receives the new (u, 1-u) pairs of a level and returns,
    for each node, the list of n_integrands integrand values there.
    Levels run from 4 up to max_level, and each abscissa is evaluated exactly
    once across all levels.  sing_order
    bounds the strongest endpoint blow-up (u-end)^(-q) among the integrands.
    """
    eps_w = mp.mpf(10) ** (-(mp.mp.dps + 8))
    cache: dict[Fraction, list] = {}
    prev = None
    level = 4
    while True:
        nodes = _nodes_at_level(level, eps_w, sing_order)
        missing = [(u, comp, key) for key, u, comp, _ in nodes if key not in cache]
        if missing:
            vals = eval_batch([(u, comp) for u, comp, _ in missing])
            for (_, _, key), fv in zip(missing, vals):
                cache[key] = fv
        h = mp.mpf(2) ** (-level)
        sums = [mp.mpf(0)] * n_integrands
        # accumulate smallest weights first for stable rounding
        for key, _, _, w in sorted(nodes, key=lambda t: t[3]):
            fv = cache[key]
            for i in range(n_integrands):
                sums[i] = sums[i] + w * fv[i]
        values = [h * v for v in sums]
        if prev is not None:
            delta = mp.mpf(0)
            for a, b in zip(values, prev):
                d = abs(a - b) / (1 + abs(a))
                if d > delta:
                    delta = d
            if delta < tol or level >= max_level:
                return QuadResult(values=values, level=level, last_delta=delta, nodes_used=len(cache))
        prev = values
        level += 1
