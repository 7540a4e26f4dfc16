"""Interpolation determinants on the graded ring of branch-vanishing functions.

The determinant psi_n built from the first n graded basis elements of R^B,
evaluated at n points, is the trigonal analogue of the classical
Frobenius-Stickelberger determinant.  The ratio

    mu_n(Q) = psi_{n+1}(P_1, ..., P_n, Q) / psi_n(P_1, ..., P_n)

is the unique monic element of R^B of weight N(n) vanishing at the P_i.
mu_coefficients builds it as a curve.RingElement, the graded basis monomials
weighted by its Cramer coefficients, so its evaluation and its norm to C[x]
are the ring's own.  Its remaining zeros Q_1, ..., Q_{N(n)-n-d1} close the
divisor class relation

    sum P_i + sum Q_i + (full branch sum) - N(n) P  ~  0,

which this module verifies through the Abel map and lattice reduction.
Repeated interpolation points are handled confluently: a k-fold point
contributes its first k derivative rows with respect to the local coordinate
x - x0, which is the deterministic realization of the generic-point limit in
the definition above.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .curve import (
    PointOnCurve,
    RingElement,
    TrigonalCurve,
    decisive_sheet,
    polyutil_mul_trunc,
)
from .divisor import frak_B, frak_B1, points_divisor
from .errors import (
    BasisExhausted,
    GeneralPositionFailure,
    RootAccountingFailure,
    SingularConfiguration,
    ValidationError,
)
from .periods import PeriodEngine
from .polyutil import Poly, deflate


def _rb_rows(curve: TrigonalCurve, count: int, max_weight: int | None = None):
    """First `count` graded R^B rows as (weight, (a, b, c)) tuples."""
    if max_weight is not None:
        rows = curve.basis_RB(max_weight).rows
        if len(rows) < count:
            raise BasisExhausted(
                f"need {count} basis elements, weight bound {max_weight} holds {len(rows)}"
            )
        return list(rows[:count])
    max_w = curve.wt_w + curve.wt_y + 3 * count + 3
    rows = curve.basis_RB(max_w).rows
    while len(rows) < count:
        max_w *= 2
        rows = curve.basis_RB(max_w).rows
    return list(rows[:count])


def _group_points(points) -> list[tuple[PointOnCurve, int]]:
    """Cluster coincident points, preserving first-occurrence order."""
    tol = mp.mpf(10) ** (-(mp.mp.dps // 2))
    groups: list[list] = []
    for pt in points:
        for grp in groups:
            ref = grp[0]
            if (abs(pt.x - ref.x) <= tol * (1 + abs(ref.x))
                    and abs(pt.w - ref.w) <= tol * (1 + abs(ref.w))):
                grp[1] += 1
                break
        else:
            groups.append([pt, 1])
    return [(g[0], g[1]) for g in groups]


def _binom_shift(x0, a: int, K: int) -> Poly:
    """(x0 + h)^a as a series in h truncated to K terms."""
    coeffs = []
    c = mp.mpc(1)
    for t in range(min(a, K - 1) + 1):
        coeffs.append(c * mp.mpc(x0) ** (a - t))
        c = c * (a - t) / (t + 1)
    return Poly(coeffs)


def _rows_matrix(curve: TrigonalCurve, groups, codes) -> list[list]:
    """Evaluation rows, one block of derivative rows per confluent group."""
    ncols = len(codes)
    out = []
    for pt, k in groups:
        if k == 1:
            row = []
            for _, (a, b, c) in codes:
                v = mp.mpc(pt.x) ** a
                if b:
                    v *= pt.w
                if c:
                    v *= pt.y
                row.append(v)
            out.append(row)
            continue
        tol = mp.mpf(10) ** (-(mp.mp.dps // 2))
        if any(abs(pt.x - b) <= tol * (1 + abs(b)) for b in curve.branch_points_mp()):
            raise ValidationError("confluent rows need a non-branch base point")
        wser, yser = curve.local_series(pt.x, pt.w, k - 1)
        rows = [[None] * ncols for _ in range(k)]
        for j, (_, (a, b, c)) in enumerate(codes):
            ser = _binom_shift(pt.x, a, k)
            if b:
                ser = polyutil_mul_trunc(ser, wser, k)
            if c:
                ser = polyutil_mul_trunc(ser, yser, k)
            cs = list(ser.coeffs) + [mp.mpc(0)] * k
            fact = mp.mpf(1)
            for d in range(k):
                if d:
                    fact *= d
                rows[d][j] = cs[d] * fact
        out.extend(rows)
    return out


def _det_with_scale(rows) -> tuple:
    """Determinant plus a row-wise magnitude scale for singularity tests."""
    n = len(rows)
    scale = mp.mpf(1)
    for row in rows:
        m = max(abs(v) for v in row)
        if m == 0:
            return mp.mpc(0), mp.mpf(0)
        scale *= m
    return mp.det(mp.matrix(rows)), scale


def psi(curve: TrigonalCurve, points, max_weight: int | None = None):
    """Interpolation determinant det[f_j(P_i)] over the graded R^B basis.

    Repeated points contribute successive derivative rows in the local
    coordinate; with a branch point among the inputs the value is exactly 0
    (every basis element vanishes there).
    """
    n = len(points)
    if n < 1:
        raise ValidationError("psi needs at least one point")
    codes = _rb_rows(curve, n, max_weight)
    rows = _rows_matrix(curve, _group_points(points), codes)
    det, _ = _det_with_scale(rows)
    return det


@dataclass
class MuFunction:
    """Monic weight-N(n) interpolation element of R^B.

    coefficients holds mu_{n,0}, ..., mu_{n,n} (the last is exactly 1) over
    the graded basis rows codes; element is the expansion
    f_n + sum_k (-1)^{n-k} mu_{n,k} f_k as a RingElement.
    """

    n: int
    order: int
    coefficients: tuple
    codes: tuple
    element: RingElement


def mu_coefficients(curve: TrigonalCurve, points) -> MuFunction:
    """Expansion coefficients of mu_n from Cramer minors of the point matrix."""
    n = len(points)
    if n < 1:
        raise ValidationError("mu needs at least one interpolation point")
    codes = _rb_rows(curve, n + 1)
    rows = _rows_matrix(curve, _group_points(points), codes)
    if len(rows) != n:
        raise ValidationError("confluent row count disagrees with point count")
    minors = []
    for k in range(n + 1):
        sub = [[row[j] for j in range(n + 1) if j != k] for row in rows]
        det, scale = _det_with_scale(sub)
        minors.append((det, scale))
    psi_n, scale_n = minors[n]
    if scale_n == 0 or abs(psi_n) <= mp.mpf(10) ** (-(mp.mp.dps // 2)) * scale_n:
        raise SingularConfiguration(
            f"|psi_n| = {mp.nstr(abs(psi_n), 5)} below the general-position floor"
        )
    mus = [minors[k][0] / psi_n for k in range(n)] + [mp.mpc(1)]
    element = curve.element()
    for k, (_, code) in enumerate(codes):
        element = element + curve.monomial(*code).scale(mp.mpc(-1) ** (n - k) * mus[k])
    return MuFunction(
        n=n,
        order=codes[n][0],
        coefficients=tuple(mus),
        codes=tuple(codes),
        element=element,
    )


def mu(curve: TrigonalCurve, points, Q: PointOnCurve):
    """mu_n at Q as a direct determinant ratio (exact 0 at repeated inputs)."""
    n = len(points)
    if n < 1:
        raise ValidationError("mu needs at least one interpolation point")
    codes = _rb_rows(curve, n + 1)
    rows = _rows_matrix(curve, _group_points(points), codes)
    (qrow,) = _rows_matrix(curve, [(Q, 1)], codes)
    num, _ = _det_with_scale(rows + [qrow])
    den, scale = _det_with_scale([row[:n] for row in rows])
    if scale == 0 or abs(den) <= mp.mpf(10) ** (-(mp.mp.dps // 2)) * scale:
        raise SingularConfiguration("psi_n vanishes at the interpolation points")
    return num / den


def mu_divisor_check(engine: PeriodEngine, points) -> dict:
    """Locate the complementary zeros of mu_n and verify its divisor class.

    The norm polynomial of mu_n has degree N(n): its roots are the base
    x-coordinates of all zeros of mu_n across the three sheets.  One copy of
    every input point and one copy of every branch point is removed from the
    root multiset; the leftovers are lifted back to the curve by picking the
    sheet on which mu_n actually vanishes.  The report carries the Abel-sum
    lattice residual of (inputs + leftovers + full branch sum - N(n) P) and
    of the equivalent signed class relation.
    """
    curve = engine.curve
    config = engine.config
    n = len(points)
    if n < 1:
        raise ValidationError("mu_divisor_check needs at least one point")
    with mp.workdps(config.working_dps):
        mufn = mu_coefficients(curve, points)
        N = mufn.order
        d1 = curve.s + curve.r
        norm = mufn.element.norm_poly()
        if len(norm.coeffs) != N + 1:
            raise RootAccountingFailure(
                f"norm polynomial degree {len(norm.coeffs) - 1}, expected {N}"
            )
        match_tol = mp.mpf(10) ** (-(mp.mp.dps // 3))
        coeffs = [mp.mpc(c) for c in norm.coeffs]

        def deflate_known(x0):
            # divide by (x - x0) in place; repeated inputs and branch points
            # are known roots, so the numeric root finder below only ever
            # sees the (generically simple) complementary zeros
            nonlocal coeffs
            x0 = mp.mpc(x0)
            quotient, residue = deflate(coeffs, x0)
            scale = sum(abs(c) * abs(x0) ** k for k, c in enumerate(coeffs))
            if abs(residue) > match_tol * (1 + scale):
                raise RootAccountingFailure(
                    f"norm does not vanish at known root {mp.nstr(mp.mpc(x0), 8)}"
                    f" (residue {mp.nstr(abs(residue), 3)})"
                )
            coeffs = quotient

        for pt in points:
            deflate_known(pt.x)
        branch = curve.branch_points_mp()
        for b0 in branch:
            deflate_known(b0)
        expected_extra = N - n - d1
        if len(coeffs) - 1 != expected_extra:
            raise RootAccountingFailure(
                f"{len(coeffs) - 1} leftover roots, expected {expected_extra}"
            )
        roots = (
            mp.polyroots(list(reversed(coeffs)), maxsteps=300, extraprec=80)
            if expected_extra
            else []
        )

        q_points = []
        q_branch = []
        for x0 in roots:
            bdists = [abs(x0 - b) for b in branch]
            ib = min(range(len(branch)), key=lambda i: bdists[i]) if branch else None
            if ib is not None and bdists[ib] <= match_tol * (1 + abs(x0)):
                q_branch.append(ib)
                continue
            cands = [curve.point(x0, sheet=k) for k in range(3)]
            k = decisive_sheet([abs(mufn.element.evaluate(c)) for c in cands])
            if k is None:
                raise GeneralPositionFailure(
                    f"no decisive vanishing sheet over x = {mp.nstr(mp.mpc(x0), 8)}"
                )
            q_points.append(cands[k])

        # every zero of mu_n off the full branch sum: the inputs and the leftovers
        q_b = [0] * curve.n_branch
        for ib in q_branch:
            q_b[ib] += 1
        vPQ = engine.abel_divisor(points_divisor(curve, list(points) + q_points, q_b))
        vB1 = engine.abel_divisor(frak_B1(curve))
        red = engine.lattice_reduce([a + b for a, b in zip(vPQ, vB1)])

        # class relation: (sum P + B-sum) - (n+d0)P ~ -[(sum Q + B-sum) + ...]
        vfB = engine.abel_divisor(frak_B(curve))
        red2 = engine.lattice_reduce([a + 2 * b for a, b in zip(vPQ, vfB)])

        report = {
            "n": n,
            "order": N,
            "d1": d1,
            "complementary_count": expected_extra,
            "q_points": [
                {"x": mp.nstr(mp.mpc(pt.x), 12), "sheet": pt.sheet} for pt in q_points
            ] + [{"branch_index": ib} for ib in q_branch],
            "abel_residual": red.dist,
            "class_residual": red2.dist,
            "ok": bool(red.dist <= config.lattice_tol and red2.dist <= config.lattice_tol),
        }
    return report
