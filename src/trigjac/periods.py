"""Period matrices and Abel maps for the trigonal family.

All integration happens in the x-plane, along straight chords.  The cover is
restored analytically: w, a cube root of A*B^2 = prod (x-b)^m_b, is continued
from the start x1 of a chord to any point x on it as
w(x1) * exp(1/3 sum_b m_b Log((x-b)/(x1-b))).  Each factor runs along a
segment from 1 that never meets the cut (-inf, 0] while the chord misses b, so
the principal logs give the exact continuation without subdivision.

The Abel map of a smooth point integrates the one straight chord from the
base point x0 to it.  Such a plain chord is analytic.  It is bisected into
pieces no longer than the distance from their centre to the nearest root, and
every piece is integrated with the Gauss-Legendre rule of its own Bernstein
ellipse; a chord that grazes a root only needs more pieces, and one through a
root raises PathCrossesBranchPoint.  On a piece from a, the exact end of the
one before, of half-length h, a node gives x - b = (a - b) + h(1 + s) to full
digits however close b lies.  w is the principal cube root of A*B^2 times the
cube root of unity nearest Im log w, carried in doubles as sum_b m_b
Log(1 + u_b s)/3 about each centre c, with u_b = h/(c - b) and |u_b| <= 1/2.
Tanh-sinh quadrature serves only the chords with endpoint singularities: the
branch chords and the tail to infinity.  On a chord ending at a branch point b
the vanishing factor (x-b)^m is split off and handled in closed form, so
evaluation keeps full precision arbitrarily close to b and the integrand
exposes only the integrable power (1-u)^(m/3 - 1) that tanh-sinh absorbs.

A cycle is a lifted loop word; winding around a branch point only multiplies
1/y and 1/w by a cube root of unity, so every cycle period is a small integer
linear combination of the g*(number of rays) chord integrals I[form][ray].
Abel maps from the totally ramified point over infinity reuse one tail
integral for the same reason: the lift of the planar path through sheet j
multiplies the whole reference integral by the character of j.

The period cache stores only the chord integrals, the output of the
quadrature.  The homology basis, the cycle periods and tau are re-derived from
them on load by the same assembly code the cold computation runs.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .config import DEFAULT_CONFIG, GUARD_DIGITS, QUAD_MAX_LEVEL, RunConfig
from .curve import PointOnCurve, TrigonalCurve, decisive_sheet, zeta
from .divisor import Divisor
from .errors import PathCrossesBranchPoint, PrecisionLoss, VerificationError
from .homology import (
    BaseGeometry,
    candidate_words,
    choose_base_geometry,
    intersection_matrix,
    symplectic_basis,
)
from .polyutil import root_product
from .quadrature import tanh_sinh_batch
from .theta import imag_cholesky

CACHE_FORMAT = "periods-v1"


def _mpf_to_json(x) -> list:
    # read the raw mantissa; mp.mpf(x) would re-round to the ambient precision
    sign, man, exp, bc = x._mpf_ if hasattr(x, "_mpf_") else mp.mpf(x)._mpf_
    return [int(sign), str(man), int(exp), int(bc)]


def _mpf_from_json(t) -> mp.mpf:
    sign, man, exp, bc = t
    if not (isinstance(man, str) and all(type(v) is int for v in (sign, exp, bc))):
        raise TypeError(f"not a raw-mantissa entry: {t!r}")
    return mp.mpf((sign, int(man), exp, bc))


def _mpc_to_json(z) -> list:
    return [_mpf_to_json(z.real), _mpf_to_json(z.imag)]


def _mpc_from_json(t) -> mp.mpc:
    return mp.mpc(_mpf_from_json(t[0]), _mpf_from_json(t[1]))


def _matrix_to_json(M) -> list:
    return [[_mpc_to_json(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def _matrix_from_json(rows, n_rows: int, n_cols: int) -> mp.matrix:
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise ValueError(f"matrix entry is not {n_rows} x {n_cols}")
    M = mp.matrix(n_rows, n_cols)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            M[i, j] = _mpc_from_json(v)
    return M


def _cuberoot_along(roots, mults, x1, w1):
    """The continuation x -> w(x) of w1, a cube root of the monic product at x1.

    Along a segment from x1 that misses the roots, each factor
    (x - b)/(x1 - b) traces a segment from 1 that never meets (-inf, 0].  So
    the principal logs of the factors sum to the exact argument swept, and
    one exponential gives w at any point of such a segment, with no
    subdivision.  A root of the product at x1 raises ZeroDivisionError.
    """
    factors = [(b, m, 1 / (x1 - b)) for b, m in zip(roots, mults)]

    def w_at(x):
        s = mp.mpc(0)
        for b, m, inv in factors:
            s += m * mp.log((x - b) * inv)
        return w1 * mp.exp(s / 3)

    return w_at


def _arg_sweep(mults, us, s) -> float:
    """sum_b m_b arg(1 + u_b s)/3 in doubles: how far Im log w moves from a
    piece's centre c to its node s, with u_b = h/(c - b)."""
    return sum(m * cmath.phase(1 + u * s) for m, u in zip(mults, us)) / 3


def _node_values(factors, mults, arg, zetas):
    """(A B, w) at the point whose factors x - b are given.

    w is the principal cube root of A B^2 = prod (x - b)^m, one mp log, times
    the cube root of unity whose argument lies nearest arg modulo 2 pi; a pick
    that decisive_sheet leaves undecided raises PrecisionLoss.
    """
    ab = mp.fprod(factors)
    log_w = mp.log(ab * mp.fprod(f for f, m in zip(factors, mults) if m == 2)) / 3
    base = float(log_w.imag) - arg
    dists = [abs(math.remainder(base + 2 * math.pi * k / 3, 2 * math.pi)) for k in range(3)]
    k = decisive_sheet(dists)
    if k is None:
        raise PrecisionLoss(f"no cube root of unity continues w: angle offsets {dists}")
    return ab, zetas[k] * mp.exp(log_w)


def _form_values(forms, x, w, ab, dx) -> list:
    """The integrands x^a w/(A B) dx and x^a dx/w of the forms at one point."""
    y_factor = w / ab * dx
    w_factor = dx / w
    xpow = {}
    vals = []
    for a, kind in forms:
        xa = xpow.get(a)
        if xa is None:
            xa = xpow[a] = x**a
        vals.append(xa * (y_factor if kind == "y" else w_factor))
    return vals


_RHO_MARGIN = mp.mpf("1.25")  # absorbs the constant of the O(rho^(-2n)) bound
_GL_RULES: dict[tuple[int, int], list] = {}


def _piece_rule(roots, c, h) -> list:
    """(node, weight) pairs on [-1, 1] for the chord piece c + h*[-1, 1].

    A root b at z = (b - c)/h lies on the Bernstein ellipse of parameter
    |z + sqrt(z-1) sqrt(z+1)|; inside the smallest, of parameter rho, an
    n-node rule errs by O(rho^(-2n)) (Trefethen, Approximation Theory and
    Approximation Practice, 2013, Thm. 19.3).  n is the least multiple of 8
    with (rho/1.25)^(-2n) <= 10^-dps; rules are cached per (prec, n).
    """
    rho = min(abs(z + mp.sqrt(z - 1) * mp.sqrt(z + 1)) for z in ((b - c) / h for b in roots))
    n = 8 * int(mp.ceil(mp.mp.dps * mp.ln10 / (16 * mp.log(rho / _RHO_MARGIN))))
    key = (mp.mp.prec, n)
    if key not in _GL_RULES:
        X, W = mp.gauss_quadrature(n, "legendre")
        _GL_RULES[key] = list(zip(X, W))
    return _GL_RULES[key]


def _split_chord(roots, x1, x2) -> list[tuple]:
    """Pieces (start, half-length) of [x1, x2] in order from x1.

    Bisects until each piece is no longer than the distance from its centre
    to the nearest root; each starts at the exact end of the one before.  A
    root on the chord defeats every bisection next to it, so the depth is
    capped at the binary precision, where midpoints stop being distinct.
    """
    pieces = []
    stack = [(x1, x2, 0)] if x1 != x2 else []
    while stack:
        a, b, depth = stack.pop()
        c = (a + b) / 2
        if abs(b - a) <= min(abs(c - r) for r in roots):
            pieces.append((a, (b - a) / 2))
            continue
        if depth >= mp.mp.prec:
            raise PathCrossesBranchPoint("chord passes through a branch root")
        stack.append((c, b, depth + 1))
        stack.append((a, c, depth + 1))
    return pieces


@dataclass
class LatticeReduction:
    m: tuple
    n: tuple
    residual: tuple
    dist: object


@dataclass
class PeriodData:
    """The chord integrals of one geometry and what is assembled from them."""

    fingerprint: str
    precision: int
    geo: BaseGeometry
    swapped: bool
    segment_integrals: mp.matrix  # g x n_rays, chord integrals on reference lift
    tail_integrals: list          # g, from x0 out to the point over infinity
    omega_alpha: mp.matrix
    tau: mp.matrix
    diagnostics: dict


def _character(kind: str, k: int):
    # sheet shift j multiplies 1/y by zeta^j and 1/w by zeta^(-j)
    return zeta(k) if kind == "y" else zeta(-k)


class PeriodEngine:
    """Computes and serves periods, tau, and Abel maps for one curve."""

    def __init__(self, curve: TrigonalCurve, config: RunConfig = DEFAULT_CONFIG):
        self.curve = curve
        self.config = config
        self.forms = curve.holomorphic_form_codes()
        self.data: PeriodData | None = None
        # orders of A*B^2 at the roots
        self._mults = [curve.branch_exponent(i) for i in range(curve.n_branch)]

    @property
    def _roots(self) -> list:
        """The branch roots, rounded to the ambient precision at each read."""
        return self.curve.branch_points_mp()

    # -- infrastructure -------------------------------------------------

    def cache_key(self) -> str:
        ident = f"{CACHE_FORMAT}|{self.curve.fingerprint()}"
        return hashlib.sha256(ident.encode()).hexdigest()[:20]

    def _cache_path(self):
        """One file per curve and asked precision.

        A run that escalates stores its escalated entry under the precision
        it was asked for, so the next run at that precision finds it.
        """
        if self.config.cache_dir is None:
            return None
        name = f"periods_{self.cache_key()}_p{self.config.precision}.json"
        return os.path.join(self.config.cache_dir, name)

    # -- integrals ------------------------------------------------------

    def _w0_at(self, x):
        return mp.exp(mp.log(root_product(self._roots, x, self._mults)) / 3)

    def _branch_segment(self, geo: BaseGeometry, pos: int):
        """Chord integrals from x0 to ray pos for all g forms."""
        bidx = geo.order[pos]
        roots = self._roots
        b = roots[bidx]
        m = geo.m[pos]
        x0 = mp.mpc(geo.x0)
        d = b - x0
        h_roots = [rt for i, rt in enumerate(roots) if i != bidx]
        h_mults = [mu for i, mu in enumerate(self._mults) if i != bidx]
        h0 = mp.exp(mp.log(root_product(h_roots, x0, h_mults)) / 3)
        C = self._w0_at(x0) / h0
        h_at = _cuberoot_along(h_roots, h_mults, x0, h0)
        forms = self.forms
        third = mp.mpf(m) / 3

        def eval_batch(nodes):
            out = []
            for u, comp in nodes:
                # (x - b)^m is split off as (-d * comp)^m, so w and A*B keep
                # full precision arbitrarily close to b
                x = b - d * comp if comp < mp.mpf("0.5") else x0 + d * u
                w = C * h_at(x) * comp**third
                ab = -d * comp * root_product(h_roots, x)
                out.append(_form_values(forms, x, w, ab, d))
            return out

        return tanh_sinh_batch(
            eval_batch,
            len(forms),
            self.config.quad_tol,
            QUAD_MAX_LEVEL,
            sing_order=mp.mpf(2) / 3,
        )

    def _tail_segment(self, geo: BaseGeometry):
        """Integrals from x0 out to the point over infinity along the tail ray."""
        x0 = mp.mpc(geo.x0)
        d = mp.mpc(geo.tail_dir) * (2 * geo.scale)
        roots = self._roots
        w_at = _cuberoot_along(roots, self._mults, x0, self._w0_at(x0))
        forms = self.forms

        def eval_batch(nodes):
            out = []
            for u, comp in nodes:
                x = x0 + d * (1 - comp) / comp
                w = w_at(x)
                ab = root_product(roots, x)
                out.append(_form_values(forms, x, w, ab, d / comp**2))
            return out

        return tanh_sinh_batch(
            eval_batch,
            len(forms),
            self.config.quad_tol,
            QUAD_MAX_LEVEL,
            sing_order=mp.mpf(2) / 3,
        )

    def _plain_segment(self, x1, w1, x2):
        """Integrals along a chord avoiding branch roots; returns (vals, w at x2).

        The chord is split into root-clear pieces, each integrated with the
        Gauss-Legendre rule of its own Bernstein ellipse in piece-local
        factors; arg carries Im log w from piece to piece.
        """
        roots, mults, forms = self._roots, self._mults, self.forms
        zetas = [zeta(k) for k in range(3)]
        totals = [mp.mpc(0)] * len(forms)
        arg = float(mp.arg(w1))
        for a, h in _split_chord(roots, x1, x2):
            c = a + h
            us = [complex(h / (c - b)) for b in roots]
            starts = [a - b for b in roots]
            arg -= _arg_sweep(mults, us, -1)  # from the piece's start to c
            for s, wt in _piece_rule(roots, c, h):
                t = h * (1 + s)
                ab, w = _node_values([f + t for f in starts], mults,
                                     arg + _arg_sweep(mults, us, float(s)), zetas)
                vals = _form_values(forms, a + t, w, ab, h * wt)
                totals = [v0 + v for v0, v in zip(totals, vals)]
            arg += _arg_sweep(mults, us, 1)  # from c to the piece's end
        if x1 == x2:
            return totals, w1
        return totals, _node_values([x2 - b for b in roots], mults, arg, zetas)[1]

    # -- main computation -------------------------------------------------

    def compute(self) -> PeriodData:
        if self.data is not None:
            return self.data
        path = self._cache_path()
        if path is not None and os.path.exists(path):
            data = self._load(path)
            if data is not None:
                self.data = data
                return data
        try:
            data = self._compute_once(self.config)
        except PrecisionLoss:
            data = self._compute_once(self.config.escalated())
        self.data = data
        if path is not None:
            self._store(path, data)
        return data

    def _store(self, path, data: PeriodData) -> None:
        """Write the cache file whole or not at all: a temp file, then os.replace.

        A crash or a concurrent run can then leave only the previous file or
        the new one at path, never a truncated one.
        """
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".periods_", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._dump(data), fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _compute_once(self, config: RunConfig) -> PeriodData:
        with mp.workdps(config.working_dps):
            geo = self._geometry()
            return self._assemble(geo, *self._chord_integrals(geo), config.precision)

    def _geometry(self) -> BaseGeometry:
        return choose_base_geometry([complex(b) for b in self._roots], self._mults)

    def _chord_integrals(self, geo: BaseGeometry) -> tuple:
        """The quadrature step: (I, tail, diagnostics) of the branch and tail chords.

        I[form][ray] integrates from x0 to the branch point of each ray; tail
        integrates from x0 out to the point over infinity.
        """
        results = [self._branch_segment(geo, pos) for pos in range(len(geo.order))]
        results.append(self._tail_segment(geo))
        diagnostics = {
            "quad_levels": [res.level for res in results],
            "quad_delta_max": max(res.last_delta for res in results),
        }
        I = mp.matrix([res.values for res in results[:-1]]).T
        return I, results[-1].values, diagnostics

    def _assemble(self, geo: BaseGeometry, I, tail: list, diagnostics: dict,
                  precision: int) -> PeriodData:
        """Everything else, from the chord integrals at the ambient precision.

        Builds the loop words, their intersection matrix and a symplectic
        basis, sums the cycle periods from I, and normalizes them to tau,
        swapping each (a_i, b_i) pair if Im tau is indefinite.  The cold path
        and the cache loader both call this, so a reload gives the same bits.
        """
        g = self.curve.genus
        words = candidate_words(geo.m)
        rows, _ = symplectic_basis(intersection_matrix(words, geo.m), g)

        cand = mp.matrix(g, len(words))
        for c, word in enumerate(words):
            ks = word.sheets(geo.m)
            for l in range(g):
                a, kind = self.forms[l]
                total = mp.mpc(0)
                for t, (ray, _e) in enumerate(word.letters):
                    chi = _character(kind, ks[t]) - _character(kind, ks[t + 1])
                    total += chi * I[l, ray]
                cand[l, c] = total

        def cycle_periods(basis_rows):
            # basis rows alternate a_1, b_1, a_2, ...; each is a word combination
            om = (mp.matrix(g, g), mp.matrix(g, g))
            for r, row in enumerate(basis_rows):
                for l in range(g):
                    v = mp.mpc(0)
                    for c, k in enumerate(row):
                        if k:
                            v += k * cand[l, c]
                    om[r % 2][l, r // 2] = v
            return om

        omega_alpha, omega_beta = cycle_periods(rows)
        normal = self._normalize(omega_alpha, omega_beta)
        swapped = False
        if normal is None:
            # intersection orientation opposite to the analytic one: swap
            # each (a_i, b_i) pair, a valid symplectic basis again
            rows = [rows[t ^ 1] for t in range(len(rows))]
            omega_alpha, omega_beta = cycle_periods(rows)
            normal = self._normalize(omega_alpha, omega_beta)
            swapped = True
            if normal is None:
                raise PrecisionLoss("Im tau indefinite under both orientations")
        tau, eigs = normal

        asym = max(abs(tau[i, j] - tau[j, i]) for i in range(g) for j in range(g))
        scale = max(1, mp.mnorm(tau, "inf"))
        if asym / scale > mp.mpf(10) ** (-(precision - 10)):
            raise PrecisionLoss(f"tau asymmetry {mp.nstr(asym, 5)}")

        return PeriodData(
            fingerprint=self.curve.fingerprint(),
            precision=precision,
            geo=geo,
            swapped=swapped,
            segment_integrals=I,
            tail_integrals=tail,
            omega_alpha=omega_alpha,
            tau=tau,
            diagnostics=dict(diagnostics, tau_asym=asym, imtau_min_eig=min(eigs)),
        )

    @staticmethod
    def _normalize(omega_alpha, omega_beta):
        """(tau, eigenvalues of Im tau) for tau = omega_alpha^-1 omega_beta, or
        None if Im tau is not positive definite."""
        try:
            tau = omega_alpha**-1 * omega_beta
        except ZeroDivisionError as exc:
            raise PrecisionLoss("alpha-period matrix is singular") from exc
        try:
            Y, _ = imag_cholesky(tau)
        except PrecisionLoss:
            return None
        return tau, mp.eigsy(Y, eigvals_only=True)

    # -- derived quantities ----------------------------------------------

    def _normalized(self, raw: list) -> list:
        data = self.compute()
        col = mp.matrix(len(raw), 1)
        for i, v in enumerate(raw):
            col[i, 0] = v
        out = mp.lu_solve(data.omega_alpha, col)
        # lu_solve carries guard bits past the ambient precision; rounding
        # here gives every Abel value a working-precision mantissa, so a sum
        # of them comes out the same however it is assembled
        return [+out[i, 0] for i in range(len(raw))]

    def abel_branch(self, i: int) -> list:
        """Normalized Abel map of the i-th branch point, based at infinity."""
        data = self.compute()
        with mp.workdps(self.config.working_dps):
            pos = data.geo.order.index(i)
            g = self.curve.genus
            raw = [
                -data.tail_integrals[l] + data.segment_integrals[l, pos]
                for l in range(g)
            ]
            return self._normalized(raw)

    def abel_point(self, pt: PointOnCurve) -> list:
        """Normalized Abel map of a smooth affine point, based at infinity."""
        data = self.compute()
        g = self.curve.genus
        with mp.workdps(self.config.working_dps):
            # the straight chord from x0; _split_chord keeps it clear of roots
            x0 = mp.mpc(data.geo.x0)
            totals, w_end = self._plain_segment(x0, self._w0_at(x0), mp.mpc(pt.x))
            # identify the sheet shift of the requested lift
            dists = [abs(pt.w - zeta(k) * w_end) for k in range(3)]
            # sheets are separated by |w|*sqrt(3); demand a clear winner
            j = decisive_sheet(dists)
            if j is None:
                raise VerificationError(
                    f"ambiguous sheet for point: offsets {[mp.nstr(d, 5) for d in dists]}"
                )
            raw = []
            for l in range(g):
                a, kind = self.forms[l]
                raw.append(_character(kind, j) * (-data.tail_integrals[l] + totals[l]))
            return self._normalized(raw)

    def abel_divisor(self, D: Divisor) -> list:
        """Normalized Abel map of a divisor, based at infinity (P maps to 0)."""
        g = self.curve.genus
        with mp.workdps(self.config.working_dps):
            total = [mp.mpc(0)] * g
            for i, c in enumerate(D.b):
                if c:
                    v = self.abel_branch(i)
                    for l in range(g):
                        total[l] += c * v[l]
            for pt, mult in D.generic:
                v = self.abel_point(pt)
                for l in range(g):
                    total[l] += mult * v[l]
            return total

    def lattice_reduce(self, v: Sequence) -> LatticeReduction:
        """Reduce a normalized vector modulo Z^g + tau Z^g."""
        data = self.compute()
        g = self.curve.genus
        with mp.workdps(self.config.working_dps):
            tau = data.tau
            Y, _ = imag_cholesky(tau)
            col = mp.matrix([mp.mpc(x).imag for x in v])
            nreal = mp.lu_solve(Y, col)
            n = [int(mp.nint(nreal[i, 0])) for i in range(g)]
            m = []
            for i in range(g):
                re = mp.mpc(v[i]).real - sum(tau[i, j].real * n[j] for j in range(g))
                m.append(int(mp.nint(re)))
            residual = []
            for i in range(g):
                residual.append(
                    mp.mpc(v[i]) - m[i] - sum(tau[i, j] * n[j] for j in range(g))
                )
            dist = max(abs(rv) for rv in residual) if residual else mp.mpf(0)
            return LatticeReduction(m=tuple(m), n=tuple(n), residual=tuple(residual), dist=dist)

    # -- serialization ----------------------------------------------------

    def _dump(self, data: PeriodData) -> dict:
        """The quadrature output only; _load re-derives everything else."""
        diag = data.diagnostics
        return {
            "format": CACHE_FORMAT,
            "fingerprint": data.fingerprint,
            "precision": data.precision,
            "segment_integrals": _matrix_to_json(data.segment_integrals),
            "tail_integrals": [_mpc_to_json(v) for v in data.tail_integrals],
            "diagnostics": {
                "quad_levels": diag["quad_levels"],
                "quad_delta_max": _mpf_to_json(diag["quad_delta_max"]),
            },
        }

    def _load(self, path) -> PeriodData | None:
        """The entry at path, re-assembled as the cold path assembles it.

        None, so that compute() recomputes and rewrites the entry, if the file
        is unreadable, of another format, curve or precision, or malformed: a
        key missing, a value of the wrong type or shape.  Only an entry at the
        asked precision, or at its escalation when the cold run escalated, is
        reused, so a warm report carries the same diagnostics as a cold one.
        """
        g = self.curve.genus
        try:
            with open(path) as fh:
                payload = json.load(fh)
            precision = payload["precision"]
            if (
                payload["format"] != CACHE_FORMAT
                or payload["fingerprint"] != self.curve.fingerprint()
                or type(precision) is not int
                or precision not in (self.config.precision,
                                     self.config.escalated().precision)
            ):
                return None
            levels = payload["diagnostics"]["quad_levels"]
            if not (isinstance(levels, list) and all(type(v) is int for v in levels)):
                return None
            # deserialization rounds to the ambient precision; restore at the
            # precision the data was computed with so the bits survive exactly
            with mp.workdps(precision + GUARD_DIGITS):
                I = _matrix_from_json(payload["segment_integrals"], g, self.curve.n_branch)
                tail = _matrix_from_json([payload["tail_integrals"]], 1, g).tolist()[0]
                delta = _mpf_from_json(payload["diagnostics"]["quad_delta_max"])
        except (OSError, KeyError, TypeError, ValueError):
            return None
        diagnostics = {"quad_levels": levels, "quad_delta_max": delta}
        with mp.workdps(precision + GUARD_DIGITS):
            try:
                return self._assemble(self._geometry(), I, tail, diagnostics, precision)
            except PrecisionLoss:
                # integrals that assemble to no Riemann matrix are recomputed
                return None
