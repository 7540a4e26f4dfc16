"""Period matrices and Abel maps for the trigonal family.

All integration happens in the x-plane, along straight chords.  The cover is
restored analytically: w, a cube root of A*B^2 = prod (x-b)^m_b, is continued
from the start x1 of a chord to any point x on it as
w(x1) * exp(1/3 sum_b m_b Log((x-b)/(x1-b))).  Each factor runs along a
segment from 1 that never meets the cut (-inf, 0] while the chord misses b, so
the principal logs give the exact continuation without subdivision.

Plain chords (the Abel map of a smooth point) are analytic.  Each is bisected
into pieces no longer than the distance from their centre to the nearest
root, and every piece is integrated with one Gauss-Legendre rule whose node
count is fixed in advance by the working precision.  Tanh-sinh quadrature
serves only the chords with endpoint singularities: the branch chords and the
tail to infinity.  On a chord ending at a branch point b the vanishing factor
(x-b)^m is split off and handled in closed form, so evaluation keeps full
precision arbitrarily close to b and the integrand exposes only the
integrable power (1-u)^(m/3 - 1) that tanh-sinh absorbs.

A cycle is a lifted loop word; winding around a branch point only multiplies
1/y and 1/w by a cube root of unity, so every cycle period is a small integer
linear combination of the g*(number of rays) chord integrals I[form][ray].
Abel maps from the totally ramified point over infinity reuse one tail
integral for the same reason: the lift of the planar path through sheet j
multiplies the whole reference integral by the character of j.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

from .config import DEFAULT_CONFIG, RunConfig
from .curve import PointOnCurve, TrigonalCurve
from .divisor import Divisor
from .errors import PathCrossesBranchPoint, PrecisionLoss, VerificationError
from .homology import (
    BaseGeometry,
    LoopWord,
    candidate_words,
    choose_base_geometry,
    intersection_matrix,
    seg_point_dist,
    symplectic_basis,
)
from .quadrature import tanh_sinh_batch
from .theta import imag_cholesky

CACHE_FORMAT = "periods-v1"


def _mpf_to_json(x) -> list:
    # read the raw mantissa; mp.mpf(x) would re-round to the ambient precision
    sign, man, exp, bc = x._mpf_ if hasattr(x, "_mpf_") else mp.mpf(x)._mpf_
    return [int(sign), str(man), int(exp), int(bc)]


def _mpf_from_json(t) -> mp.mpf:
    return mp.mpf((int(t[0]), int(t[1]), int(t[2]), int(t[3])))


def _mpc_to_json(z) -> list:
    if not hasattr(z, "real"):
        z = mp.mpc(z)
    return [_mpf_to_json(z.real), _mpf_to_json(z.imag)]


def _mpc_from_json(t) -> mp.mpc:
    return mp.mpc(_mpf_from_json(t[0]), _mpf_from_json(t[1]))


def _diag_from_json(v):
    # scalar diagnostics are raw-mantissa 4-lists; quadrature level lists are ints
    if isinstance(v, list) and len(v) == 4 and isinstance(v[1], str):
        return _mpf_from_json(v)
    return v


def _matrix_to_json(M) -> list:
    return [[_mpc_to_json(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def _matrix_from_json(rows) -> mp.matrix:
    M = mp.matrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            M[i, j] = _mpc_from_json(v)
    return M


def _poly_eval_roots(roots: Sequence, x, mults: Sequence[int] | None = None):
    """Monic product prod (x - root)^mult, every mult 1 unless given; stable
    arbitrarily far from roots."""
    v = mp.mpc(1)
    for i, b in enumerate(roots):
        v *= x - b if mults is None else (x - b) ** mults[i]
    return v


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


# A chord piece no longer than the distance from its centre to the nearest
# root maps onto [-1, 1] with every root at |s| >= 2, outside the Bernstein
# ellipse of parameter rho = 2 + sqrt(3) (semi-axes 2 and sqrt(3)).  There an
# n-node Gauss-Legendre rule errs by O(rho^(-2n)).
_LOG10_RHO = math.log10(2 + math.sqrt(3))
_GL_RULES: dict[tuple[int, int], list] = {}


def _gauss_legendre_rule() -> list:
    """(node, weight) pairs on [-1, 1] with rho^(-2n) below 10^-dps.

    mpmath's rule of degree k has n = 3 * 2^(k-1) nodes; the smallest
    degree meeting the bound at the ambient dps is taken, and its nodes are
    computed once per (binary precision, degree).
    """
    degree = 1
    while 6 * 2 ** (degree - 1) * _LOG10_RHO <= mp.mp.dps:
        degree += 1
    key = (mp.mp.prec, degree)
    rule = _GL_RULES.get(key)
    if rule is None:
        rule = _GL_RULES[key] = GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)
    return rule


def _split_chord(roots, x1, x2) -> list[tuple]:
    """Pieces (centre, half-length) of [x1, x2] in order from x1.

    Bisects until each piece is no longer than the distance from its centre
    to the nearest root.  A root on the chord defeats every bisection next to
    it, so the depth is capped at the binary precision, where midpoints stop
    being distinct.
    """
    pieces = []
    stack = [(x1, x2, 0)]
    while stack:
        a, b, depth = stack.pop()
        c = (a + b) / 2
        if abs(b - a) <= min(abs(c - r) for r in roots):
            pieces.append((c, (b - a) / 2))
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
    """Everything derived from one homology/geometry computation."""

    fingerprint: str
    precision: int
    geo: BaseGeometry
    words: list[LoopWord]
    basis_rows: list[list[int]]
    swapped: bool
    segment_integrals: mp.matrix  # g x n_rays, chord integrals on reference lift
    tail_integrals: list          # g, from x0 out to the point over infinity
    omega_alpha: mp.matrix
    omega_beta: mp.matrix
    tau: mp.matrix
    diagnostics: dict


def _zeta(k: int):
    return mp.exp(2j * mp.pi * (k % 3) / 3)


def _character(kind: str, k: int):
    # sheet shift j multiplies 1/y by zeta^j and 1/w by zeta^(-j)
    return _zeta(k) if kind == "y" else _zeta(-k)


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

    def _wdps(self):
        return mp.workdps(self.config.precision + self.config.guard_digits)

    def cache_key(self) -> str:
        ident = f"{CACHE_FORMAT}|{self.curve.fingerprint()}"
        return hashlib.sha256(ident.encode()).hexdigest()[:20]

    def _cache_path(self):
        if self.config.cache_dir is None:
            return None
        return os.path.join(self.config.cache_dir, f"periods_{self.cache_key()}.json")

    # -- integrals ------------------------------------------------------

    def _w0_at(self, x):
        return mp.exp(mp.log(_poly_eval_roots(self._roots, x, self._mults)) / 3)

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
        h0 = mp.exp(mp.log(_poly_eval_roots(h_roots, x0, h_mults)) / 3)
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
                ab = -d * comp * _poly_eval_roots(h_roots, x)
                out.append(_form_values(forms, x, w, ab, d))
            return out

        return tanh_sinh_batch(
            eval_batch,
            len(forms),
            self.config.quad_tol,
            self.config.quad_max_level,
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
                ab = _poly_eval_roots(roots, x)
                out.append(_form_values(forms, x, w, ab, d / comp**2))
            return out

        return tanh_sinh_batch(
            eval_batch,
            len(forms),
            self.config.quad_tol,
            self.config.quad_max_level,
            sing_order=mp.mpf(2) / 3,
        )

    def _plain_segment(self, x1, w1, x2):
        """Integrals along a chord avoiding branch roots; returns (vals, w at x2).

        The chord is split into root-clear pieces, each integrated with one
        Gauss-Legendre rule fixed by the working precision; w is continued
        from x1 to every node directly.
        """
        roots = self._roots
        pieces = _split_chord(roots, x1, x2)
        rule = _gauss_legendre_rule()
        w_at = _cuberoot_along(roots, self._mults, x1, w1)
        totals = [mp.mpc(0)] * len(self.forms)
        for c, h in pieces:
            for s, wt in rule:
                x = c + h * s
                ab = _poly_eval_roots(roots, x)
                vals = _form_values(self.forms, x, w_at(x), ab, h * wt)
                totals = [t + v for t, v in zip(totals, vals)]
        return totals, w_at(x2)

    # -- main computation -------------------------------------------------

    def compute(self, force: bool = False) -> PeriodData:
        if self.data is not None and not force:
            return self.data
        path = self._cache_path()
        if path is not None and not force and os.path.exists(path):
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
        curve = self.curve
        g = curve.genus
        with mp.workdps(config.precision + config.guard_digits):
            geo = choose_base_geometry([complex(b) for b in self._roots], self._mults)
            words = candidate_words(geo.m)
            K = intersection_matrix(words, geo.m)
            rows, _ = symplectic_basis(K, g)

            diagnostics = {}
            n_rays = len(geo.order)
            I = mp.matrix(g, n_rays)
            max_delta = mp.mpf(0)
            levels = []
            for pos in range(n_rays):
                res = self._branch_segment(geo, pos)
                for l in range(g):
                    I[l, pos] = res.values[l]
                max_delta = max(max_delta, res.last_delta)
                levels.append(res.level)
            tail = self._tail_segment(geo)
            max_delta = max(max_delta, tail.last_delta)
            diagnostics["quad_levels"] = levels + [tail.level]
            diagnostics["quad_delta_max"] = max_delta

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
                om_a = mp.matrix(g, g)
                om_b = mp.matrix(g, g)
                for jj in range(g):
                    for l in range(g):
                        va = mp.mpc(0)
                        vb = mp.mpc(0)
                        for c in range(len(words)):
                            if basis_rows[2 * jj][c]:
                                va += basis_rows[2 * jj][c] * cand[l, c]
                            if basis_rows[2 * jj + 1][c]:
                                vb += basis_rows[2 * jj + 1][c] * cand[l, c]
                        om_a[l, jj] = va
                        om_b[l, jj] = vb
                return om_a, om_b

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

            asym = mp.mpf(0)
            for i in range(g):
                for j in range(g):
                    asym = max(asym, abs(tau[i, j] - tau[j, i]))
            scale = max(1, mp.mnorm(tau, "inf"))
            if asym / scale > mp.mpf(10) ** (-(config.precision - 10)):
                raise PrecisionLoss(f"tau asymmetry {mp.nstr(asym, 5)}")
            diagnostics["tau_asym"] = asym
            diagnostics["imtau_min_eig"] = min(eigs)

            return PeriodData(
                fingerprint=curve.fingerprint(),
                precision=config.precision,
                geo=geo,
                words=words,
                basis_rows=rows,
                swapped=swapped,
                segment_integrals=I,
                tail_integrals=tail.values,
                omega_alpha=omega_alpha,
                omega_beta=omega_beta,
                tau=tau,
                diagnostics=diagnostics,
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

    def tau(self) -> mp.matrix:
        return self.compute().tau

    def _normalized(self, raw: list) -> list:
        data = self.compute()
        col = mp.matrix(len(raw), 1)
        for i, v in enumerate(raw):
            col[i, 0] = v
        out = mp.lu_solve(data.omega_alpha, col)
        return [out[i, 0] for i in range(len(raw))]

    def abel_branch(self, i: int) -> list:
        """Normalized Abel map of the i-th branch point, based at infinity."""
        data = self.compute()
        with self._wdps():
            pos = data.geo.order.index(i)
            g = self.curve.genus
            raw = [
                -data.tail_integrals[l] + data.segment_integrals[l, pos]
                for l in range(g)
            ]
            return self._normalized(raw)

    def _plan_path(self, x_target):
        """Waypoints from x0 to x_target keeping clear of branch roots."""
        data = self.compute()
        x0 = mp.mpc(data.geo.x0)
        scale = mp.mpf(data.geo.scale)
        clearance = scale / 25
        roots = self._roots

        def ok(a, b):
            for rt in roots:
                dr = seg_point_dist(a, b, rt)
                if dr < clearance and dr < 0.9 * min(abs(rt - a), abs(rt - b)):
                    return False
            return True

        def plan(a, b, depth):
            if ok(a, b) or depth >= 8:
                if depth >= 8 and not ok(a, b):
                    raise PathCrossesBranchPoint("cannot route path around branch roots")
                return [b]
            d = b - a
            side = 1j * d / abs(d) * (scale / 2)
            best = None
            for sgn in (1, -1):
                midp = (a + b) / 2 + sgn * side
                clear = min(abs(midp - rt) for rt in roots)
                if best is None or clear > best[0]:
                    best = (clear, midp)
            midp = best[1]
            return plan(a, midp, depth + 1) + plan(midp, b, depth + 1)

        return [x0] + plan(x0, mp.mpc(x_target), 0)

    def abel_point(self, pt: PointOnCurve) -> list:
        """Normalized Abel map of a smooth affine point, based at infinity."""
        data = self.compute()
        g = self.curve.genus
        with self._wdps():
            pts = self._plan_path(pt.x)
            totals = [mp.mpc(0)] * g
            w_run = self._w0_at(pts[0])
            for a, b in zip(pts, pts[1:]):
                vals, w_run = self._plain_segment(a, w_run, b)
                for l in range(g):
                    totals[l] += vals[l]
            # identify the sheet shift of the requested lift
            zeta = mp.exp(2j * mp.pi / 3)
            dists = [abs(pt.w - zeta**k * w_run) for k in range(3)]
            order = sorted(range(3), key=lambda k: dists[k])
            # sheets are separated by |w|*sqrt(3); demand a clear winner
            if dists[order[0]] > mp.mpf("1e-6") * dists[order[1]]:
                raise VerificationError(
                    f"ambiguous sheet for point: offsets {[mp.nstr(d, 5) for d in dists]}"
                )
            j = order[0]
            raw = []
            for l in range(g):
                a, kind = self.forms[l]
                raw.append(_character(kind, j) * (-data.tail_integrals[l] + totals[l]))
            return self._normalized(raw)

    def abel_divisor(self, D: Divisor) -> list:
        """Normalized Abel map of a divisor, based at infinity (P maps to 0)."""
        g = self.curve.genus
        with self._wdps():
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
        with self._wdps():
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
        g = self.curve.genus
        return {
            "format": CACHE_FORMAT,
            "fingerprint": data.fingerprint,
            "precision": data.precision,
            "geo": {
                "x0": [data.geo.x0.real, data.geo.x0.imag],
                "order": list(data.geo.order),
                "angles": list(data.geo.angles),
                "m": list(data.geo.m),
                "tail_dir": [data.geo.tail_dir.real, data.geo.tail_dir.imag],
                "scale": data.geo.scale,
            },
            "words": [
                {"letters": [list(l) for l in w.letters], "start_sheet": w.start_sheet}
                for w in data.words
            ],
            "basis_rows": data.basis_rows,
            "swapped": data.swapped,
            "segment_integrals": _matrix_to_json(data.segment_integrals),
            "tail_integrals": [_mpc_to_json(v) for v in data.tail_integrals],
            "omega_alpha": _matrix_to_json(data.omega_alpha),
            "omega_beta": _matrix_to_json(data.omega_beta),
            "tau": _matrix_to_json(data.tau),
            "diagnostics": {k: v if isinstance(v, list) else _mpf_to_json(v)
                             for k, v in data.diagnostics.items()},
        }

    def _load(self, path) -> PeriodData | None:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if payload.get("format") != CACHE_FORMAT:
            return None
        if payload.get("fingerprint") != self.curve.fingerprint():
            return None
        if payload.get("precision", 0) < self.config.precision:
            return None
        # deserialization rounds to the ambient precision; restore at the
        # precision the data was computed with so the bits survive exactly
        with mp.workdps(int(payload["precision"]) + self.config.guard_digits):
            return self._load_payload(payload)

    def _load_payload(self, payload) -> PeriodData:
        geo = BaseGeometry(
            x0=complex(*payload["geo"]["x0"]),
            order=tuple(payload["geo"]["order"]),
            angles=tuple(payload["geo"]["angles"]),
            m=tuple(payload["geo"]["m"]),
            tail_dir=complex(*payload["geo"]["tail_dir"]),
            scale=payload["geo"]["scale"],
        )
        words = [
            LoopWord(letters=tuple(tuple(l) for l in w["letters"]), start_sheet=w["start_sheet"])
            for w in payload["words"]
        ]
        return PeriodData(
            fingerprint=payload["fingerprint"],
            precision=payload["precision"],
            geo=geo,
            words=words,
            basis_rows=[list(map(int, row)) for row in payload["basis_rows"]],
            swapped=payload["swapped"],
            segment_integrals=_matrix_from_json(payload["segment_integrals"]),
            tail_integrals=[_mpc_from_json(v) for v in payload["tail_integrals"]],
            omega_alpha=_matrix_from_json(payload["omega_alpha"]),
            omega_beta=_matrix_from_json(payload["omega_beta"]),
            tau=_matrix_from_json(payload["tau"]),
            diagnostics={k: _diag_from_json(v)
                         for k, v in payload.get("diagnostics", {}).items()},
        )
