"""Homology of the smooth cyclic trigonal curve via lifted planar loops.

Every cycle used here is a lift of a planar loop based at a point x0 chosen
far outside the branch points.  A loop is a word of letters (i, e): travel
from x0 along a straight chord to the i-th branch point (in counterclockwise
angular order around x0), wind e in {+1, -1} times around it, and return along
a parallel chord.  Winding once around a branch point with monodromy exponent
m shifts the sheet by e*m mod 3, so a word lifts to a closed cycle iff the
total sheet shift vanishes.

Intersection numbers are computed combinatorially.  Chords of distinct rays
meet only near x0; chords of the same ray are nested by a per-letter level
offset and never meet away from x0; a chord piercing another letter's winding
circle crosses it twice with opposite signs.  What remains is the passage
through the fiber over x0 between consecutive letters: two such passages on
the same sheet cross once iff their four attachment directions interleave
around x0, with the sign of the crossing determinant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import RankDeficient, ValidationError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LoopWord:
    """letters: ((ray, e), ...) with rays in ccw order; start_sheet in 0..2."""

    letters: tuple[tuple[int, int], ...]
    start_sheet: int

    def sheets(self, m: Sequence[int]) -> tuple[int, ...]:
        """Sheet before each letter and after the last; closed iff ends equal."""
        ks = [self.start_sheet]
        for ray, e in self.letters:
            ks.append((ks[-1] + e * m[ray]) % 3)
        return tuple(ks)

    def is_closed(self, m: Sequence[int]) -> bool:
        ks = self.sheets(m)
        return ks[0] == ks[-1]


@dataclass(frozen=True)
class BaseGeometry:
    """Deterministic base point and ccw ray layout for a set of branch points.

    order[pos] is the index of the branch point served by ray pos; m[pos] is
    its monodromy exponent.  All coordinates are double precision floats, so
    the same geometry is reproduced at every working precision.
    """

    x0: complex
    order: tuple[int, ...]
    angles: tuple[float, ...]
    m: tuple[int, ...]
    tail_dir: complex
    scale: float


def seg_point_dist(a, b, p):
    """Distance from p to the segment [a, b], for complex floats or mpc."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).conjugate() * d).real / L2))
    return abs(p - (a + t * d))


def choose_base_geometry(branch_points: Sequence[complex], exponents: Sequence[int]) -> BaseGeometry:
    pts = [complex(b) for b in branch_points]
    n = len(pts)
    if n < 2:
        raise ValidationError("need at least two branch points")
    center = sum(pts) / n
    scale = max(max(abs(p - center) for p in pts), 1e-6 * (1 + abs(center)), 1e-12)
    for trial in range(400):
        phi = 2 * math.pi * ((0.17 + trial * _GOLDEN) % 1.0)
        rad = (2.3 + 0.11 * trial) * scale
        x0 = center + rad * cmath.exp(1j * phi)
        angles = [cmath.phase(p - x0) for p in pts]
        idx = sorted(range(n), key=lambda i: angles[i])
        gaps_ok = all(
            (angles[idx[(k + 1) % n]] - angles[idx[k]]) % (2 * math.pi) > 1e-2
            for k in range(n)
        )
        clear_ok = all(
            seg_point_dist(x0, pts[i], pts[j]) > 0.02 * scale
            for i in range(n)
            for j in range(n)
            if i != j
        )
        if not (gaps_ok and clear_ok):
            continue
        tail = (x0 - center) / abs(x0 - center)
        tail_ang = cmath.phase(tail)
        tail_ok = all(
            min((tail_ang - a) % (2 * math.pi), (a - tail_ang) % (2 * math.pi)) > 0.3
            for a in angles
        )
        if not tail_ok:
            continue
        return BaseGeometry(
            x0=x0,
            order=tuple(idx),
            angles=tuple(angles[i] for i in idx),
            m=tuple(int(exponents[i]) for i in idx),
            tail_dir=tail,
            scale=float(scale),
        )
    raise ValidationError("no admissible base point found")


def candidate_words(m: Sequence[int]) -> list[LoopWord]:
    """Closed words from ray pairs and consecutive triples, lifted from sheets
    0 and 1.

    The lift from sheet 2 is dependent: the three lifts of a planar cycle sum
    to zero in homology because their pushforward triples the planar class.
    Pair words alone can span a proper sublattice when all exponents coincide
    (pure r or pure s families), hence the triple words where they close.
    """
    n = len(m)
    words = []
    for i in range(n):
        for j in range(i + 1, n):
            e2 = 1 if m[i] != m[j] else -1
            for k0 in (0, 1):
                w = LoopWord(letters=((i, 1), (j, e2)), start_sheet=k0)
                assert w.is_closed(m)
                words.append(w)
    for i in range(n - 2):
        tri = (i, i + 1, i + 2)
        if (m[tri[0]] + m[tri[1]] + m[tri[2]]) % 3 == 0:
            for k0 in (0, 1):
                w = LoopWord(letters=tuple((t, 1) for t in tri), start_sheet=k0)
                assert w.is_closed(m)
                words.append(w)
    return words


def _visits(word: LoopWord, m: Sequence[int], level0: int):
    """Fiber passages at x0: (in_key, out_key, sheet) per consecutive pair.

    Letter t departs on chord key (ray, -e*level) and returns on (ray,
    +e*level); levels are distinct so all keys within a pairing differ.  The
    passage between letter t and letter t+1 (cyclically) happens on the sheet
    reached after letter t.
    """
    ks = word.sheets(m)
    L = len(word.letters)
    out = []
    for t in range(L):
        ray_t, e_t = word.letters[t]
        ray_n, e_n = word.letters[(t + 1) % L]
        in_key = (ray_t, e_t * (level0 + t))
        out_key = (ray_n, -e_n * (level0 + (t + 1) % L))
        out.append((in_key, out_key, ks[t + 1]))
    return out


def _cross_sign(a_in, a_out, b_in, b_out) -> int:
    keys = sorted([a_in, a_out, b_in, b_out])
    seq = keys.index(a_in)
    cyc = [keys[(seq + t) % 4] for t in range(1, 4)]
    if cyc == [b_in, a_out, b_out]:
        return 1
    if cyc == [b_out, a_out, b_in]:
        return -1
    return 0


def intersection_number(wa: LoopWord, wb: LoopWord, m: Sequence[int]) -> int:
    va = _visits(wa, m, level0=1)
    vb = _visits(wb, m, level0=1 + len(wa.letters))
    total = 0
    for a_in, a_out, ka in va:
        for b_in, b_out, kb in vb:
            if ka == kb:
                total += _cross_sign(a_in, a_out, b_in, b_out)
    return total


def intersection_matrix(words: Sequence[LoopWord], m: Sequence[int]) -> list[list[int]]:
    n = len(words)
    K = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = intersection_number(words[i], words[j], m)
            K[i][j] = v
            K[j][i] = -v
    return K


def symplectic_basis(K: Sequence[Sequence[int]], genus: int):
    """Integer change of basis bringing an alternating form to hyperbolic blocks.

    Returns (rows, blocks): rows is a list of 2*genus integer vectors over the
    input index set, ordered (a1, b1, a2, b2, ...), and blocks the positive
    block values M[a_i][b_i] after reduction.  All blocks must equal 1 for the
    input cycles to span the full lattice; otherwise the data only spans a
    finite-index sublattice and RankDeficient is raised.
    """
    n = len(K)
    M = [[int(K[i][j]) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(dst, src, c):
        if c == 0:
            return
        for j in range(n):
            M[dst][j] += c * M[src][j]
            U[dst][j] += c * U[src][j]
        for i in range(n):
            M[i][dst] += c * M[i][src]

    def row_swap(a, b):
        if a == b:
            return
        M[a], M[b] = M[b], M[a]
        U[a], U[b] = U[b], U[a]
        for i in range(n):
            M[i][a], M[i][b] = M[i][b], M[i][a]

    def row_neg(a):
        for j in range(n):
            M[a][j] = -M[a][j]
            U[a][j] = -U[a][j]
        for i in range(n):
            M[i][a] = -M[i][a]

    pos = 0
    blocks = []
    while pos < n:
        best = None
        for i in range(pos, n):
            for j in range(pos, n):
                v = M[i][j]
                if v != 0 and (best is None or abs(v) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        row_swap(pos, i)
        if j == pos:
            j = i
        row_swap(pos + 1, j)
        if M[pos][pos + 1] < 0:
            row_neg(pos + 1)
        d = M[pos][pos + 1]
        clean = True
        for k in range(n):
            if k in (pos, pos + 1):
                continue
            row_add(k, pos, -(M[k][pos + 1] // d))
            row_add(k, pos + 1, M[k][pos] // d)
            if M[k][pos] != 0 or M[k][pos + 1] != 0:
                clean = False
        if not clean:
            continue
        blocks.append(d)
        pos += 2

    for i in range(pos, n):
        for j in range(pos, n):
            if M[i][j] != 0:
                raise RankDeficient("reduction left residue outside blocks")
    if len(blocks) < genus:
        raise RankDeficient(
            f"cycle candidates span rank {2 * len(blocks)} < {2 * genus}"
        )
    if any(d != 1 for d in blocks[:genus]):
        raise RankDeficient(f"non-unimodular blocks {blocks}: candidates span a sublattice")
    if len(blocks) > genus:
        raise RankDeficient(
            f"form has rank {2 * len(blocks)} > expected {2 * genus}"
        )
    return [U[t] for t in range(2 * genus)], blocks
