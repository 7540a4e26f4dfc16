"""Numerical semigroups and their gap combinatorics.

A numerical semigroup H is the set of non-negative integer combinations of a
generating set with gcd 1.  Everything here is exact integer arithmetic.

Conventions (0-based, used throughout the package):
  gaps      l_0 < l_1 < ... < l_{g-1} is the sorted gap sequence, g = genus
  alpha_i   = l_i - i - 1
  lambda_i  = alpha_{g-i} + 1 for i = 1..g (a weakly decreasing partition)
  H is symmetric  iff  2g - 1 is a gap.

The trigonal family attached to parameters (r, s) is H = <3, 2r+s, 2s+r>,
of genus r + s - 1, non-symmetric exactly when r, s >= 1 and r != s (mod 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .errors import ValidationError


@dataclass(frozen=True)
class Semigroup:
    """A numerical semigroup with its gap data precomputed."""

    generators: tuple[int, ...]
    gaps: tuple[int, ...]
    conductor: int

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def multiplicity(self) -> int:
        """Smallest positive element (a_min)."""
        return min(g for g in self.generators if g > 0)

    def __contains__(self, n: object) -> bool:
        if not isinstance(n, int):
            return False
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return n not in self._gap_set()

    def _gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    def elements_upto(self, bound: int) -> list[int]:
        """Sorted semigroup elements n with 0 <= n <= bound."""
        gap_set = self._gap_set()
        return [n for n in range(bound + 1) if n >= self.conductor or n not in gap_set]

    def is_symmetric(self) -> bool:
        return (2 * self.genus - 1) in self.gaps if self.genus > 0 else False


def from_generators(generators) -> Semigroup:
    """Build a Semigroup by sieving membership.

    The sieve runs to a provable bound: membership is closed under adding any
    generator, so once `multiplicity` consecutive members are seen every larger
    integer is a member.  For a coprime pair (a, b) among the generators the
    classical bound (a-1)(b-1) already caps the conductor; the run check makes
    the result correct for arbitrary gcd-1 generating sets.
    """
    gens = sorted({int(g) for g in generators})
    if not gens or gens[0] <= 0:
        raise ValidationError("generators must be positive integers")
    if reduce(math.gcd, gens) != 1:
        raise ValidationError("generators must have gcd 1 (finite gap set)")

    a_min = gens[0]
    bound = min(
        ((a - 1) * (b - 1) for a, b in combinations(gens, 2) if math.gcd(a, b) == 1),
        default=gens[0] * gens[-1],
    )
    while True:
        limit = bound + a_min + 1
        member = [False] * (limit + 1)
        member[0] = True
        for n in range(limit + 1):
            if not member[n]:
                continue
            for g in gens:
                if n + g <= limit:
                    member[n + g] = True
        run_start = _full_run_start(member, a_min)
        if run_start is not None:
            gaps = tuple(n for n in range(run_start) if not member[n])
            conductor = (gaps[-1] + 1) if gaps else 0
            return Semigroup(generators=tuple(gens), gaps=gaps, conductor=conductor)
        bound *= 2


def _full_run_start(member: list[bool], run: int) -> int | None:
    seen = 0
    for n, m in enumerate(member):
        seen = seen + 1 if m else 0
        if seen == run:
            return n - run + 1
    return None


@dataclass(frozen=True)
class GapProfile:
    """Gap-derived invariants: the alpha sequence and the partition lambda."""

    gaps: tuple[int, ...]
    alphas: tuple[int, ...]
    lambdas: tuple[int, ...]

    @property
    def young_rows(self) -> tuple[int, ...]:
        """Row lengths of the Young diagram (drops trailing zero rows)."""
        return tuple(x for x in self.lambdas if x > 0)


def gap_profile(H: Semigroup) -> GapProfile:
    """alpha_i = l_i - i - 1, lambda_i = alpha_{g-i} + 1 (weakly decreasing)."""
    gaps = H.gaps
    g = len(gaps)
    alphas = tuple(l - i - 1 for i, l in enumerate(gaps))
    lambdas = tuple(alphas[g - i] + 1 for i in range(1, g + 1))
    return GapProfile(gaps=gaps, alphas=alphas, lambdas=lambdas)


def conjugate_partition(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of a weakly decreasing partition."""
    if not rows:
        return ()
    return tuple(sum(1 for r in rows if r > j) for j in range(rows[0]))


def family_generators(r: int, s: int) -> tuple[int, int, int]:
    return (3, 2 * r + s, 2 * s + r)


def validate_family(r: int, s: int) -> None:
    """Check that (r, s) yields a totally ramified trigonal family member."""
    if r < 0 or s < 0 or (r, s) == (0, 0):
        raise ValidationError("need r, s >= 0 and (r, s) != (0, 0)")
    if (s + 2 * r) % 3 == 0:
        from .errors import NotTotallyRamified

        raise NotTotallyRamified(
            f"3 divides s + 2r = {s + 2 * r}: infinity is not totally ramified"
        )


def family_semigroup(r: int, s: int) -> Semigroup:
    """H = <3, 2r+s, 2s+r> for a valid (r, s); genus is r + s - 1."""
    validate_family(r, s)
    gens = [g for g in family_generators(r, s) if g > 0]
    return from_generators(gens)


def is_non_symmetric_family(r: int, s: int) -> bool:
    """True when (r, s) lies in the strictly non-symmetric range."""
    return r >= 1 and s >= 1 and (r - s) % 3 != 0
