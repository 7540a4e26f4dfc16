"""Pointed cyclic trigonal curves with non-symmetric Weierstrass semigroups.

The package realizes, at desk scale, the algebraic and transcendental sides
of the curve family

    w^3 = A(x) B(x)^2,   deg A = s,  deg B = r,  3 does not divide s + 2r,

with its marked point P at infinity: exact semigroup and graded-ring
combinatorics, exact divisor identities, numerically certified period
matrices and Abel maps at arbitrary precision, Riemann theta functions with
characteristics, interpolation determinants, and the half-period shift of
the Riemann constant together with its verification battery.
"""

from .config import DEFAULT_CONFIG, RunConfig
from .curve import PointOnCurve, TrigonalCurve, roots_of_poly
from .divisor import (
    Divisor,
    canonical_divisor,
    frak_B,
    frak_B1,
    place_B,
    place_P,
    point_divisor,
    principal_divisor,
    rr_dim,
    rr_space,
    semicanonical_D0,
    verify_semicanonical,
)
from .errors import (
    PrecisionError,
    PrecisionLoss,
    TrigjacError,
    ValidationError,
    VerificationError,
)
from .fsdet import MuFunction, mu, mu_coefficients, mu_divisor_check, psi
from .periods import LatticeReduction, PeriodData, PeriodEngine
from .rconst import (
    RiemannConstant,
    ShiftedConstant,
    match_published,
    published_characteristic,
    riemann_constant,
    shifted_constant,
    verify_shifted,
)
from .semigroup import (
    Semigroup,
    family_semigroup,
    from_generators,
    gap_profile,
    is_non_symmetric_family,
    validate_family,
)
from .theta import ThetaChar, half_characteristics, theta_value

__all__ = [
    "DEFAULT_CONFIG",
    "Divisor",
    "LatticeReduction",
    "MuFunction",
    "PeriodData",
    "PeriodEngine",
    "PointOnCurve",
    "PrecisionError",
    "PrecisionLoss",
    "RiemannConstant",
    "RunConfig",
    "Semigroup",
    "ShiftedConstant",
    "ThetaChar",
    "TrigjacError",
    "TrigonalCurve",
    "ValidationError",
    "VerificationError",
    "canonical_divisor",
    "family_semigroup",
    "frak_B",
    "frak_B1",
    "from_generators",
    "gap_profile",
    "half_characteristics",
    "is_non_symmetric_family",
    "match_published",
    "mu",
    "mu_coefficients",
    "mu_divisor_check",
    "place_B",
    "place_P",
    "point_divisor",
    "principal_divisor",
    "psi",
    "published_characteristic",
    "riemann_constant",
    "roots_of_poly",
    "rr_dim",
    "rr_space",
    "semicanonical_D0",
    "shifted_constant",
    "theta_value",
    "validate_family",
    "verify_semicanonical",
    "verify_shifted",
]
