"""Exception hierarchy for the trigjac package.

Validation errors (bad input) are distinguished from verification errors
(a mathematical identity failed at the requested tolerance) and precision
errors (the working precision could not support the request); the CLI maps
these onto distinct exit codes.
"""


class TrigjacError(Exception):
    """Base class for all package errors."""


class ValidationError(TrigjacError, ValueError):
    """Input violates a documented precondition."""


class DegenerateBranching(ValidationError):
    """Branch points are not pairwise distinct."""


class NotTotallyRamified(ValidationError):
    """3 divides s + 2r, so the place over infinity is not totally ramified."""


class SemigroupMismatch(ValidationError):
    """Computed gap count disagrees with the family formula g = r + s - 1."""


class UnsupportedSupport(ValidationError):
    """Divisor operation requested on support it does not handle."""


class NonZeroDegree(ValidationError):
    """Linear-equivalence test requested for a divisor of nonzero degree."""


class VerificationError(TrigjacError):
    """A mathematical identity failed beyond the configured tolerance."""


class RootAccountingFailure(VerificationError):
    """The zeros or poles of a function could not be accounted for.

    Raised when a known root is missing from a norm or denominator
    polynomial, when the remaining roots do not converge or cannot be lifted
    to the curve, and when their count disagrees with the expected divisor.
    """


class GeneralPositionFailure(VerificationError):
    """Sample points are too degenerate for a determinant construction."""


class SingularConfiguration(VerificationError):
    """Interpolation points fail the general-position determinant test."""


class NoCandidate(VerificationError):
    """The half-period offset derived from the automorphism fails Riemann vanishing."""


class NotHalfPeriod(VerificationError):
    """Twice the shifted constant is not a lattice vector at tolerance."""


class PrecisionError(TrigjacError):
    """Numerical result cannot be certified at the working precision."""


class PrecisionLoss(PrecisionError):
    """Residuals stayed above tolerance after one precision escalation."""


class RankDeficient(TrigjacError):
    """Candidate cycles span less than a full-rank unimodular symplectic lattice."""


class PathCrossesBranchPoint(TrigjacError):
    """An integration chord passes through a branch root."""
