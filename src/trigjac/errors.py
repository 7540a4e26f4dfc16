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
    """Zeros of a determinant element could not be matched to the expected divisor."""


class GeneralPositionFailure(VerificationError):
    """Sample points are too degenerate for a determinant construction."""


class SingularConfiguration(VerificationError):
    """Interpolation points fail the general-position determinant test."""


class BasisExhausted(TrigjacError):
    """A graded basis truncated at some weight has too few elements."""


class NoCandidate(VerificationError):
    """No half-period translate of the base vector lies on the theta divisor."""


class AmbiguousCandidate(VerificationError):
    """Several half-period translates survived the theta-divisor battery."""


class NotHalfPeriod(VerificationError):
    """Twice the shifted constant is not a lattice vector at tolerance."""


class TheoremCheckFailed(VerificationError):
    """A named end-to-end verification sub-check exceeded its tolerance."""


class PrecisionError(TrigjacError):
    """Numerical result cannot be certified at the working precision."""


class PrecisionLoss(PrecisionError):
    """Residuals stayed above tolerance after one precision escalation."""


class RankDeficient(TrigjacError):
    """Candidate cycles span less than a full-rank unimodular symplectic lattice."""


class PathCrossesBranchPoint(TrigjacError):
    """An integration path could not be routed away from the branch locus."""
