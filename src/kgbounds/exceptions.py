"""Exception types raised by kgbounds.

All errors derive from :class:`KGError` so callers can catch the whole
family at once.  Validation failures (bad matrix data) are kept separate
from solver failures so the CLI can map them to distinct exit codes.
"""


class KGError(Exception):
    """Base class for all kgbounds errors."""


class ParseError(KGError):
    """Raised when a model file cannot be parsed; the message names the
    offending field or line."""


class ValidationError(KGError):
    """Raised when parsed or constructed matrix data violates a structural
    requirement (asymmetry, dimension mismatch, indefiniteness)."""


class NotPositiveDefinite(ValidationError):
    """Raised when a matrix required to be positive definite is not
    (smallest eigenvalue below tolerance)."""


class DimensionMismatch(ValidationError):
    """Raised when matrix orders do not agree."""


class NotCertified(KGError):
    """Raised when G - mu*J of a valid model is not certified positive
    definite at the chosen shift, so the sign operator and the exact kappa
    pair, which need the definite pencil, do not exist: a solver failure,
    not bad matrix data."""


class ContractionNotLessThanOne(KGError):
    """Raised when an operation requires the contraction bound b < 1."""


class KappaOutOfRange(KGError):
    """Raised when a relative perturbation constant is outside [0, 1)."""


class KappaMinusNotAboveMinusOne(KGError):
    """Raised when the lower form bound is <= -1, so the perturbed form is
    not positive definite and no rescaling can repair it."""


class AlphaOutOfRange(KGError):
    """Raised when the oscillator field strength is outside the range where
    the closed-form eigenvalues exist (0 <= alpha < 1)."""
