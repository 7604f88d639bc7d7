"""Exception types shared across the package."""


class DetformError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DetformError):
    """Malformed support or coefficient file."""


class EmptyInput(DetformError):
    """No points were supplied."""


class DegenerateSpan(DetformError):
    """Input points do not affinely span the ambient space."""


class UnsupportedDimension(DetformError):
    """The construction needs a 3-polytope, and the input spans another dimension."""


class DimensionMismatch(DetformError):
    """Computed generator counts disagree with the predicted lattice counts."""


class NonGenericDirection(DetformError):
    """A sweep direction produced ties and cannot order the facets."""


class InterpolationMismatch(DetformError):
    """Counting polynomial failed an out-of-sample consistency check."""


class DegreePatternViolation(DetformError):
    """A map entry sits in a degree the block structure forbids."""


class NotStabilized(DetformError):
    """Cohomology contributions did not vanish on the enumeration boundary."""


class InvariantViolation(DetformError):
    """An internal invariant failed: a bug in this package, not bad input."""
