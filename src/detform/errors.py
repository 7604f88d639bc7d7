"""Exception types shared across the package. Each class declares the exit
code the command line reports for it, so this module is the one policy
from failure to exit code. Any exception not typed here, a ValueError
included, is a bug (exit 7), never bad input.
"""


class DetformError(Exception):
    """Base class for all errors raised by this package; untyped, it is a bug."""
    exit_code = 7


class ParseError(DetformError):
    """Malformed support or coefficient file."""
    exit_code = 2


class EmptyInput(DetformError):
    """No points were supplied."""
    exit_code = 2


class DegenerateSpan(DetformError):
    """Input points do not affinely span the ambient space."""
    exit_code = 3


class UnsupportedDimension(DetformError):
    """The construction needs a 3-polytope, and the input spans another dimension."""
    exit_code = 3


class NonGenericDirection(DetformError):
    """A sweep direction produced ties and cannot order the facets."""
    exit_code = 3


class SearchTooLarge(DetformError):
    """An exhaustive search would range over too many facet subsets."""
    exit_code = 3


class NoDiskSelection(DetformError, ValueError):
    """No facet selection, or no order of one, is a disk or a partial shelling.

    Still a ValueError, so callers that catch ValueError around the
    shelling search keep working."""
    exit_code = 4


class DimensionMismatch(DetformError):
    """Computed generator counts disagree with the predicted lattice counts."""
    exit_code = 5


class InterpolationMismatch(DetformError):
    """Counting polynomial failed an out-of-sample consistency check."""
    exit_code = 5


class DegreePatternViolation(DetformError):
    """A map entry sits in a degree the block structure forbids."""
    exit_code = 5


class NotStabilized(DetformError):
    """Cohomology contributions did not vanish on the enumeration boundary."""
    exit_code = 6


class InvariantViolation(DetformError):
    """An internal invariant failed: a bug in this package, not bad input."""
