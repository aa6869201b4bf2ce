"""Exception types shared across the package."""


class HTFoliationError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HTFoliationError, ValueError):
    """Operands live in different ambient dimensions or generator counts."""


class DegenerateFrameError(HTFoliationError, ValueError):
    """A spanning block of a model falls short of its rank at a point, so
    no adapted frame can be built there."""


class InvalidModelError(HTFoliationError, ValueError):
    """A model violates a structural precondition of the requested operation."""


class UnsupportedBackendError(HTFoliationError, ValueError):
    """The operation is not defined on this chart/backend (e.g. spectra on
    noncompact group models)."""


class NotApplicableError(HTFoliationError, ValueError):
    """The hypothesis of a theorem-backed check excludes this model
    (e.g. Einstein constants need vertical rank at least 2)."""


class BoundNotApplicableError(HTFoliationError, ValueError):
    """Closed-form bound evaluated outside its hypotheses (e.g. K <= 0)."""


class SizeLimitError(HTFoliationError, ValueError):
    """The request exceeds a fixed size limit of the package (e.g. a
    spectrum degree whose space of homogeneous polynomials is too large)."""
