"""Exception types shared across the package.

The CLI maps these onto exit codes: input/usage problems
(:class:`PanelFormatError`, :class:`DimensionError`, :class:`OrderError`,
:class:`DomainError`, :class:`SelectionError`) exit with 2, numerical
failures (:class:`NumericalError`, :class:`DegenerateVarianceError`)
with 3.
"""


class PanelFormatError(ValueError):
    """Raised for malformed tabular input (ragged rows, unparsable cells)."""


class DimensionError(ValueError):
    """Raised when an array has an unusable shape or size."""


class OrderError(ValueError):
    """Raised when a factor order L (or scree depth) is out of range."""


class DomainError(ValueError):
    """Raised when a scalar argument leaves its mathematical domain."""


class SelectionError(ValueError):
    """Raised when a frequency selection retains fewer than two frequencies."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra routine fails to produce a usable result."""


class DegenerateVarianceError(NumericalError):
    """Raised when a noise variance is not positive, or its square under- or overflows."""
