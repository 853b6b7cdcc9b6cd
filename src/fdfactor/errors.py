"""Exception types shared across the package, under two bases.

Every class is an :class:`InputError` (the caller's input or usage) or a
:class:`NumericalError` (a numerical or degenerate-data failure).  The CLI
exits 2 on the first and 3 on the second, and the Monte Carlo harness
counts a replication raising either as failed, by its class name.
"""


class InputError(ValueError):
    """Base of every fault in the caller's input or usage."""


class PanelFormatError(InputError):
    """Raised for malformed tabular input (ragged rows, unparsable cells)."""


class DimensionError(InputError):
    """Raised when an array has an unusable shape or size."""


class OrderError(InputError):
    """Raised when a factor order L (or scree depth) is out of range."""


class DomainError(InputError):
    """Raised when a scalar argument leaves its mathematical domain."""


class SelectionError(InputError):
    """Raised when a frequency selection retains fewer than two frequencies."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra routine fails to produce a usable result."""


class DegenerateVarianceError(NumericalError):
    """Raised when a noise variance is not positive, or its square under- or overflows."""
