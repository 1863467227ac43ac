"""Exception types shared across the package."""

from __future__ import annotations


class ScgmError(Exception):
    """Base class for domain errors raised by this package."""


class TableFormatError(ScgmError):
    """A table file or payload does not satisfy the format contract."""


class DuplicateCellError(TableFormatError):
    """The same cell appears more than once in a table source."""


class ZeroCellError(ScgmError):
    """An operation needed a strictly positive probability and found zero."""


class ZeroMassSliceError(ScgmError):
    """A conditional slice was requested on an event of zero probability."""


class AllocationOrderError(ScgmError):
    """A marginal list is not ordered subset-first."""


class AllocationCoverageError(ScgmError):
    """Some effect is not contained in any listed marginal."""


class UnsupportedCodingError(ScgmError):
    """The requested operation is not defined for this logit coding."""


class StatementError(ScgmError):
    """An independence statement is malformed or out of range."""


class GraphFormatError(ScgmError):
    """A graph file or payload does not satisfy the format contract."""


class OptionError(ScgmError, ValueError):
    """A fit or search option is out of its range."""


class InfeasibleSystemError(ScgmError):
    """A constraint system admits no probability vector."""
