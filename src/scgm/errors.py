"""Exception types shared across the package."""

from __future__ import annotations


class ScgmError(Exception):
    """Base class for domain errors raised by this package."""


class TableFormatError(ScgmError):
    """A table file or payload does not satisfy the format contract."""


class DuplicateCellError(TableFormatError):
    """The same cell appears more than once in a table source."""


class ZeroMassSliceError(ScgmError):
    """A parameter takes the log of an event of zero probability, or a
    conditional slice has zero mass."""


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


class InadmissibleGraphError(GraphFormatError):
    """A graph that ``graphs.validate`` finds problems in, read alone or
    against a table's variables.

    Raised as ``InadmissibleGraphError(*problems)``: ``problems`` (the
    exception's ``args``) is ``validate``'s list in its order, and the
    message joins it with "; ".  The library's functions that need an
    admissible graph raise this, so a caller reports a bad graph from one
    ``except``.
    """

    @property
    def problems(self) -> tuple:
        return self.args

    def __str__(self) -> str:
        return "; ".join(self.args)


class OptionError(ScgmError, ValueError):
    """A fit or search option is out of its range."""


class InfeasibleSystemError(ScgmError):
    """A constraint system admits no probability vector."""
