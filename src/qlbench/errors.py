"""Shared exception types."""


class QLBenchError(Exception):
    """Base class for all workbench errors."""


class DimensionMismatchError(QLBenchError, ValueError):
    """Operands live in spaces of different dimension."""


class InvariantViolationError(QLBenchError, ValueError):
    """A value failed its construction invariant."""


class PreconditionError(QLBenchError, ValueError):
    """An operation was called outside its stated precondition."""
