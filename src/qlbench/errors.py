"""Shared exception types."""


class QLBenchError(Exception):
    """Base class for all workbench errors."""


class DimensionMismatchError(QLBenchError, ValueError):
    """Operands live in spaces of different dimension."""


class InvariantViolationError(QLBenchError, ValueError):
    """A value failed its construction invariant.

    ``part`` names the offending part of a ray family, as a tuple such as
    ``("ray", 3, 0)``, so that the ray-family reader can point at the line
    that declared it; ``RayFamily.from_vectors`` is the only entry that sets
    it.
    """

    def __init__(self, message: str = "", part: tuple | None = None) -> None:
        super().__init__(message)
        self.part = part


class PreconditionError(QLBenchError, ValueError):
    """An operation was called outside its stated precondition."""
