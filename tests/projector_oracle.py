"""Projector matrices: the slow second form of a rank-1 proposition, kept as a
test oracle for the frame path.

A measurement basis holds its outcomes as the columns of a unitary frame.
Here each outcome is instead the d×d projector onto its column, with the
Born rule, collapse and commutation evaluated on those matrices, so every
frame computation in ``hilbert`` and ``stats`` can be checked against the
textbook measure-collapse-measure arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qlbench.errors import DimensionMismatchError, InvariantViolationError, QLBenchError
from qlbench.hilbert import MAX_DIM, ZERO_PROBABILITY, StateVector

HERMITIAN_TOL = 1e-12
IDEMPOTENT_TOL = 1e-10
COMMUTATOR_TOL = 1e-10
PROBABILITY_TOL = 1e-9    # slack before clamping Born values into [0, 1]


class ImpossibleOutcomeError(QLBenchError, ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True)
class Projector:
    """A Hermitian idempotent matrix; acts as a yes-no question on states."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvariantViolationError(f"projector matrix must be square, got {mat.shape}")
        if mat.shape[0] < 1 or mat.shape[0] > MAX_DIM:
            raise InvariantViolationError(f"dimension {mat.shape[0]} outside [1, {MAX_DIM}]")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise InvariantViolationError("matrix is not Hermitian")
        if np.max(np.abs(mat @ mat - mat)) > IDEMPOTENT_TOL:
            raise InvariantViolationError("matrix is not idempotent")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    @classmethod
    def onto(cls, vector) -> Projector:
        """Rank-1 projector onto the ray spanned by ``vector`` (normalized first)."""
        v = StateVector.normalized(vector).amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def identity(cls, dim: int) -> Projector:
        return cls(np.eye(dim, dtype=complex))


def projectors(basis) -> tuple[Projector, ...]:
    """The rank-1 projectors onto a basis's frame columns, in outcome order."""
    return tuple(Projector(np.outer(f, f.conj())) for f in basis.frame.T)


def _require_same_dim(a_dim: int, b_dim: int) -> None:
    if a_dim != b_dim:
        raise DimensionMismatchError(f"dimension mismatch: {a_dim} vs {b_dim}")


def born_probability(state: StateVector, proj: Projector, *, tol: float = PROBABILITY_TOL) -> float:
    """Probability <psi|P|psi> of the yes outcome, clamped into [0, 1]."""
    _require_same_dim(state.dim, proj.dim)
    raw = float(np.vdot(state.amplitudes, proj.matrix @ state.amplitudes).real)
    if raw < -tol or raw > 1.0 + tol:
        raise InvariantViolationError(f"expectation {raw!r} outside [0, 1]")
    return min(1.0, max(0.0, raw))


def collapse(state: StateVector, proj: Projector, *, zero_tol: float = ZERO_PROBABILITY) -> StateVector:
    """Project-and-renormalize: P|psi> / ||P|psi>||; refuses a zero-probability outcome."""
    _require_same_dim(state.dim, proj.dim)
    projected = proj.matrix @ state.amplitudes
    weight = float(np.vdot(projected, projected).real)
    if weight <= zero_tol:
        raise ImpossibleOutcomeError(
            f"impossible outcome: probability {weight!r} <= {zero_tol!r}"
        )
    return StateVector(projected / math.sqrt(weight))


def commutes(a: Projector, b: Projector, tol: float = COMMUTATOR_TOL) -> bool:
    """True iff the largest entry of AB - BA is at most ``tol``."""
    _require_same_dim(a.dim, b.dim)
    commutator = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(commutator))) <= tol


def projector_principal_vector(proj: Projector) -> np.ndarray:
    """Unit vector spanning a rank-1 projector's range: its largest-diagonal
    column, normalized, so the largest-magnitude component is real and positive."""
    if proj.rank != 1:
        raise ValueError(f"rank-1 projector required, got rank {proj.rank}")
    diag = np.real(np.diag(proj.matrix))
    j = int(np.argmax(diag))
    return proj.matrix[:, j] / math.sqrt(diag[j])
