"""States, projectors, and measurement bases on a low-dimensional complex space.

All values are immutable and every operation is a pure function, so the whole
layer is safe for unrestricted concurrent use.  Dimensions are capped at 8;
the structure of interest already appears in dimension 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    ImpossibleOutcomeError,
    InvariantViolationError,
    PreconditionError,
)

MAX_DIM = 8

NORM_TOL = 1e-12          # allowed deviation of a state's squared norm from 1
HERMITIAN_TOL = 1e-12
IDEMPOTENT_TOL = 1e-10
BASIS_TOL = 1e-10         # orthogonality / completeness of measurement bases
COMMUTATOR_TOL = 1e-10
PROBABILITY_TOL = 1e-9    # slack before clamping Born values into [0, 1]
ZERO_PROBABILITY = 1e-12  # below this, conditioning on the outcome is refused
PHASE_TOL = 1e-10         # ray equality: global phase is quotiented out


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=complex).reshape(-1)
    if vec.size == 0:
        raise InvariantViolationError("empty amplitude vector")
    if vec.size > MAX_DIM:
        raise InvariantViolationError(f"dimension {vec.size} exceeds cap {MAX_DIM}")
    return vec


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class StateVector:
    """A unit vector of complex amplitudes; squared magnitudes sum to one."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _as_complex_vector(self.amplitudes)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise InvariantViolationError(
                f"state not normalized: squared norm {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> StateVector:
        """Scale an arbitrary nonzero vector onto the unit sphere."""
        vec = _as_complex_vector(values)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0 or not math.isfinite(norm):
            raise InvariantViolationError("cannot normalize a zero vector")
        return cls(vec / norm)

    def __repr__(self) -> str:
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


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
        object.__setattr__(self, "matrix", _frozen(mat))

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

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True)
class MeasurementBasis:
    """A unitary frame with outcome labels: column k is the unit vector of
    outcome ``labels[k]``.  Its rank-1 projectors are derived from the frame."""

    frame: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        frame = np.array(self.frame, dtype=complex)
        labels = tuple(str(l) for l in self.labels)
        if frame.ndim != 2 or frame.size == 0:
            raise InvariantViolationError("empty measurement basis")
        dim, count = frame.shape
        if dim > MAX_DIM:
            raise InvariantViolationError(f"dimension {dim} exceeds cap {MAX_DIM}")
        if len(labels) != count:
            raise InvariantViolationError("one label per basis vector required")
        if len(set(labels)) != len(labels):
            raise InvariantViolationError(f"duplicate outcome labels: {labels}")
        error = np.max(np.abs(frame.conj().T @ frame - np.eye(count)))
        if count != dim or not error <= BASIS_TOL:
            raise InvariantViolationError(
                f"not an orthonormal basis of C^{dim}: {count} vectors, Gram error {error:.3g}")
        object.__setattr__(self, "frame", _frozen(frame))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def size(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def projectors(self) -> tuple[Projector, ...]:
        """The rank-1 projectors onto the frame's columns, built on first use."""
        return tuple(Projector(np.outer(f, f.conj())) for f in self.frame.T)

    @classmethod
    def from_vectors(cls, vectors, labels=None) -> MeasurementBasis:
        """Basis whose k-th outcome is the ray of ``vectors[k]`` (normalized first)."""
        vecs = [_as_complex_vector(v) for v in vectors]
        if not vecs:
            raise InvariantViolationError("empty measurement basis")
        if any(v.size != vecs[0].size for v in vecs):
            raise DimensionMismatchError("vectors of mixed dimension in one basis")
        frame = np.stack(vecs, axis=1)
        norms = np.linalg.norm(frame, axis=0)
        if not np.all((norms > 0.0) & np.isfinite(norms)):
            raise InvariantViolationError("cannot normalize a zero vector")
        if labels is None:
            labels = tuple(str(i) for i in range(len(vecs)))
        return cls(frame / norms, tuple(labels))

    def __repr__(self) -> str:
        return f"MeasurementBasis(dim={self.dim}, labels={self.labels})"


def _require_same_dim(a_dim: int, b_dim: int) -> None:
    if a_dim != b_dim:
        raise DimensionMismatchError(f"dimension mismatch: {a_dim} vs {b_dim}")


def born_probability(state: StateVector, proj: Projector, *, tol: float = PROBABILITY_TOL) -> float:
    """Probability <psi|P|psi> of the yes outcome, clamped into [0, 1].

    Raises if the raw expectation value falls outside [0, 1] by more than
    ``tol`` (that would mean the inputs were not a state and a projector).
    """
    _require_same_dim(state.dim, proj.dim)
    raw = float(np.vdot(state.amplitudes, proj.matrix @ state.amplitudes).real)
    if raw < -tol or raw > 1.0 + tol:
        raise InvariantViolationError(f"expectation {raw!r} outside [0, 1]")
    return min(1.0, max(0.0, raw))


def collapse(state: StateVector, proj: Projector, *, zero_tol: float = ZERO_PROBABILITY) -> StateVector:
    """Project-and-renormalize: P|psi> / ||P|psi>||.

    Conditioning on an outcome of probability <= ``zero_tol`` is impossible
    and raises rather than returning NaN amplitudes.
    """
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


def spin_direction_basis(polar: float, azimuth: float) -> MeasurementBasis:
    """Two-outcome basis along the (polar, azimuth) direction on the sphere.

    The plus ray is (cos(polar/2), e^{i azimuth} sin(polar/2)); the minus ray
    is its orthogonal partner.  Angles wrap, so no input validation is needed.
    """
    half = 0.5 * polar
    phase = cmath.exp(1j * azimuth)
    plus = np.array([math.cos(half), phase * math.sin(half)], dtype=complex)
    minus = np.array([math.sin(half), -phase * math.cos(half)], dtype=complex)
    return MeasurementBasis.from_vectors([plus, minus], labels=("+", "-"))


_STATE_PRESETS = {
    "z+": (1.0, 0.0),
    "z-": (0.0, 1.0),
    "x+": (1.0, 1.0),
    "x-": (1.0, -1.0),
    "y+": (1.0, 1.0j),
    "y-": (1.0, -1.0j),
}

_AXIS_VECTORS = {
    "z": ("z+", "z-"),
    "x": ("x+", "x-"),
    "y": ("y+", "y-"),
}

STATE_PRESET_NAMES = tuple(_STATE_PRESETS)
AXIS_NAMES = tuple(_AXIS_VECTORS)


def named_state(name: str) -> StateVector:
    """Qubit preset: one of z+, z-, x+, x-, y+, y-."""
    try:
        return StateVector.normalized(_STATE_PRESETS[name])
    except KeyError:
        raise PreconditionError(f"unknown state preset {name!r}") from None


def named_axis_basis(axis: str) -> MeasurementBasis:
    """Qubit basis preset along axis "z", "x", or "y"."""
    try:
        plus, minus = _AXIS_VECTORS[axis]
    except KeyError:
        raise PreconditionError(f"unknown axis {axis!r}") from None
    return MeasurementBasis.from_vectors(
        [named_state(plus).amplitudes, named_state(minus).amplitudes],
        labels=(plus, minus),
    )


def same_ray(u, v, tol: float = PHASE_TOL) -> bool:
    """Equality of unit vectors up to global phase: | <u|v> | = 1 within tol."""
    ua = u.amplitudes if isinstance(u, StateVector) else _as_complex_vector(u)
    va = v.amplitudes if isinstance(v, StateVector) else _as_complex_vector(v)
    if ua.size != va.size:
        return False
    return abs(abs(np.vdot(ua, va)) - 1.0) <= tol


def principal_vector(proj: Projector) -> np.ndarray:
    """Unit vector spanning a rank-1 projector's range.

    Phase-fixed so the largest-magnitude component is real and positive,
    which makes serialized output reproducible.
    """
    if proj.rank != 1:
        raise PreconditionError(f"rank-1 projector required, got rank {proj.rank}")
    diag = np.real(np.diag(proj.matrix))
    j = int(np.argmax(diag))
    return proj.matrix[:, j] / math.sqrt(diag[j])
