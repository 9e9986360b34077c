"""States and measurement bases on a low-dimensional complex space.

A measurement basis is a unitary frame: its columns are the outcome rays,
and each rank-1 proposition "outcome k" is column k of that frame.  Born
probabilities and the measure-collapse-measure chain rule are computed on
frames in ``stats``.  Their arrays are read-only and every operation is a
pure function, so the whole layer is safe for unrestricted concurrent use.
Dimensions are capped at 8; the structure of interest already appears in
dimension 2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, PreconditionError

MAX_DIM = 8

NORM_TOL = 1e-12          # allowed deviation of a state's squared norm from 1
BASIS_TOL = 1e-10         # orthogonality / completeness of measurement bases
ZERO_PROBABILITY = 1e-12  # below this, conditioning on the outcome is refused

# A norm in this range has a sum of squares between 1e-300 and 1e300: no
# square overflowed, and squares lost to underflow (each below 2.3e-308)
# change it by less than rounding.
_PLAIN_NORMS = (1e-150, 1e150)

# the labels ("0", ..., "n-1") of a basis of n unlabelled vectors, for each n up to MAX_DIM
_DEFAULT_LABELS = tuple(tuple(map(str, range(n))) for n in range(MAX_DIM + 1))


def _as_complex_vector(values) -> np.ndarray:
    vec = np.array(values, dtype=complex).reshape(-1)  # a copy, never the caller's array
    if vec.size == 0:
        raise InvariantViolationError("empty amplitude vector")
    if vec.size > MAX_DIM:
        raise InvariantViolationError(f"dimension {vec.size} exceeds cap {MAX_DIM}")
    return vec


def unit_vectors(vectors: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, int | None]:
    """The complex ``vectors`` scaled to unit norm along ``axis`` (None: a
    1-D vector), and the index of the first vector that is zero or not
    finite (None when there is none); such vectors come back as zeros.

    A norm inside ``_PLAIN_NORMS`` is exact to rounding and divides directly.
    Otherwise each vector is first multiplied by the power of two that brings
    its largest real or imaginary part into [0.5, 1), so that no square in
    its norm overflows or underflows.  The plain norms are formed with the
    operations ``np.linalg.norm`` uses, without its dispatch, which costs as
    much as the arithmetic on vectors this short.
    """
    low, high = _PLAIN_NORMS
    with np.errstate(all="ignore"):  # an overflowed or NaN norm is taken up below
        if axis is None:
            real, imag = vectors.real, vectors.imag
            norm = math.sqrt(real.dot(real) + imag.dot(imag))
            if low <= norm <= high:
                return vectors / norm, None
        else:
            norms = np.sqrt(np.add.reduce((vectors.conj() * vectors).real, axis=axis, keepdims=True))
            if all(low <= n <= high for n in norms.ravel().tolist()):
                return vectors / norms, None
    peak = np.maximum(abs(vectors.real), abs(vectors.imag)).max(axis=axis, keepdims=True)
    ok = np.isfinite(peak) & (peak > 0.0)
    exponent = -np.frexp(np.where(ok, peak, 1.0))[1]
    scaled = np.empty_like(vectors)
    # ldexp scales each part without forming 2**-exponent, which overflows
    # for a subnormal peak
    scaled.real = np.where(ok, np.ldexp(vectors.real, exponent), 0.0)
    scaled.imag = np.where(ok, np.ldexp(vectors.imag, exponent), 0.0)
    norms = np.linalg.norm(scaled, axis=axis, keepdims=True)
    return scaled / np.where(ok, norms, 1.0), None if ok.all() else int(np.argmin(ok))


def _not_scalable(vectors: np.ndarray) -> str:
    """Why :func:`unit_vectors` could not scale ``vectors``; a non-finite entry
    is named first, in ``Subspace.from_vectors``'s words."""
    return ("cannot normalize a zero vector" if np.isfinite(vectors).all()
            else "vector has a non-finite entry")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def is_integer(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class StateVector:
    """A unit vector of complex amplitudes; squared magnitudes sum to one."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray) -> None:
        amps = _as_complex_vector(amplitudes)
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise InvariantViolationError(
                f"state not normalized: squared norm {norm_sq!r}"
            )
        self.amplitudes = _frozen(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> StateVector:
        """Scale an arbitrary nonzero vector onto the unit sphere."""
        vector = _as_complex_vector(values)
        unit, bad = unit_vectors(vector)
        if bad is not None:
            raise InvariantViolationError(_not_scalable(vector))
        return cls(unit)

    def __repr__(self) -> str:
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


class MeasurementBasis:
    """A unitary frame with outcome labels: column k is the unit vector of
    outcome ``labels[k]``, the one form of that outcome's proposition.  The
    constructor stores a fresh C-ordered frame and string labels, the frame
    made read-only, and forms the frame's conjugate transpose ``adjoint``
    once, read-only too: every Born and overlap product starts from it.
    ``from_vectors`` checks outside vectors and labels."""

    __slots__ = ("frame", "labels", "adjoint")

    def __init__(self, frame: np.ndarray, labels: tuple[str, ...]) -> None:
        self.frame = _frozen(frame)
        self.labels = labels
        self.adjoint = _frozen(frame.conj().T)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def size(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_vectors(cls, vectors, labels=None) -> MeasurementBasis:
        """Basis whose k-th outcome is the ray of ``vectors[k]`` (normalized first)."""
        try:  # an (n, d) array converts at once, other input is diagnosed vector by vector
            rows = np.asarray(vectors, dtype=complex)
        except (TypeError, ValueError):  # ragged, or not numbers
            rows = np.empty(0)
        if rows.ndim != 2 or not rows.size or rows.shape[1] > MAX_DIM:
            vecs = [_as_complex_vector(v) for v in vectors]
            if not vecs:
                raise InvariantViolationError("empty measurement basis")
            if any(v.size != vecs[0].size for v in vecs):
                raise DimensionMismatchError("vectors of mixed dimension in one basis")
            rows = np.array(vecs)
        # C order: unit_vectors then sums each column in one order whatever the input's
        # layout (on a transposed stack it sums pairwise, which moves a norm's last bit)
        frame, bad = unit_vectors(np.ascontiguousarray(rows.T), axis=0)
        if bad is not None:
            raise InvariantViolationError(_not_scalable(rows))
        dim, count = frame.shape
        if labels is None:
            labels = _DEFAULT_LABELS[count] if count <= MAX_DIM else tuple(map(str, range(count)))
        else:
            labels = tuple(map(str, labels))
            if len(labels) != count:
                raise InvariantViolationError("one label per basis vector required")
            if len(set(labels)) != len(labels):
                raise InvariantViolationError(f"duplicate outcome labels: {labels}")
        basis = cls(frame, labels)
        gram = basis.adjoint @ frame
        gram.ravel()[::count + 1] -= 1.0  # minus the identity
        error = np.maximum.reduce(abs(gram), axis=None)
        if count != dim or not error <= BASIS_TOL:
            raise InvariantViolationError(
                f"not an orthonormal basis of C^{dim}: {count} vectors, Gram error {error:.3g}")
        return basis

    def __repr__(self) -> str:
        return f"MeasurementBasis(dim={self.dim}, labels={self.labels})"


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


def principal_vector(column) -> np.ndarray:
    """The ray of a frame column, phase-fixed so that its largest-magnitude
    component is real and positive, which makes serialized output reproducible.

    This is column j of the projector |f><f| divided by sqrt(<j|f><f|j>),
    for j the largest-magnitude index, with the same floating-point
    operations, so it matches that projector column bit for bit.
    """
    column = np.asarray(column, dtype=complex)
    weights = (column * column.conj()).real
    j = int(np.argmax(weights))
    return column * column[j].conj() / math.sqrt(weights[j])
