import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import strategies as st

from projector_oracle import COMMUTATOR_TOL
from qlbench.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    PreconditionError,
    QLBenchError,
)
from qlbench.hidden import ROW_TOL, WEIGHT_TOL, HiddenModel, _law_lhs, _law_rhs
from qlbench.hilbert import (AXIS_NAMES, BASIS_TOL, MAX_DIM, STATE_PRESET_NAMES, MeasurementBasis,
                             StateVector, named_axis_basis, named_state)
from qlbench.lattice import Subspace, _orthonormal_frame
from qlbench.sampling import _gaussian_complex
from qlbench.stats import ENTRY_TOL, Distribution, SequentialTable

PHASE_TOL = 1e-10  # ray equality: global phase is quotiented out
FRAME_TOL = 1e-10  # Gram error a checked frame may have
DISTRIBUTION_TOL = 1e-9  # how far a checked distribution or table may miss a total of 1


@pytest.fixture
def z_plus():
    return named_state("z+")


@pytest.fixture
def z_basis():
    return named_axis_basis("z")


@pytest.fixture
def x_basis():
    return named_axis_basis("x")


def tilted_z_basis(product: float) -> MeasurementBasis:
    """The z basis turned by the angle t with cos t sin t = ``product``: its
    projectors differ from z's, and commute with them, up to entries of that size."""
    t = 0.5 * math.asin(2.0 * product)
    c, s = math.cos(t), math.sin(t)
    return MeasurementBasis.from_vectors([[c, s], [-s, c]], labels=("z+", "z-"))


def same_ray(u, v, tol: float = PHASE_TOL) -> bool:
    """Equality of unit vectors up to global phase: | <u|v> | = 1 within tol."""
    ua, va = (w.amplitudes if isinstance(w, StateVector) else np.asarray(w, dtype=complex).ravel()
              for w in (u, v))
    if ua.size != va.size:
        return False
    return abs(abs(np.vdot(ua, va)) - 1.0) <= tol


def assert_close(actual, expected, tol=1e-12):
    assert abs(actual - expected) <= tol, f"{actual} != {expected} within {tol}"


def assert_table(actual: np.ndarray, expected, tol=1e-12):
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert float(np.max(np.abs(actual - expected))) <= tol


def refusal(make, *args):
    """What ``make(*args)`` raises, as (error class, message, part), or None
    when it builds."""
    try:
        make(*args)
    except QLBenchError as exc:
        return type(exc), str(exc), getattr(exc, "part", None)
    return None


# values at which an entry check flips, or which a min/max form would let through
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, -5e-324, 5e-324, 1.0,
               *(sign * f * ENTRY_TOL for sign in (1.0, -1.0) for f in (0.99, 1.0, 1.01)),
               *(1.0 + sign * f * ENTRY_TOL for sign in (1.0, -1.0) for f in (0.99, 1.0, 1.01)))


@st.composite
def near_threshold_floats(draw, size: int, total_tol: float) -> np.ndarray:
    """``size`` probabilities whose total is off 1 by 0, 0.99 or 1.01 times
    ``total_tol`` either way, with up to two entries then replaced by edge
    values: NaN, ±inf, -0.0, -5e-324, or within about ``ENTRY_TOL`` of 0 or 1."""
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(size))
    shift = draw(st.sampled_from([0.0, 0.99, -0.99, 1.01, -1.01])) * total_tol
    values[draw(st.integers(0, size - 1))] += shift
    for k in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        values[k] = draw(st.sampled_from(EDGE_FLOATS) | st.floats(-2 * ENTRY_TOL, 2 * ENTRY_TOL)
                         | st.floats(1.0 - 2 * ENTRY_TOL, 1.0 + 2 * ENTRY_TOL))
    return values


def scalar_dispersion(p: float) -> float:
    """The scalar p - p^2 that ``stats.dispersion`` computed before it took
    arrays, kept as the oracle for its bits."""
    if not -ENTRY_TOL <= p <= 1.0 + ENTRY_TOL:
        raise PreconditionError(f"probability {p!r} outside [0, 1]")
    p = min(1.0, max(0.0, float(p)))
    return p - p * p


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    return StateVector.normalized(_gaussian_complex(rng, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    q, r = np.linalg.qr(_gaussian_complex(rng, (dim, dim)))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_basis(rng: np.random.Generator, dim: int, prefix: str = "") -> MeasurementBasis:
    unitary = random_unitary(rng, dim)
    labels = tuple(f"{prefix}{i}" for i in range(dim))
    return MeasurementBasis.from_vectors([unitary[:, i] for i in range(dim)], labels)


def random_basis_pair(
    rng: np.random.Generator, dim: int
) -> tuple[MeasurementBasis, MeasurementBasis]:
    """Two independent bases; generically they do not commute."""
    return random_basis(rng, dim, "a"), random_basis(rng, dim, "b")


def random_commuting_pair(
    rng: np.random.Generator, dim: int
) -> tuple[MeasurementBasis, MeasurementBasis]:
    """Two bases diagonal in one shared frame (outcome order permuted)."""
    unitary = random_unitary(rng, dim)
    perm = rng.permutation(dim)
    first = MeasurementBasis.from_vectors(
        [unitary[:, i] for i in range(dim)], tuple(f"a{i}" for i in range(dim))
    )
    second = MeasurementBasis.from_vectors(
        [unitary[:, i] for i in perm], tuple(f"b{i}" for i in range(dim))
    )
    return first, second


def commuting_bases(a: MeasurementBasis, b: MeasurementBasis) -> bool:
    """Every commutator P_i Q_j - Q_j P_i has all entries at most ``COMMUTATOR_TOL``:
    the frame form of ``projector_oracle.commutes`` over all outcome pairs."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    # P_i Q_j = <a_i|b_j> |a_i><b_j|, and Q_j P_i is its conjugate transpose
    products = np.einsum("ij,ki,lj->ijkl", a.frame.conj().T @ b.frame, a.frame, b.frame.conj())
    commutators = products - products.conj().transpose(0, 1, 3, 2)
    return float(abs(commutators).max()) <= COMMUTATOR_TOL


def tilted_vectors(rng, dim, factor):
    """The columns of a Haar unitary, the second tilted toward the first so
    that, normalized, they overlap by ``factor`` × ``BASIS_TOL``."""
    vectors = random_unitary(rng, dim).T.copy()
    vectors[1] += factor * BASIS_TOL * vectors[0]
    return vectors


def gram_tilted_frame(dim: int, factor: float) -> np.ndarray:
    """(I + E)^(1/2) for E = ``factor`` × ``BASIS_TOL`` × (J - I): a real
    symmetric frame of unit columns whose Gram error is E, every overlap of one
    sign, so that the errors add up along the all-ones direction, where
    frame frame^H has its top eigenvalue 1 + (dim - 1) × factor × BASIS_TOL."""
    gram = np.eye(dim) + factor * BASIS_TOL * (np.ones((dim, dim)) - np.eye(dim))
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    return (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T


def hadamard_frame(dim: int) -> np.ndarray:
    """The Sylvester Hadamard matrix of order ``dim`` (a power of two) over
    sqrt(dim): a real symmetric unitary whose first column is the all-ones
    direction."""
    frame = np.ones((1, 1))
    while len(frame) < dim:
        frame = np.block([[frame, frame], [frame, -frame]])
    return frame / math.sqrt(dim)


@st.composite
def audit_inputs(draw, max_dim=5):
    """A state and basis pair (d = 2..max_dim): random, commuting, or a preset
    qubit state on axis bases, whose marginals hold exact zeros and ones."""
    kind = draw(st.sampled_from(["random", "commuting", "preset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "preset":
        state = named_state(draw(st.sampled_from(STATE_PRESET_NAMES)))
        return (state, *(named_axis_basis(draw(st.sampled_from(AXIS_NAMES))) for _ in "ab"))
    dim = draw(st.integers(2, max_dim))
    pair = random_basis_pair if kind == "random" else random_commuting_pair
    return (random_state(rng, dim), *pair(rng, dim))


@st.composite
def model_inputs(draw):
    """``audit_inputs(max_dim=8)``, or a random state with two bases (d = 2..8)
    each tilted to 0.99 ``BASIS_TOL``, whose kernel rows miss sums of 1 by up to
    (d - 1) ``BASIS_TOL``."""
    if draw(st.booleans()):
        return draw(audit_inputs(max_dim=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    bases = (MeasurementBasis.from_vectors(tilted_vectors(rng, dim, 0.99)) for _ in "ab")
    return (random_state(rng, dim), *bases)


def random_direction_pair(rng: np.random.Generator) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two (polar, azimuth) directions drawn uniformly on the sphere."""
    polar = np.arccos(rng.uniform(-1.0, 1.0, size=2))
    azimuth = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (float(polar[0]), float(azimuth[0])), (float(polar[1]), float(azimuth[1]))


def checked_subspace(frame) -> Subspace:
    """The subspace of a frame made outside the package, checked first: 2-d,
    ambient dimension in [1, ``MAX_DIM``], finite, and orthonormal within
    ``FRAME_TOL``.  The reference form that built frames are held against."""
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim != 2:
        raise InvariantViolationError(f"frame must be 2-d, got shape {frame.shape}")
    d, k = frame.shape
    if d < 1 or d > MAX_DIM:
        raise InvariantViolationError(f"ambient dimension {d} outside [1, {MAX_DIM}]")
    if k > d:
        raise InvariantViolationError(f"frame has {k} vectors in dimension {d}")
    if not np.isfinite(frame).all():  # an infinite entry warns in the Gram product
        raise InvariantViolationError("frame has a non-finite entry")
    if k:
        gram = frame.conj().T @ frame
        if not np.max(np.abs(gram - np.eye(k))) <= FRAME_TOL:
            raise InvariantViolationError("frame vectors are not orthonormal")
    return Subspace(frame.copy())


def zero_subspace(ambient_dim: int) -> Subspace:
    """The zero subspace of C^ambient_dim, an empty frame."""
    return checked_subspace(np.zeros((ambient_dim, 0)))


def full_subspace(ambient_dim: int) -> Subspace:
    """The whole of C^ambient_dim, spanned by the standard basis."""
    return checked_subspace(np.eye(ambient_dim))


def random_subspace(
    rng: np.random.Generator, ambient_dim: int, dim: int | None = None
) -> Subspace:
    """Random subspace; the rank is drawn uniformly over 0..ambient_dim when unset."""
    if dim is None:
        dim = int(rng.integers(0, ambient_dim + 1))
    if dim == 0:
        return zero_subspace(ambient_dim)
    frame = _orthonormal_frame(_gaussian_complex(rng, (ambient_dim, dim)))
    return checked_subspace(frame)


def random_nested_pair(rng: np.random.Generator, ambient_dim: int) -> tuple[Subspace, Subspace]:
    """(a, b) with a spanned by a random sub-frame of a random b."""
    outer_dim = int(rng.integers(1, ambient_dim + 1))
    outer = random_subspace(rng, ambient_dim, outer_dim)
    inner_dim = int(rng.integers(0, outer_dim + 1))
    pick = rng.permutation(outer_dim)[:inner_dim]
    inner = checked_subspace(np.ascontiguousarray(outer.frame[:, sorted(pick)]))
    return inner, outer


def checked_kernel(rows) -> np.ndarray:
    """Kernel rows made outside the package, checked first as the kernel
    record's constructor once checked them: a matrix of nonnegative entries
    whose rows sum to 1 within ``ROW_TOL``.  A read-only copy."""
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2:
        raise InvariantViolationError("kernel rows must form a matrix")
    if not all(x >= 0.0 for x in rows.ravel().tolist()):  # NaN fails
        raise InvariantViolationError("kernel entry negative or not a number")
    for i, total in enumerate(np.add.reduce(rows, axis=1).tolist()):
        if not abs(total - 1.0) <= ROW_TOL:
            raise InvariantViolationError(f"kernel row {i} sums to {total!r}, not 1")
    rows.setflags(write=False)
    return rows


def checked_model(values, weights, contexts, kernels) -> HiddenModel:
    """The model of fields made outside the package, checked first as the
    model records' constructors once checked them: integer outcomes in range
    for each context, nonnegative weights that sum to 1 within
    ``WEIGHT_TOL``, and each kernel (rows as :func:`checked_kernel` takes
    them, under its (src, dst) key) between two declared contexts with one
    row per outcome of src and one entry per outcome of dst.  A refusal names a weight (``("weight", m)``) or kernel
    (``("kernel", key)``) in its ``part``.  The reference form that built and
    read models are held against."""
    contexts = MappingProxyType(dict(contexts))
    values = np.array(values)
    weights = np.array(weights, dtype=float)
    if values.ndim != 2 or values.size == 0 or not contexts:
        raise InvariantViolationError("ensemble needs members and declared contexts")
    if values.dtype.kind not in "iu":
        raise InvariantViolationError("outcome values must be integers")
    if weights.shape != values.shape[:1] or values.shape[1] != len(contexts):
        raise InvariantViolationError(
            f"values of shape {values.shape} with weights of shape {weights.shape} for "
            f"{len(contexts)} contexts: need one row per weight, one column per context")
    sizes = [basis.size for basis in contexts.values()]
    if not all(0 <= min(column) and max(column) < size  # integers: no NaN to miss
               for column, size in zip(values.T.tolist(), sizes)):
        m, c = np.argwhere((values < 0) | (values >= sizes))[0]
        raise InvariantViolationError(
            f"outcome {values[m, c]} out of range for context {list(contexts)[c]!r}")
    weight_list = weights.tolist()
    for m, weight in enumerate(weight_list):
        if not weight >= 0.0:  # NaN fails
            raise InvariantViolationError(
                f"weight {weight!r} is not a nonnegative number", ("weight", m))
    total = sum(weight_list)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise InvariantViolationError(f"weights sum to {total!r}, not 1",
                                      ("weight", len(weights) - 1))
    kernels = {key: checked_kernel(rows) for key, rows in kernels.items()}
    for key, rows in kernels.items():
        src, dst = key
        part = ("kernel", key)
        for name in key:
            if name not in contexts:
                raise InvariantViolationError(
                    f"kernel references an undeclared context {name!r}", part)
        expected = (contexts[src].size, contexts[dst].size)
        if rows.shape != expected:
            raise InvariantViolationError(
                f"kernel {src} {dst} rows have shape {rows.shape}, expected {expected} "
                f"(outcomes of {src} × outcomes of {dst})", part)
    return HiddenModel(values.astype(np.int64, copy=False), weights, dict(contexts), kernels)


def checked_distribution(labels, probs) -> Distribution:
    """The distribution of labels and probabilities made outside the package,
    checked first as the ``Distribution`` constructor checked them when it did:
    one label per probability, each within ``ENTRY_TOL`` of [0, 1], summing to
    1 within ``DISTRIBUTION_TOL``; then clipped into [0, 1].  The reference
    form that built distributions are held against."""
    labels = tuple(map(str, labels))
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if len(labels) != probs.size or not labels:
        raise InvariantViolationError("labels and probabilities must align")
    if not all(-ENTRY_TOL <= p <= 1.0 + ENTRY_TOL for p in probs.tolist()):  # NaN fails
        raise InvariantViolationError("probability outside [0, 1]")
    total = float(np.add.reduce(probs))
    if not abs(total - 1.0) <= DISTRIBUTION_TOL:
        raise InvariantViolationError(f"probabilities sum to {total!r}, not 1")
    probs = probs.clip(0.0, 1.0)
    return Distribution(labels, probs)


def checked_table(first_basis: MeasurementBasis, second_basis: MeasurementBasis,
                  entries) -> SequentialTable:
    """The table of entries made outside the package, checked first as the
    ``SequentialTable`` constructor checked them when it did: bases of one
    dimension, one row per outcome of the first and one entry per outcome of
    the second, no entry below -``ENTRY_TOL`` or NaN, and a total within
    ``DISTRIBUTION_TOL`` of 1; then each -0.0 made 0.0.  The reference form
    that built tables are held against."""
    if first_basis.dim != second_basis.dim:
        raise DimensionMismatchError("bases of different dimension in one table")
    entries = np.asarray(entries, dtype=float)
    expected = (first_basis.size, second_basis.size)
    if entries.shape != expected:
        raise InvariantViolationError(f"entries shape {entries.shape}, expected {expected}")
    if not all(x >= -ENTRY_TOL for x in entries.ravel().tolist()):  # NaN fails
        raise InvariantViolationError("table entry negative or not a number")
    total = float(np.add.reduce(entries, axis=None))
    if not abs(total - 1.0) <= DISTRIBUTION_TOL:
        raise InvariantViolationError(f"table sums to {total!r}, not 1")
    entries = np.maximum(entries, 0.0)  # what np.clip(entries, 0.0, None) computes
    return SequentialTable(first_basis, second_basis, entries)


def marginal_over_second(table: SequentialTable) -> Distribution:
    """Row sums: the first measurement's distribution, recovered exactly.

    Summing a chain-rule table over the later outcome always returns the
    earlier measurement's statistics; this identity survives noncommutation.
    The reference form of the marginal identity that tables are held against.
    """
    return Distribution(table.first_basis.labels, table.entries.sum(axis=1))


class TruthTableRow:
    __slots__ = ("a", "b", "lhs", "rhs")

    def __init__(self, a: int, b: int, lhs: int, rhs: int) -> None:
        self.a, self.b, self.lhs, self.rhs = a, b, lhs, rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


class TruthTableReport:
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[TruthTableRow, ...]) -> None:
        self.rows = rows

    @property
    def all_equal(self) -> bool:
        return all(row.equal for row in self.rows)


def truth_table_distributivity() -> TruthTableReport:
    """Evaluate a ∧ (b ∨ b') = (a ∧ b) ∨ (a ∧ b') on definite truth values.

    With ' as negation, ∧ as min, and ∨ as max, all four assignments agree:
    definite values always distribute.
    """
    rows = tuple(
        TruthTableRow(a=a, b=b, lhs=int(_law_lhs(a, b)), rhs=int(_law_rhs(a, b)))
        for a in (0, 1)
        for b in (0, 1)
    )
    return TruthTableReport(rows=rows)
