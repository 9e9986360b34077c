import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis, random_state, random_unitary, same_ray
from projector_oracle import (
    ImpossibleOutcomeError,
    Projector,
    born_probability,
    collapse,
    commutes,
    projector_principal_vector,
    projectors,
)
from qlbench.coloring import RayFamily
from qlbench.errors import DimensionMismatchError, InvariantViolationError, QLBenchError
from qlbench.hilbert import (
    BASIS_TOL,
    MAX_DIM,
    NORM_TOL,
    MeasurementBasis,
    StateVector,
    _MAX_WIDTH,
    _as_complex_vector,
    named_axis_basis,
    named_state,
    principal_vector,
    spin_direction_basis,
    unit_vectors,
    vector_rows,
)
from qlbench.lattice import Subspace
from qlbench.sampling import rng_from

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestStateVector:
    def test_accepts_unit_vectors(self):
        StateVector([0.6, 0.8])
        StateVector([INV_SQRT2, INV_SQRT2 * 1j])

    def test_rejects_non_normalized(self):
        with pytest.raises(InvariantViolationError):
            StateVector([1.0, 1.0])

    def test_rejects_oversized(self):
        with pytest.raises(InvariantViolationError):
            StateVector.normalized([1.0] * 9)

    def test_normalized_constructor(self):
        state = StateVector.normalized([3.0, 4.0])
        assert_amplitudes = np.array([0.6, 0.8])
        assert np.allclose(state.amplitudes, assert_amplitudes)
        with pytest.raises(InvariantViolationError):
            StateVector.normalized([0.0, 0.0])

    def test_amplitudes_are_read_only(self):
        state = named_state("z+")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_does_not_alias_the_callers_array(self, dtype):
        amplitudes = np.array([1, 0], dtype=dtype)
        state = StateVector(amplitudes)
        amplitudes[0] = 5
        assert np.array_equal(state.amplitudes, [1, 0])
        assert amplitudes.flags.writeable

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(InvariantViolationError):
            StateVector([bad, 1.0])

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_norm_error_at_norm_tol(self, factor, accepted, sign):
        amplitudes = [math.sqrt(1.0 + sign * factor * NORM_TOL), 0.0]
        if accepted:
            StateVector(amplitudes)
        else:
            with pytest.raises(InvariantViolationError):
                StateVector(amplitudes)


class TestProjector:
    def test_onto_builds_rank_one(self):
        proj = Projector.onto([1.0, 1.0])
        assert proj.rank == 1
        assert np.allclose(proj.matrix, np.full((2, 2), 0.5))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolationError):
            Projector([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvariantViolationError):
            Projector([[0.5, 0.0], [0.0, 0.5]])

    def test_identity(self):
        assert Projector.identity(3).rank == 3


class TestMeasurementBasis:
    def test_requires_orthogonal_projectors(self):
        with pytest.raises(InvariantViolationError):
            MeasurementBasis.from_vectors([[1.0, 0.0], [1.0, 1.0]])

    def test_requires_completeness(self):
        with pytest.raises(InvariantViolationError):
            MeasurementBasis.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ("0", "1"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvariantViolationError):
            MeasurementBasis.from_vectors([[1.0, 0.0], [0.0, 1.0]], ("a", "a"))

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_orthogonality_error_at_basis_tol(self, factor, accepted):
        # after normalization <u0|u1> = eps / sqrt(1 + eps^2), which is eps in floating point
        eps = factor * BASIS_TOL
        vectors = [[1.0, 0.0], [eps, 1.0]]
        if accepted:
            MeasurementBasis.from_vectors(vectors)
        else:
            with pytest.raises(InvariantViolationError):
                MeasurementBasis.from_vectors(vectors)

    def test_frame_columns_are_the_normalized_vectors(self):
        basis = MeasurementBasis.from_vectors([[3.0, 4.0j], [4.0, -3.0j]], ("p", "m"))
        assert np.allclose(basis.frame, np.array([[0.6, 0.8], [0.8j, -0.6j]]), atol=1e-15)
        assert basis.labels == ("p", "m")
        with pytest.raises(ValueError):
            basis.frame[0, 0] = 1.0

    def test_frame_columns_are_the_oracle_projectors_rays(self):
        basis = random_basis(rng_from(106), 4)
        assert len(projectors(basis)) == 4
        for k, proj in enumerate(projectors(basis)):
            assert np.array_equal(proj.matrix, np.outer(basis.frame[:, k], basis.frame[:, k].conj()))
            assert same_ray(principal_vector(basis.frame[:, k]), basis.frame[:, k])

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_from_vectors_checks_the_frame_and_copies_it(self, layout):
        vectors = layout(np.eye(2, dtype=complex))
        basis = MeasurementBasis.from_vectors(vectors, ("0", "1"))
        vectors[0, 0] = 5.0
        assert basis.frame[0, 0] == 1.0
        with pytest.raises(InvariantViolationError):
            MeasurementBasis.from_vectors(layout(np.array([[1.0, 1.0], [0.0, 1.0]])), ("0", "1"))
        with pytest.raises(InvariantViolationError):
            MeasurementBasis.from_vectors(layout(np.eye(2)), ("0",))

    @pytest.mark.parametrize("vectors, error", [
        ([], InvariantViolationError),
        ([[0.0, 0.0], [0.0, 1.0]], InvariantViolationError),
        ([[float("nan"), 0.0], [0.0, 1.0]], InvariantViolationError),
        ([[1.0, 0.0], [0.0, 1.0, 0.0]], DimensionMismatchError),
        ([[1.0] + [0.0] * 8] * 9, InvariantViolationError),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], InvariantViolationError),
    ])
    def test_from_vectors_rejects(self, vectors, error):
        with pytest.raises(error):
            MeasurementBasis.from_vectors(vectors)


def per_vector_frame(vectors):
    """The frame ``from_vectors`` built vector by vector before it converted an
    (n, d) array at once, kept as the oracle for the bits of its frame."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    frame, bad = unit_vectors(np.stack(vecs, axis=1), axis=0)
    assert bad is None
    return frame


@st.composite
def scaled_unitaries(draw):
    """A Haar unitary (d = 1..8) with each column scaled by 10^U(-3, 3), so
    that from_vectors has a norm to divide out of every column."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_unitary(rng, dim) * 10.0 ** rng.uniform(-3.0, 3.0, dim)


class TestFromVectorsAgainstPerVectorPath:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(scaled_unitaries())
    def test_every_input_form_gives_the_oracle_frame(self, columns):
        rows = columns.T  # an F-ordered view: row k is column k
        expected = per_vector_frame(list(rows)).tobytes()
        for vectors in (rows, np.ascontiguousarray(rows), rows.tolist(), list(rows)):
            basis = MeasurementBasis.from_vectors(vectors)
            assert basis.frame.tobytes() == expected
            assert basis.labels == tuple(str(k) for k in range(len(rows)))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(scaled_unitaries(), st.floats(1e-12, 1e-3), st.integers(0, 63))
    def test_gram_error_is_the_distance_from_the_identity(self, columns, eps, entry):
        vectors = columns.T.copy()
        vectors.flat[entry % vectors.size] += eps
        frame = per_vector_frame(list(vectors))
        error = np.max(np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])))
        if error <= BASIS_TOL:
            MeasurementBasis.from_vectors(vectors)
        else:
            with pytest.raises(InvariantViolationError, match=re.escape(f"Gram error {error:.3g}")):
                MeasurementBasis.from_vectors(vectors)

    def test_frames_are_c_contiguous(self):
        # unit_vectors sums an F-ordered stack pairwise along its contiguous
        # axis, which moved the last bit of random-d8/demo-eq5's golden output
        rows = random_unitary(rng_from(107), 8).T
        for vectors in (rows, np.ascontiguousarray(rows), np.asfortranarray(rows), rows.tolist(),
                        list(rows)):
            assert MeasurementBasis.from_vectors(vectors).frame.flags.c_contiguous


def reference_basis(vectors, labels=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """Oracle: the frame and labels of ``MeasurementBasis.from_vectors`` as it
    was when the constructor checked the frame it was handed and copied it,
    unchanged: ``from_vectors`` normalized the vectors and refused a zero one,
    then the constructor checked the shape, the labels and the Gram error."""
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
    if not np.isfinite(rows).all():
        raise InvariantViolationError("vector has a non-finite entry")
    frame, bad = unit_vectors(np.ascontiguousarray(rows.T), axis=0)
    if bad is not None:
        raise InvariantViolationError("cannot normalize a zero vector")
    labels = range(frame.shape[1]) if labels is None else labels
    frame = np.array(frame, dtype=complex, order="C")
    labels = tuple(map(str, labels))
    if frame.ndim != 2 or frame.size == 0:
        raise InvariantViolationError("empty measurement basis")
    dim, count = frame.shape
    if dim > MAX_DIM:
        raise InvariantViolationError(f"dimension {dim} exceeds cap {MAX_DIM}")
    if len(labels) != count:
        raise InvariantViolationError("one label per basis vector required")
    if len(set(labels)) != len(labels):
        raise InvariantViolationError(f"duplicate outcome labels: {labels}")
    gram = frame.conj().T @ frame
    gram.ravel()[::count + 1] -= 1.0  # minus the identity
    error = np.maximum.reduce(abs(gram), axis=None)
    if count != dim or not error <= BASIS_TOL:
        raise InvariantViolationError(
            f"not an orthonormal basis of C^{dim}: {count} vectors, Gram error {error:.3g}")
    frame.setflags(write=False)
    return frame, labels


@st.composite
def planted_vectors(draw):
    """The rows of a scaled Haar unitary (d = 1..8), as an array, a list of
    rows or nested lists, with labels None, strings, integers, one too few or
    too many, or with a repeat; then perhaps one fault: a vector dropped or
    added, every vector longer than ``MAX_DIM``, a zero vector, a vector an
    entry short, or the second vector tilted towards the first by 0.99 or
    1.01 ``BASIS_TOL``."""
    vectors = list(draw(scaled_unitaries()).T)
    n = len(vectors)
    fault = draw(st.sampled_from(["none", "drop", "add", "long", "zero", "ragged", "tilt"]))
    if fault == "drop" and n > 1:
        vectors.pop()
    elif fault == "add":
        vectors.append(vectors[0] + 1.0)
    elif fault == "long":
        vectors = [np.concatenate([v, np.ones(MAX_DIM)]) for v in vectors]
    elif fault == "zero":
        vectors[draw(st.integers(0, n - 1))] = np.zeros(n, dtype=complex)
    elif fault == "ragged":
        vectors[draw(st.integers(0, n - 1))] = vectors[0][:-1]
    elif fault == "tilt" and n > 1:
        unit = vectors[0] / np.linalg.norm(vectors[0])
        vectors[1] = (vectors[1] / np.linalg.norm(vectors[1])
                      + draw(st.sampled_from([0.99, 1.01])) * BASIS_TOL * unit)
    count = len(vectors) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    labels = draw(st.sampled_from([None, [f"o{k}" for k in range(count)], list(range(count)),
                                   ["same"] * count]))
    form = draw(st.sampled_from(["array", "rows", "lists"]))
    if form == "array" and len({v.size for v in vectors}) == 1:
        vectors = np.array(vectors)
    elif form == "lists":
        vectors = [v.tolist() for v in vectors]
    return vectors, labels


def basis_fields(vectors, labels) -> tuple[np.ndarray, tuple[str, ...]]:
    basis = MeasurementBasis.from_vectors(vectors, labels)
    return basis.frame, basis.labels


def built_or_refused(make, case) -> tuple:
    """The frame (bytes, shape, dtype, layout, writeability) and labels that
    ``make(*case)`` gives, or the class and text of its refusal."""
    try:
        frame, labels = make(*case)
    except QLBenchError as exc:
        return "refused", type(exc), str(exc)
    flags = frame.flags
    return ("built", frame.tobytes(), frame.shape, frame.dtype, flags.c_contiguous,
            flags.writeable, labels)


class TestFromVectorsAgainstReference:
    """``from_vectors`` runs every check the constructor ran, in the same
    order, and makes the same frame."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(planted_vectors())
    def test_same_refusal_or_the_same_basis(self, case):
        assert built_or_refused(basis_fields, case) == built_or_refused(reference_basis, case)


class TestVectorRows:
    """The one reader of outside vectors: an (n, d) array in one call, other
    input vector by vector, and the first vector of the wrong length named."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [None, 3])
    def test_a_complex_array_comes_back_as_given(self, order, dim):
        given = np.array(np.eye(3, dtype=complex)[:2], order=order)
        rows, k = vector_rows(given, dim)
        assert rows is given and k is None

    @pytest.mark.parametrize("make_vectors", [
        lambda: np.eye(3)[:2], lambda: np.eye(3)[:2, :, None], lambda: [[1, 0, 0], [0, 1, 0]],
        lambda: list(np.eye(3)[:2]), lambda: (v for v in np.eye(3)[:2]),
        lambda: [[[1], [0], [0]], [0, 1, 0]],
    ], ids=["real", "column-stack", "lists", "list-of-arrays", "generator", "nested"])
    @pytest.mark.parametrize("dim", [None, 3])
    def test_other_input_gives_the_same_rows(self, make_vectors, dim):
        rows, k = vector_rows(make_vectors(), dim)
        assert k is None and rows.flags.c_contiguous and rows.dtype == complex
        assert rows.tobytes() == np.eye(3, dtype=complex)[:2].tobytes()

    @pytest.mark.parametrize("vectors, dim, k", [
        ([[1, 0], [1, 0, 0], [1]], None, 1), ([[1, 0], [1, 0, 0], [1]], 3, 0),
        (np.ones((2, 3)), 2, 0), ((v for v in [[1, 0], [0, 1], []]), 2, 2),
    ], ids=["ragged", "ragged-dim", "wrong-width", "generator"])
    def test_names_the_first_vector_of_the_wrong_length(self, vectors, dim, k):
        rows, bad = vector_rows(vectors, dim)
        assert bad == k and isinstance(rows, list)
        assert all(row.ndim == 1 and row.dtype == complex for row in rows)

    @pytest.mark.parametrize("vectors, dim, shape", [
        ([], None, (0, 0)), ([], 3, (0, 3)), (iter([]), 2, (0, 2)), (np.empty((0, 3)), 3, (0, 3)),
    ])
    def test_no_vectors_are_an_empty_stack(self, vectors, dim, shape):
        rows, k = vector_rows(vectors, dim)
        assert k is None and rows.shape == shape and rows.dtype == complex

    @pytest.mark.parametrize("dim", [-1, _MAX_WIDTH + 1, 99999999999999999999])
    def test_no_vectors_in_a_width_no_array_can_have(self, dim):
        # left for the caller's own refusal of ``dim``
        rows, k = vector_rows([], dim)
        assert k is None and rows.shape == (0, 0) and rows.dtype == complex


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("stored", [
    lambda given: MeasurementBasis.from_vectors(given).frame,
    lambda given: Subspace.from_vectors(3, given).frame,
    lambda given: RayFamily.from_vectors(3, given, [(0, 1, 2)]).rays,
    lambda given: Subspace.ray(given[0]).frame,
], ids=["basis", "subspace", "ray-family", "ray"])
def test_no_record_stores_the_callers_array(stored, order):
    # vector_rows may hand back the caller's own array; each record still
    # stores arrays of its own, and the caller's array is left as it was
    given = np.array(random_unitary(rng_from(31), 3), order=order)
    before = given.copy()
    array = stored(given)
    assert given.flags.writeable and given.tobytes() == before.tobytes()
    assert not np.shares_memory(array, given)


class TestFormedOncePerBasis:
    """A basis forms its frame's conjugate transpose once, for every Born and
    overlap product, and unlabelled bases of one size share one label tuple."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scaled_unitaries())
    def test_adjoint_is_the_conjugate_transpose_and_read_only(self, columns):
        basis = MeasurementBasis.from_vectors(columns.T)
        expected = basis.frame.conj().T
        adjoint = basis.adjoint
        assert adjoint.tobytes() == expected.tobytes()
        assert (adjoint.dtype, adjoint.shape, adjoint.strides) == (
            expected.dtype, expected.shape, expected.strides)  # one layout: one matmul order
        assert not adjoint.flags.writeable
        with pytest.raises(ValueError):
            adjoint[0, 0] = 0.0

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(scaled_unitaries())
    def test_default_labels_are_shared_per_size(self, columns):
        dim = len(columns)
        basis = MeasurementBasis.from_vectors(columns.T)
        assert basis.labels == tuple(str(k) for k in range(dim))
        assert basis.labels is MeasurementBasis.from_vectors(np.eye(dim)).labels
        given_labels = [f"o{k}" for k in range(dim)]
        assert MeasurementBasis.from_vectors(columns.T, given_labels).labels == tuple(given_labels)


def general_norm_unit_vectors(vectors, axis=None):
    """``unit_vectors`` with its plain norms taken by ``np.linalg.norm``: the
    reference for the bits of its result."""
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(vectors, axis=axis, keepdims=axis is not None)
    if all(1e-150 <= n <= 1e150 for n in np.ravel(norms).tolist()):
        return vectors / norms, None
    peak = np.maximum(abs(vectors.real), abs(vectors.imag)).max(axis=axis, keepdims=True)
    ok = np.isfinite(peak) & (peak > 0.0)
    exponent = -np.frexp(np.where(ok, peak, 1.0))[1]
    scaled = np.empty_like(vectors)
    scaled.real = np.where(ok, np.ldexp(vectors.real, exponent), 0.0)
    scaled.imag = np.where(ok, np.ldexp(vectors.imag, exponent), 0.0)
    norms = np.linalg.norm(scaled, axis=axis, keepdims=True)
    return scaled / np.where(ok, norms, 1.0), None if ok.all() else int(np.argmin(ok))


class TestUnitVectors:
    @pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-200, 1.0, 1e200, 1e308])
    def test_any_finite_magnitude_normalizes(self, scale):
        state = StateVector.normalized([scale, scale * 1j])
        assert np.allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2 * 1j], rtol=0.0, atol=1e-15)
        basis = MeasurementBasis.from_vectors([[scale, 0.0], [0.0, -scale]])
        assert np.array_equal(basis.frame, np.diag([1.0, -1.0]))

    def test_matches_the_unscaled_quotient_bit_for_bit(self):
        # wherever no squared entry over- or underflows, the power-of-two
        # scaling changes no bit of the result; a 1e-200 column forces it
        rng = np.random.default_rng(8)
        for dim in range(1, 9):
            for exponent in (-150, -140, -20, 0, 20, 140, 150):  # both sides of _PLAIN_NORMS
                shape = (dim, 3)
                vectors = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** exponent
                expected = vectors / np.linalg.norm(vectors, axis=0)
                for frame in (vectors, np.column_stack([vectors, np.full(dim, 1e-200)])):
                    units, bad = unit_vectors(frame, axis=0)
                    assert bad is None and np.array_equal(units[:, :3], expected)
                unit, bad = unit_vectors(vectors[:, 0])
                assert bad is None
                assert np.array_equal(unit, vectors[:, 0] / np.linalg.norm(vectors[:, 0]))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 8), count=st.integers(0, 8))
    def test_same_bits_as_through_the_general_norm(self, data, dim, count):
        # count 0 draws one 1-D vector, otherwise a (dim, count) matrix of columns
        shape = (dim, count) if count else (dim,)
        size = math.prod(shape)
        parts = st.lists(st.one_of(st.floats(-10.0, 10.0), st.floats()), min_size=size, max_size=size)
        vectors = np.empty(shape, dtype=complex)
        vectors.real = np.reshape(data.draw(parts), shape)  # 1j * inf would warn
        vectors.imag = np.reshape(data.draw(parts), shape)
        axis = 0 if count else None
        units, bad = unit_vectors(vectors, axis=axis)
        expected, expected_bad = general_norm_unit_vectors(vectors, axis=axis)
        assert bad == expected_bad
        assert units.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad_column",
                             [[0, 0], [np.inf, 1], [np.nan, 1], [complex(0, np.inf), 1]])
    def test_the_first_zero_or_non_finite_vector_is_named(self, bad_column):
        vectors = np.array([[1e-200, 0], [3, 4j]] + [bad_column] * 2, dtype=complex).T
        units, bad = unit_vectors(vectors, axis=0)
        assert bad == 2
        assert np.array_equal(units[:, 0], [1, 0])
        assert np.allclose(units[:, 1], [0.6, 0.8j], rtol=0.0, atol=1e-15)
        assert not units[:, 2:].any()

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [0j, -0.0]])
    def test_zero_is_refused(self, bad):
        with pytest.raises(InvariantViolationError, match="^cannot normalize a zero vector$"):
            StateVector.normalized(bad)
        with pytest.raises(InvariantViolationError, match="^cannot normalize a zero vector$"):
            MeasurementBasis.from_vectors([bad, [0.0, 1.0]])

    @pytest.mark.parametrize("bad",
                             [[math.inf, 1.0], [math.nan, 1.0], [1e308j, -math.inf], [0.0, math.nan]])
    def test_non_finite_is_refused(self, bad):
        # named as Subspace.from_vectors names it, also beside a zero vector
        with pytest.raises(InvariantViolationError, match="^vector has a non-finite entry$"):
            StateVector.normalized(bad)
        for vectors in ([bad, [0.0, 1.0]], [[0.0, 1.0], bad], [[0.0, 0.0], bad]):
            with pytest.raises(InvariantViolationError, match="^vector has a non-finite entry$"):
                MeasurementBasis.from_vectors(vectors)
        with pytest.raises(InvariantViolationError, match="^vector has a non-finite entry$"):
            Subspace.from_vectors(2, [bad])


class TestBornProbability:
    def test_eigenstate(self, z_plus):
        assert born_probability(z_plus, Projector.onto([1.0, 0.0])) == 1.0

    def test_orthogonal_state(self, z_plus):
        assert born_probability(z_plus, Projector.onto([0.0, 1.0])) == 0.0

    def test_superposition(self, z_plus):
        # direct scalar-product evaluation: |<v|psi>|^2 = |1/sqrt(2)|^2
        proj = Projector.onto([1.0, 1.0])
        assert abs(born_probability(z_plus, proj) - 0.5) < 1e-12

    def test_dimension_mismatch(self, z_plus):
        with pytest.raises(DimensionMismatchError):
            born_probability(z_plus, Projector.identity(3))

    def test_sums_to_one_over_any_basis(self):
        rng = rng_from(101)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            basis = random_basis(rng, dim)
            total = sum(born_probability(state, p) for p in projectors(basis))
            assert abs(total - 1.0) < 1e-10


class TestCollapse:
    def test_fixed_point(self, z_plus):
        after = collapse(z_plus, Projector.onto([1.0, 0.0]))
        assert same_ray(after, z_plus)

    def test_projects_and_renormalizes(self, z_plus):
        after = collapse(z_plus, Projector.onto([1.0, 1.0]))
        assert same_ray(after, [INV_SQRT2, INV_SQRT2])

    def test_impossible_outcome(self, z_plus):
        with pytest.raises(ImpossibleOutcomeError):
            collapse(z_plus, Projector.onto([0.0, 1.0]))

    def test_idempotent_and_repeatable(self):
        rng = rng_from(102)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            proj = projectors(random_basis(rng, dim))[0]
            if born_probability(state, proj) < 1e-6:
                continue
            once = collapse(state, proj)
            twice = collapse(once, proj)
            assert same_ray(once, twice, 1e-10)
            assert abs(born_probability(once, proj) - 1.0) < 1e-10


class TestCommutes:
    def test_projector_with_itself(self):
        proj = Projector.onto([1.0, 1.0])
        assert commutes(proj, proj)

    def test_same_basis(self):
        assert commutes(Projector.onto([1.0, 0.0]), Projector.onto([0.0, 1.0]))

    def test_noncommuting_pair(self):
        p = Projector.onto([1.0, 0.0])
        q = Projector.onto([1.0, 1.0])
        assert not commutes(p, q)
        # commutator entries by explicit matrix arithmetic
        commutator = p.matrix @ q.matrix - q.matrix @ p.matrix
        assert abs(float(np.max(np.abs(commutator))) - 0.5) < 1e-12

    def test_symmetric(self):
        rng = rng_from(103)
        for _ in range(20):
            p = Projector.onto(rng.normal(size=2) + 1j * rng.normal(size=2))
            q = Projector.onto(rng.normal(size=2) + 1j * rng.normal(size=2))
            assert commutes(p, q) == commutes(q, p)

    def test_dim2_rank1_commute_only_if_equal_or_orthogonal(self):
        rng = rng_from(104)
        for _ in range(100):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            u = u / np.linalg.norm(u)
            v = v / np.linalg.norm(v)
            overlap = abs(np.vdot(u, v))
            if 1e-6 < overlap < 1.0 - 1e-6:
                assert not commutes(Projector.onto(u), Projector.onto(v))


class TestSpinDirectionBasis:
    def test_polar_zero_is_standard_basis(self):
        basis = spin_direction_basis(0.0, 0.0)
        assert same_ray(principal_vector(basis.frame[:, 0]), [1.0, 0.0])
        assert same_ray(principal_vector(basis.frame[:, 1]), [0.0, 1.0])

    def test_equator(self):
        basis = spin_direction_basis(math.pi / 2.0, 0.0)
        assert same_ray(principal_vector(basis.frame[:, 0]), [INV_SQRT2, INV_SQRT2])
        assert same_ray(principal_vector(basis.frame[:, 1]), [INV_SQRT2, -INV_SQRT2])

    def test_completeness_for_any_angles(self):
        rng = rng_from(105)
        for _ in range(50):
            polar = float(rng.uniform(-10.0, 10.0))
            azimuth = float(rng.uniform(-10.0, 10.0))
            basis = spin_direction_basis(polar, azimuth)
            total = sum(p.matrix for p in projectors(basis))
            assert float(np.max(np.abs(total - np.eye(2)))) < 1e-12


class TestPresets:
    def test_named_states_are_unit(self):
        for name in ("z+", "z-", "x+", "x-", "y+", "y-"):
            named_state(name)

    def test_axis_bases(self):
        for axis in ("z", "x", "y"):
            named_axis_basis(axis)

    def test_x_plus_overlap_with_z(self):
        assert abs(born_probability(named_state("x+"), Projector.onto([1.0, 0.0])) - 0.5) < 1e-12


class TestSameRay:
    def test_global_phase_ignored(self, z_plus):
        assert same_ray(z_plus.amplitudes, np.exp(0.7j) * z_plus.amplitudes)

    def test_different_rays(self):
        assert not same_ray([1.0, 0.0], [INV_SQRT2, INV_SQRT2])


@st.composite
def frame_columns(draw):
    """A column of a random unitary frame (d = 1..8), of a spin-direction
    basis, or a unit vector whose largest-magnitude entries tie exactly."""
    kind = draw(st.sampled_from(["random", "spin", "tie"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        dim = draw(st.integers(1, 8))
        return random_basis(rng, dim).frame[:, draw(st.integers(0, dim - 1))]
    if kind == "spin":
        polar, azimuth = rng.uniform(-10.0, 10.0, size=2)
        return spin_direction_basis(polar, azimuth).frame[:, draw(st.integers(0, 1))]
    dim = draw(st.integers(2, 8))
    ties = draw(st.integers(2, dim))
    tied = rng.choice(np.array([1.0, -1.0, 1.0j, -1.0j]), ties)
    rest = rng.uniform(0.0, 0.9, dim - ties) * np.exp(2j * np.pi * rng.random(dim - ties))
    column = rng.permutation(np.concatenate([tied, rest]))
    return column / np.linalg.norm(column)


class TestPrincipalVectorAgainstProjectorPath:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(frame_columns())
    def test_bit_for_bit(self, column):
        expected = projector_principal_vector(Projector(np.outer(column, column.conj())))
        assert np.array_equal(principal_vector(column), expected)
