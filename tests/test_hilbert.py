import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis, random_state, same_ray
from projector_oracle import (
    ImpossibleOutcomeError,
    Projector,
    born_probability,
    collapse,
    commutes,
    projector_principal_vector,
    projectors,
)
from qlbench.errors import DimensionMismatchError, InvariantViolationError
from qlbench.hilbert import (
    BASIS_TOL,
    NORM_TOL,
    MeasurementBasis,
    StateVector,
    named_axis_basis,
    named_state,
    principal_vector,
    spin_direction_basis,
    unit_vectors,
)
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

    def test_constructor_checks_the_frame_and_copies_it(self):
        frame = np.eye(2, dtype=complex)
        basis = MeasurementBasis(frame, ("0", "1"))
        frame[0, 0] = 5.0
        assert basis.frame[0, 0] == 1.0
        with pytest.raises(InvariantViolationError):
            MeasurementBasis(np.array([[1.0, 1.0], [0.0, 1.0]]), ("0", "1"))
        with pytest.raises(InvariantViolationError):
            MeasurementBasis(np.eye(2), ("0",))

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

    @pytest.mark.parametrize("bad",
                             [[0.0, 0.0], [math.inf, 1.0], [math.nan, 1.0], [1e308j, -math.inf]])
    def test_zero_and_non_finite_are_refused(self, bad):
        with pytest.raises(InvariantViolationError, match="^cannot normalize a zero vector$"):
            StateVector.normalized(bad)
        with pytest.raises(InvariantViolationError, match="^cannot normalize a zero vector$"):
            MeasurementBasis.from_vectors([bad, [0.0, 1.0]])


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
