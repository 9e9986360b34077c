import math

import numpy as np
import pytest

from projector_oracle import COMMUTATOR_TOL
from qlbench.errors import DimensionMismatchError, PreconditionError
from qlbench.hidden import _law_lhs, _law_rhs
from qlbench.hilbert import MeasurementBasis, StateVector, named_axis_basis, named_state
from qlbench.lattice import Subspace, _orthonormal_frame
from qlbench.sampling import _gaussian_complex
from qlbench.stats import ENTRY_TOL

PHASE_TOL = 1e-10  # ray equality: global phase is quotiented out


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


def random_direction_pair(rng: np.random.Generator) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two (polar, azimuth) directions drawn uniformly on the sphere."""
    polar = np.arccos(rng.uniform(-1.0, 1.0, size=2))
    azimuth = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (float(polar[0]), float(azimuth[0])), (float(polar[1]), float(azimuth[1]))


def zero_subspace(ambient_dim: int) -> Subspace:
    """The zero subspace of C^ambient_dim, an empty frame."""
    return Subspace(np.zeros((ambient_dim, 0)))


def full_subspace(ambient_dim: int) -> Subspace:
    """The whole of C^ambient_dim, spanned by the standard basis."""
    return Subspace(np.eye(ambient_dim))


def random_subspace(
    rng: np.random.Generator, ambient_dim: int, dim: int | None = None
) -> Subspace:
    """Random subspace; the rank is drawn uniformly over 0..ambient_dim when unset."""
    if dim is None:
        dim = int(rng.integers(0, ambient_dim + 1))
    if dim == 0:
        return zero_subspace(ambient_dim)
    frame = _orthonormal_frame(_gaussian_complex(rng, (ambient_dim, dim)))
    return Subspace(frame)


def random_nested_pair(rng: np.random.Generator, ambient_dim: int) -> tuple[Subspace, Subspace]:
    """(a, b) with a spanned by a random sub-frame of a random b."""
    outer_dim = int(rng.integers(1, ambient_dim + 1))
    outer = random_subspace(rng, ambient_dim, outer_dim)
    inner_dim = int(rng.integers(0, outer_dim + 1))
    pick = rng.permutation(outer_dim)[:inner_dim]
    inner = Subspace(np.ascontiguousarray(outer.frame[:, sorted(pick)]))
    return inner, outer


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
