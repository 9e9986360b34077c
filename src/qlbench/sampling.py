"""Seeded pseudorandom generators for property runs.

Everything below is deterministic given the seed, so any property failure is
reproducible from its seed alone.  The default seed is the experiment
files' default (``config.DEFAULT_SEED``), so property runs and the
command-line runner draw the same streams.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_SEED
from .hilbert import MeasurementBasis, StateVector
from .lattice import Subspace, _orthonormal_frame, _spans, _subspace


def rng_from(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussian_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Real parts from one ``rng.normal(size=shape)`` draw, then imaginary
    parts from a second, written into one complex array."""
    values = np.empty(shape, dtype=complex)
    values.real = rng.normal(size=shape)
    values.imag = rng.normal(size=shape)
    return values


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


def random_direction_pair(rng: np.random.Generator) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two (polar, azimuth) directions drawn uniformly on the sphere."""
    polar = np.arccos(rng.uniform(-1.0, 1.0, size=2))
    azimuth = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (float(polar[0]), float(azimuth[0])), (float(polar[1]), float(azimuth[1]))


def random_subspace(
    rng: np.random.Generator, ambient_dim: int, dim: int | None = None
) -> Subspace:
    """Random subspace; the rank is drawn uniformly over 0..ambient_dim when unset."""
    if dim is None:
        dim = int(rng.integers(0, ambient_dim + 1))
    if dim == 0:
        return Subspace.zero(ambient_dim)
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


def random_subspaces(rng: np.random.Generator, ambient_dim: int, count: int) -> list[Subspace]:
    """``count`` calls of ``random_subspace(rng, ambient_dim)``: the same
    draws in the same order and the same frames, orthonormalized in stacks."""
    column_sets = []
    for _ in range(count):
        dim = int(rng.integers(0, ambient_dim + 1))
        column_sets.append(_gaussian_complex(rng, (ambient_dim, dim)) if dim
                           else np.zeros((ambient_dim, 0), dtype=complex))
    return _spans(ambient_dim, column_sets)


def random_nested_pairs(
    rng: np.random.Generator, ambient_dim: int, count: int
) -> tuple[list[Subspace], list[Subspace]]:
    """The inner and the outer subspaces of ``count`` calls of
    ``random_nested_pair(rng, ambient_dim)``: the same draws in the same
    order and the same frames, orthonormalized in stacks."""
    column_sets, picks = [], []
    for _ in range(count):
        outer_dim = int(rng.integers(1, ambient_dim + 1))
        column_sets.append(_gaussian_complex(rng, (ambient_dim, outer_dim)))
        inner_dim = int(rng.integers(0, outer_dim + 1))
        picks.append(sorted(rng.permutation(outer_dim)[:inner_dim]))
    outers = _spans(ambient_dim, column_sets)
    # columns of an orthonormal frame are orthonormal
    inners = [_subspace(outer.frame[:, pick]) for outer, pick in zip(outers, picks)]
    return inners, outers
