"""Seeded pseudorandom subspaces for ``lattice-check``.

Everything below is deterministic given the seed, so any law violation is
reproducible from its seed alone.  Each sample is drawn as a stack: one draw
of all its ranks and one stacked QR of an (n, d, d) complex Gaussian draw.
The first k columns of a Q factor span the first k Gaussian columns, a
uniformly (Haar) random k-subspace.
"""

from __future__ import annotations

import numpy as np

from .lattice import Subspace


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussian_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Real parts from one ``rng.normal(size=shape)`` draw, then imaginary
    parts from a second, written into one complex array."""
    values = np.empty(shape, dtype=complex)
    values.real = rng.normal(size=shape)
    values.imag = rng.normal(size=shape)
    return values


def _q_frames(rng: np.random.Generator, ambient_dim: int, count: int) -> np.ndarray:
    """The Q factors of a (count, ambient_dim, ambient_dim) complex Gaussian stack."""
    return np.linalg.qr(_gaussian_complex(rng, (count, ambient_dim, ambient_dim)))[0]


def random_subspaces(rng: np.random.Generator, ambient_dim: int, count: int) -> list[Subspace]:
    """``count`` random subspaces, each rank drawn uniformly over 0..ambient_dim."""
    dims = rng.integers(0, ambient_dim + 1, size=count).tolist()
    frames = _q_frames(rng, ambient_dim, count)
    return [Subspace(frame[:, :k].copy()) for frame, k in zip(frames, dims)]


def random_nested_pairs(
    rng: np.random.Generator, ambient_dim: int, count: int
) -> tuple[list[Subspace], list[Subspace]]:
    """``count`` pairs (inner, outer) with inner ⊆ outer: outer ranks drawn
    uniformly over 1..ambient_dim, each inner rank over 0..its outer rank,
    and each inner spanned by the first columns of its outer's frame."""
    outer_dims = rng.integers(1, ambient_dim + 1, size=count)
    inner_dims = rng.integers(0, outer_dims + 1)
    frames = _q_frames(rng, ambient_dim, count)
    inners, outers = [], []
    for frame, j, k in zip(frames, inner_dims.tolist(), outer_dims.tolist()):
        inners.append(Subspace(frame[:, :j].copy()))
        outers.append(Subspace(frame[:, :k].copy()))
    return inners, outers
