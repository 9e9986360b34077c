"""Sequential-measurement probability calculus.

Two-step statistics are always chain-rule products
P(first = i, then = j) = P(first = i) * P(then = j | first = i); measure,
collapse, measure again gives |U^H psi|^2 times the rows of |U^H V|^2 for
bases with unitary frames U (first) and V (then).  Argument order is named
"first"/"then" throughout; no spatial notation is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    PreconditionError,
)
from .hilbert import MeasurementBasis, StateVector, ZERO_PROBABILITY

DISTRIBUTION_TOL = 1e-9
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Labelled probabilities in [0, 1] summing to one."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(l) for l in self.labels)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if len(labels) != probs.size or not labels:
            raise InvariantViolationError("labels and probabilities must align")
        if np.any(probs < -ENTRY_TOL) or np.any(probs > 1.0 + ENTRY_TOL):
            raise InvariantViolationError("probability outside [0, 1]")
        if abs(float(probs.sum()) - 1.0) > DISTRIBUTION_TOL:
            raise InvariantViolationError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs = np.clip(probs, 0.0, 1.0)
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, index: int) -> float:
        return float(self.probs[index])


@dataclass(frozen=True)
class SequentialTable:
    """Ordered two-measurement table: entries[i, j] = P(first = i, then = j)."""

    first_basis: MeasurementBasis
    second_basis: MeasurementBasis
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.first_basis.dim != self.second_basis.dim:
            raise DimensionMismatchError("bases of different dimension in one table")
        entries = np.asarray(self.entries, dtype=float)
        expected = (self.first_basis.size, self.second_basis.size)
        if entries.shape != expected:
            raise InvariantViolationError(f"entries shape {entries.shape}, expected {expected}")
        if np.any(entries < -ENTRY_TOL):
            raise InvariantViolationError("negative table entry")
        if abs(float(entries.sum()) - 1.0) > DISTRIBUTION_TOL:
            raise InvariantViolationError(f"table sums to {entries.sum()!r}, not 1")
        entries = np.clip(entries, 0.0, None)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def first_marginal(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def second_marginal(self) -> np.ndarray:
        return self.entries.sum(axis=0)


def _born_probs(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """|U^H psi|^2: the probability of each outcome of ``basis``."""
    if state.dim != basis.dim:
        raise DimensionMismatchError(f"state dim {state.dim} vs basis dim {basis.dim}")
    return np.abs(basis.frame.conj().T @ state.amplitudes) ** 2


def overlap_kernel(first: MeasurementBasis, then: MeasurementBasis) -> np.ndarray:
    """|U^H V|^2: row i is P(then = j | first = i), the squared overlaps of the rays."""
    if first.dim != then.dim:
        raise DimensionMismatchError(f"basis dims {first.dim} vs {then.dim}")
    return np.abs(first.frame.conj().T @ then.frame) ** 2


def chain_rule(first_probs, kernel, *, zero_tol: float = ZERO_PROBABILITY) -> np.ndarray:
    """entries[i, j] = P(first = i) * kernel[i, j].

    Rows with first-outcome probability at or below ``zero_tol`` are exactly
    zero: an impossible branch contributes nothing and is never conditioned on.
    """
    return np.where(first_probs > zero_tol, first_probs, 0.0)[:, None] * kernel


def born_distribution(state: StateVector, basis: MeasurementBasis) -> Distribution:
    """Outcome distribution of one measurement on ``state``."""
    return Distribution(basis.labels, _born_probs(state, basis))


def sequential_distribution(
    state: StateVector,
    first: MeasurementBasis,
    second: MeasurementBasis,
    *,
    zero_tol: float = ZERO_PROBABILITY,
) -> SequentialTable:
    """Measure ``first``, collapse on its outcome, then measure ``second``: the
    :func:`chain_rule`, so rows at or below ``zero_tol`` are exactly zero."""
    probs, kernel = _born_probs(state, first), overlap_kernel(first, second)
    entries = chain_rule(probs, kernel, zero_tol=zero_tol)
    return SequentialTable(first_basis=first, second_basis=second, entries=entries)


def marginal_over_second(table: SequentialTable) -> Distribution:
    """Row sums: the first measurement's distribution, recovered exactly.

    Summing a chain-rule table over the later outcome always returns the
    earlier measurement's statistics; this identity survives noncommutation.
    """
    return Distribution(table.first_basis.labels, table.first_marginal())


def nondistribution_defect(
    state: StateVector,
    target_basis: MeasurementBasis,
    target_index: int,
    interposed: MeasurementBasis,
) -> float:
    """Gap between a direct outcome probability and its total probability
    through an interposed measurement.

    Returns |P(target = i) - sum_j P(interposed = j, then target = i)|.
    Zero when the two measurements are compatible; positive in general.
    """
    if not 0 <= target_index < target_basis.size:
        raise PreconditionError(f"outcome index {target_index} out of range")
    direct = _born_probs(state, target_basis)[target_index]
    through = chain_rule(_born_probs(state, interposed), overlap_kernel(interposed, target_basis))
    return abs(float(direct) - float(through[:, target_index].sum()))


def commutation_defect(
    state: StateVector, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> float:
    """Largest order asymmetry max_ij |P(a_i then b_j) - P(b_j then a_i)|."""
    kernel = overlap_kernel(basis_a, basis_b)
    forward = chain_rule(_born_probs(state, basis_a), kernel)
    reverse = chain_rule(_born_probs(state, basis_b), kernel.T)
    return float(np.max(np.abs(forward - reverse.T)))


def bases_equal(a: MeasurementBasis, b: MeasurementBasis, tol: float = 1e-9) -> bool:
    """Outcome by outcome, the projectors agree entrywise within ``tol``."""
    if a is b:
        return True
    if a.dim != b.dim:
        return False
    # stack[k] = |f_k><f_k|, the projector of outcome k
    stack_a, stack_b = (np.einsum("ik,jk->kij", f, f.conj()) for f in (a.frame, b.frame))
    return float(np.max(np.abs(stack_a - stack_b))) <= tol


def commuting_bases(a: MeasurementBasis, b: MeasurementBasis, tol: float = 1e-10) -> bool:
    """Every commutator P_i Q_j - Q_j P_i has all entries at most ``tol``."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    # P_i Q_j = <a_i|b_j> |a_i><b_j|, and Q_j P_i is its conjugate transpose
    products = np.einsum("ij,ki,lj->ijkl", a.frame.conj().T @ b.frame, a.frame, b.frame.conj())
    return float(np.max(np.abs(products - products.conj().transpose(0, 1, 3, 2)))) <= tol


@dataclass(frozen=True)
class JointWitness:
    """The most order-asymmetric entry of a table pair."""

    first_index: int
    second_index: int
    forward: float
    reverse: float

    @property
    def asymmetry(self) -> float:
        return abs(self.forward - self.reverse)


@dataclass(frozen=True)
class JointVerdict:
    exists: bool
    joint: Distribution | None
    witness: JointWitness | None


def joint_exists(t_ab: SequentialTable, t_ba: SequentialTable, tol: float = 1e-9) -> JointVerdict:
    """Decide whether the two ordered tables admit one symmetric joint.

    A joint distribution over outcome pairs exists iff the order of
    measurement is statistically irrelevant: t_ab[i, j] = t_ba[j, i] for all
    entries.  When it exists the common table is returned as a distribution
    over pairs; otherwise the maximally asymmetric entry is the witness (the
    first in row-major order when several tie within ``ENTRY_TOL``).
    """
    if not (
        bases_equal(t_ab.first_basis, t_ba.second_basis)
        and bases_equal(t_ab.second_basis, t_ba.first_basis)
    ):
        raise PreconditionError("tables do not cover the same basis pair in opposite orders")
    gap = np.abs(t_ab.entries - t_ba.entries.T)
    worst = int(np.argmax(gap >= gap.max() - ENTRY_TOL))
    i, j = (int(k) for k in np.unravel_index(worst, gap.shape))
    if float(gap[i, j]) <= tol:
        labels = [
            f"({la},{lb})"
            for la in t_ab.first_basis.labels
            for lb in t_ab.second_basis.labels
        ]
        joint = Distribution(labels, t_ab.entries.reshape(-1))
        return JointVerdict(exists=True, joint=joint, witness=None)
    witness = JointWitness(
        first_index=i,
        second_index=j,
        forward=float(t_ab.entries[i, j]),
        reverse=float(t_ba.entries[j, i]),
    )
    return JointVerdict(exists=False, joint=None, witness=witness)


def dispersion(p: float) -> float:
    """p - p^2: zero exactly at the definite values 0 and 1, positive between."""
    if not -ENTRY_TOL <= p <= 1.0 + ENTRY_TOL:
        raise PreconditionError(f"probability {p!r} outside [0, 1]")
    p = min(1.0, max(0.0, float(p)))
    return p - p * p


def binomial_bound(p, n_trials: int, z: float = 4.0):
    """z standard deviations of a binomial proportion estimate of p (or of each p in an array)."""
    if n_trials < 1:
        raise PreconditionError("need at least one trial")
    return z * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / n_trials)


def within_binomial_bound(
    exact: SequentialTable, empirical: SequentialTable, n_trials: int, z: float = 4.0
) -> bool:
    """Entrywise |empirical - exact| <= z * sqrt(p(1-p)/n) comparison."""
    if exact.entries.shape != empirical.entries.shape:
        raise DimensionMismatchError("table shapes differ")
    bounds = binomial_bound(exact.entries, n_trials, z)
    return bool(np.all(np.abs(empirical.entries - exact.entries) <= bounds))
