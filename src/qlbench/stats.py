"""Sequential-measurement probability calculus.

Two-step statistics are always chain-rule products
P(first = i, then = j) = P(first = i) * P(then = j | first = i); measure,
collapse, measure again gives |U^H psi|^2 times the rows of |U^H V|^2 for
bases with unitary frames U (first) and V (then).  Argument order is named
"first"/"then" throughout; no spatial notation is used anywhere.

``Distribution`` and ``SequentialTable`` are computed only here and in
``hidden``, from checked states, bases and models: their constructors store
what they are given, clipped and made read-only, and check nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .hilbert import MeasurementBasis, StateVector, ZERO_PROBABILITY, _frozen, is_integer

ENTRY_TOL = 1e-12
BINOMIAL_Z = 4.0         # standard deviations a Monte-Carlo entry may stray


class Distribution:
    """Labelled outcome probabilities, stored clipped into [0, 1]: a Born
    probability can pass 1 by rounding and by the state's ``NORM_TOL``."""

    __slots__ = ("labels", "probs")

    def __init__(self, labels: tuple[str, ...], probs: np.ndarray) -> None:
        self.labels = labels
        self.probs = _frozen(probs.clip(0.0, 1.0))


class SequentialTable:
    """Ordered two-measurement table: entries[i, j] = P(first = i, then = j),
    stored with each -0.0 made 0.0, as ``np.clip(entries, 0.0, None)`` does."""

    __slots__ = ("first_basis", "second_basis", "entries")

    def __init__(self, first_basis: MeasurementBasis, second_basis: MeasurementBasis,
                 entries: np.ndarray) -> None:
        self.first_basis, self.second_basis = first_basis, second_basis
        self.entries = _frozen(np.maximum(entries, 0.0))


def _born_probs(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """|U^H psi|^2: the probability of each outcome of ``basis``."""
    if state.dim != basis.dim:
        raise DimensionMismatchError(f"state dim {state.dim} vs basis dim {basis.dim}")
    return np.abs(basis.adjoint @ state.amplitudes) ** 2


def overlap_kernel(first: MeasurementBasis, then: MeasurementBasis) -> np.ndarray:
    """|U^H V|^2: row i is P(then = j | first = i), the squared overlaps of the rays."""
    if first.dim != then.dim:
        raise DimensionMismatchError(f"basis dims {first.dim} vs {then.dim}")
    return np.abs(first.adjoint @ then.frame) ** 2


def chain_rule(first_probs, kernel) -> np.ndarray:
    """entries[i, j] = P(first = i) * kernel[i, j].

    Rows with first-outcome probability at or below ``ZERO_PROBABILITY`` are
    exactly zero: an impossible branch contributes nothing and is never
    conditioned on.
    """
    return np.where(first_probs > ZERO_PROBABILITY, first_probs, 0.0)[:, None] * kernel


def born_distribution(state: StateVector, basis: MeasurementBasis) -> Distribution:
    """Outcome distribution of one measurement on ``state``."""
    return Distribution(basis.labels, _born_probs(state, basis))


def sequential_distribution(
    state: StateVector, first: MeasurementBasis, second: MeasurementBasis
) -> SequentialTable:
    """Measure ``first``, collapse on its outcome, then measure ``second``: the
    :func:`chain_rule`, so rows at or below ``ZERO_PROBABILITY`` are exactly zero."""
    entries = chain_rule(_born_probs(state, first), overlap_kernel(first, second))
    return SequentialTable(first_basis=first, second_basis=second, entries=entries)


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
    direct, through = _nondistribution_sides(state, target_basis, target_index, interposed)
    return abs(direct - through)


def _nondistribution_sides(state: StateVector, target_basis: MeasurementBasis, target_index: int,
                           interposed: MeasurementBasis) -> tuple[float, float]:
    """The two sides of Eq. (9): P(target = i) and
    sum_j P(interposed = j, then target = i)."""
    if not (is_integer(target_index) and 0 <= target_index < target_basis.size):
        raise PreconditionError(f"outcome index {target_index} out of range")
    direct = _born_probs(state, target_basis)[target_index]
    through = chain_rule(_born_probs(state, interposed), overlap_kernel(interposed, target_basis))
    return float(direct), float(through[:, target_index].sum())


def _order_asymmetry(forward: np.ndarray, reverse: np.ndarray) -> np.ndarray:
    """|forward - reverse^T|: entry (i, j) is |P(a_i then b_j) - P(b_j then a_i)|
    for the a-first table ``forward`` and the b-first table ``reverse``."""
    return abs(forward - reverse.T)


def commutation_defect(
    state: StateVector, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> float:
    """Largest order asymmetry max_ij |P(a_i then b_j) - P(b_j then a_i)|."""
    kernel = overlap_kernel(basis_a, basis_b)
    return _commutation_defect(_born_probs(state, basis_a), _born_probs(state, basis_b), kernel)


def _commutation_defect(born_a: np.ndarray, born_b: np.ndarray, kernel: np.ndarray) -> float:
    """Eq. (7) from the Born vectors of a and b and the a-then-b overlap kernel."""
    forward = chain_rule(born_a, kernel)
    reverse = chain_rule(born_b, kernel.T)
    return float(np.maximum.reduce(_order_asymmetry(forward, reverse), axis=None))


class JointWitness:
    """The most order-asymmetric entry of a table pair."""

    __slots__ = ("first_index", "second_index", "forward", "reverse")

    def __init__(self, first_index: int, second_index: int, forward: float,
                 reverse: float) -> None:
        self.first_index, self.second_index = first_index, second_index
        self.forward, self.reverse = forward, reverse

    @property
    def asymmetry(self) -> float:
        return abs(self.forward - self.reverse)


class JointVerdict:
    __slots__ = ("exists", "joint", "witness")

    def __init__(self, exists: bool, joint: Distribution | None,
                 witness: JointWitness | None) -> None:
        self.exists, self.joint, self.witness = exists, joint, witness


def joint_exists(t_ab: SequentialTable, t_ba: SequentialTable, tol: float = 1e-9) -> JointVerdict:
    """Decide whether the two ordered tables admit one symmetric joint.

    A joint distribution over outcome pairs exists iff the order of
    measurement is statistically irrelevant: t_ab[i, j] = t_ba[j, i] for all
    entries.  When it exists the common table is returned as a distribution
    over pairs; otherwise the maximally asymmetric entry is the witness (the
    first in row-major order when several tie within ``ENTRY_TOL``).  The two
    tables must hold the same two basis objects, in opposite orders.
    """
    if t_ab.first_basis is not t_ba.second_basis or t_ab.second_basis is not t_ba.first_basis:
        raise PreconditionError("tables do not cover the same basis pair in opposite orders")
    gap = _order_asymmetry(t_ab.entries, t_ba.entries)
    worst = (gap >= np.maximum.reduce(gap, axis=None) - ENTRY_TOL).argmax()
    i, j = divmod(int(worst), gap.shape[1])  # row-major, as argmax counts
    if float(gap[i, j]) <= tol:
        labels = tuple(f"({la},{lb})" for la in t_ab.first_basis.labels
                       for lb in t_ab.second_basis.labels)
        joint = Distribution(labels, t_ab.entries.reshape(-1))
        return JointVerdict(exists=True, joint=joint, witness=None)
    witness = JointWitness(
        first_index=i,
        second_index=j,
        forward=float(t_ab.entries[i, j]),
        reverse=float(t_ba.entries[j, i]),
    )
    return JointVerdict(exists=False, joint=None, witness=witness)


def dispersion(p):
    """p - p^2 of p, or of each p in an array: zero exactly at 0 and 1, positive between."""
    p = np.asarray(p, dtype=float)
    for x in p.ravel().tolist():
        if not -ENTRY_TOL <= x <= 1.0 + ENTRY_TOL:  # NaN fails
            raise PreconditionError(f"probability {x!r} outside [0, 1]")
    p = np.minimum(np.maximum(p, 0.0), 1.0)  # a -0.0 becomes 0.0, as in max(0.0, -0.0)
    return p - p * p


def binomial_bound(p, n_trials: int):
    """``BINOMIAL_Z`` standard deviations of a binomial proportion estimate of
    p (or of each p in an array)."""
    if not (is_integer(n_trials) and n_trials >= 1):
        raise PreconditionError(f"need a whole number of trials, at least one, not {n_trials!r}")
    return BINOMIAL_Z * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / n_trials)


def within_binomial_bound(exact: SequentialTable, empirical: SequentialTable,
                          n_trials: int) -> bool:
    """Entrywise |empirical - exact| <= BINOMIAL_Z * sqrt(p(1-p)/n) comparison."""
    if exact.entries.shape != empirical.entries.shape:
        raise DimensionMismatchError("table shapes differ")
    bounds = binomial_bound(exact.entries, n_trials)
    return bool(np.logical_and.reduce(abs(empirical.entries - exact.entries) <= bounds, axis=None))
