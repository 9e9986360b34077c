"""Dispersion-free hidden-state ensembles with context-dependent disturbance.

The constructed model assigns every ensemble member a definite outcome for
each declared measurement context, so each member is dispersion-free, yet the
transition kernels (overlap-squared rows, one kernel per ordered context
pair) reproduce the full ordered two-measurement statistics of the source
state, including their order asymmetry.  The kernel choice is the minimal
one; any row-stochastic family with the right conditionals would serve, and
nothing here depends on the kernels knowing the source state.

Model building and exact evaluation are pure.  Monte-Carlo trials draw from
one seeded generator in a fixed order, so a (seed, n_trials) pair fully
determines the empirical table.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from .config import ConfigSemanticError, Line, format_complex, parse_lines
from .errors import InvariantViolationError, PreconditionError
from .hilbert import MeasurementBasis, StateVector, _frozen, principal_vector
from .stats import (SequentialTable, _born_probs, _commutation_defect, _order_asymmetry,
                    chain_rule, dispersion, is_integer, overlap_kernel)

WEIGHT_TOL = 1e-12
ROW_TOL = 1e-12
NONCOMMUTING_TOL = 1e-6  # commutation defect above which the audit exercises the chain
# largest gap at which the model's statistics agree with the direct chain's: its
# ordered tables in hv-exact, its commutation defect in audit_no_go
AGREEMENT_TOL = 1e-9

CHAIN_BROKEN = "broken at 'distributive ⇒ commutative'"
CHAIN_NOT_EXERCISED = "not exercised (compatible observables)"


class HiddenEnsemble:
    """Convex mixture of value-definite members over declared contexts.

    One integer matrix and one weight vector hold the ensemble: member m
    yields outcome ``values[m, c]`` in the c-th declared context (in
    ``contexts`` order) and has weight ``weights[m]``.  The constructor
    stores what the package built (int64 values, float weights), made
    read-only; ``parse_model`` checks a model read from a file.
    """

    __slots__ = ("values", "weights", "contexts")

    def __init__(self, values: np.ndarray, weights: np.ndarray,
                 contexts: Mapping[str, MeasurementBasis]) -> None:
        self.values = _frozen(values)
        self.weights = _frozen(weights)
        self.contexts = MappingProxyType(contexts)

    def context_ids(self) -> tuple[str, ...]:
        return tuple(self.contexts)

    def column(self, context: str) -> int:
        """The column of ``values`` that holds ``context``."""
        ids = self.context_ids()
        if context not in ids:
            raise PreconditionError(f"context {context!r} not declared")
        return ids.index(context)

    def marginal(self, context: str) -> np.ndarray:
        """Probability of each outcome of ``context`` under the mixture."""
        return np.bincount(self.values[:, self.column(context)], weights=self.weights,
                           minlength=self.contexts[context].size)


class TransitionKernel:
    """Row-stochastic disturbance matrix between two measurement contexts.

    A kernel is stored under its ordered context pair (src, dst) in
    ``HiddenModel.kernels``: rows[i, j] = probability that, after outcome i
    in src, the hidden value for dst becomes j.  The constructor stores a
    float matrix the package built, made read-only.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = _frozen(rows)


class HiddenModel:
    """A value-definite ensemble plus one transition kernel per ordered context
    pair, each kernel with one row per outcome of its first context and one
    entry per outcome of its second."""

    __slots__ = ("ensemble", "kernels")

    def __init__(self, ensemble: HiddenEnsemble,
                 kernels: Mapping[tuple[str, str], TransitionKernel]) -> None:
        self.ensemble = ensemble
        self.kernels = MappingProxyType(kernels)

    def kernel(self, first: str, then: str) -> TransitionKernel:
        try:
            return self.kernels[(first, then)]
        except KeyError:
            raise PreconditionError(f"no kernel declared for order ({first!r}, {then!r})") from None


def _not_stochastic(rows: np.ndarray) -> str | None:
    """Why the float matrix ``rows`` is not row-stochastic within ``ROW_TOL``,
    or None when it is."""
    if not all(x >= 0.0 for x in rows.ravel().tolist()):  # NaN fails
        return "kernel entry negative or not a number"
    for i, total in enumerate(np.add.reduce(rows, axis=1).tolist()):
        if not abs(total - 1.0) <= ROW_TOL:
            return f"kernel row {i} sums to {total!r}, not 1"
    return None


def build_qm_equivalent_model(
    state: StateVector,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
    context_ids: tuple[str, str] = ("A", "B"),
) -> HiddenModel:
    """Construct the dispersion-free ensemble that reproduces the state's
    ordered two-measurement statistics for the two declared contexts.

    Member weights are the product of the two single-measurement marginals,
    so both orders see their correct first-measurement distribution; the
    kernels carry the conditional statistics.  Every member has a definite
    outcome for both contexts.
    """
    return _build_model(state, basis_a, basis_b, context_ids)[0]


def _build_model(state: StateVector, basis_a: MeasurementBasis, basis_b: MeasurementBasis,
                 context_ids: tuple[str, str],
                 ) -> tuple[HiddenModel, np.ndarray, np.ndarray, np.ndarray]:
    """The model of :func:`build_qm_equivalent_model`, with the two Born
    vectors and the a-then-b overlap kernel it was built from."""
    id_a, id_b = context_ids
    if id_a == id_b:
        raise PreconditionError("context ids must be distinct")
    if state.dim != basis_a.dim or state.dim != basis_b.dim:
        raise PreconditionError("state and bases must share one dimension")
    born_a, born_b = _born_probs(state, basis_a), _born_probs(state, basis_b)
    overlaps = overlap_kernel(basis_a, basis_b)

    # member (i, j), in row-major order, has outcome i in a and j in b
    values = np.array(np.divmod(np.arange(basis_a.size * basis_b.size), basis_b.size)).T
    # a Born probability can pass 1 by rounding; weigh by what a Distribution stores
    weights = (born_a.clip(0.0, 1.0)[:, None] * born_b.clip(0.0, 1.0)).ravel()
    weights = weights / sum(weights.tolist())

    kernels = {}
    for key, rows in (((id_a, id_b), overlaps), ((id_b, id_a), overlaps.T)):
        # a basis pair within BASIS_TOL can miss row sums of 1 by more than ROW_TOL;
        # squared overlaps are never negative or NaN, so the sums alone decide
        totals = rows.sum(axis=1, keepdims=True)
        if not all(abs(total - 1.0) <= ROW_TOL for total in totals.ravel().tolist()):
            rows = rows / totals
        kernels[key] = TransitionKernel(rows)
    ensemble = HiddenEnsemble(values, weights, {id_a: basis_a, id_b: basis_b})
    return HiddenModel(ensemble=ensemble, kernels=kernels), born_a, born_b, overlaps


def exact_sequential(model: HiddenModel, order: tuple[str, str]) -> SequentialTable:
    """Closed-form ordered table: the chain rule on the first marginal and the kernel rows."""
    return _exact_table(model, order, model.ensemble.marginal(order[0]))


def _exact_table(model: HiddenModel, order: tuple[str, str],
                 first_marginal: np.ndarray) -> SequentialTable:
    """:func:`exact_sequential` on the first context's marginal, already formed."""
    first, then = order
    entries = chain_rule(first_marginal, model.kernel(first, then).rows)
    contexts = model.ensemble.contexts
    return SequentialTable(contexts[first], contexts[then], entries)


def simulate_sequential(
    model: HiddenModel, order: tuple[str, str], n_trials: int, seed: int
) -> SequentialTable:
    """Monte-Carlo realization of the model's ordered statistics.

    Each trial draws a member by weight, reads off its definite value for the
    first context, then redraws the second-context value from the kernel row
    (the first measurement disturbs the hidden value for the other context);
    all trials at once, as member counts by weight, then each first outcome's
    second outcomes from its kernel row.  Deterministic given (seed, n_trials).
    """
    if not (is_integer(n_trials) and is_integer(seed) and seed >= 0):
        raise PreconditionError(f"trial count {n_trials!r} and seed {seed!r} must be "
                                "integers, the seed nonnegative")
    if n_trials < 1:
        raise PreconditionError("need at least one trial")
    first, then = order
    ensemble = model.ensemble
    kernel = model.kernel(first, then)
    rng = np.random.default_rng(seed)

    weights = ensemble.weights
    member_counts = rng.multinomial(n_trials, weights / np.add.reduce(weights))
    counts = np.zeros(kernel.rows.shape)
    first_counts = [0] * len(counts)  # Python ints: exact at any trial count
    for i, count in zip(ensemble.values[:, ensemble.column(first)].tolist(),
                        member_counts.tolist()):
        first_counts[i] += count
    for i, count in enumerate(first_counts):
        if count:
            row = kernel.rows[i]
            counts[i] = rng.multinomial(count, row / np.add.reduce(row))
    return SequentialTable(ensemble.contexts[first], ensemble.contexts[then], counts / n_trials)


def _law_lhs(a, b):
    return min(a, max(b, 1 - b))


def _law_rhs(a, b):
    return max(min(a, b), min(a, 1 - b))


class NoGoAudit:
    """Computed evidence for each link of the implication chain
    value-definiteness → dispersion-free mixtures → distributive logic →
    commutative statistics, on one concrete model.

    The first links hold by construction and by the truth-table check; the
    last fails whenever the two contexts do not commute, which is the point.
    """

    __slots__ = ("context_ids", "member_count", "members_value_definite",
                 "members_distributive", "member_pairs_checked", "member_max_dispersion",
                 "mixture_max_dispersion", "hv_commutation_defect", "qm_commutation_defect",
                 "defects_match", "noncommuting", "chain_verdict", "table_first_then",
                 "table_then_first")

    def __init__(self, context_ids: tuple[str, str], member_count: int,
                 members_value_definite: bool, members_distributive: bool,
                 member_pairs_checked: int, member_max_dispersion: float,
                 mixture_max_dispersion: float, hv_commutation_defect: float,
                 qm_commutation_defect: float, defects_match: bool, noncommuting: bool,
                 chain_verdict: str, table_first_then: SequentialTable,
                 table_then_first: SequentialTable) -> None:
        self.context_ids, self.member_count = context_ids, member_count
        self.members_value_definite = members_value_definite
        self.members_distributive = members_distributive
        self.member_pairs_checked = member_pairs_checked
        self.member_max_dispersion = member_max_dispersion
        self.mixture_max_dispersion = mixture_max_dispersion
        self.hv_commutation_defect = hv_commutation_defect
        self.qm_commutation_defect = qm_commutation_defect
        self.defects_match, self.noncommuting = defects_match, noncommuting
        self.chain_verdict = chain_verdict
        self.table_first_then, self.table_then_first = table_first_then, table_then_first


def audit_no_go(
    state: StateVector,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
    context_ids: tuple[str, str] = ("A", "B"),
) -> NoGoAudit:
    """Build the model and check every auditable link of the chain."""
    model, born_a, born_b, overlaps = _build_model(state, basis_a, basis_b, context_ids)
    ensemble = model.ensemble
    id_a, id_b = context_ids

    # proposition k is (context columns[k], outcome outcomes[k]), context by
    # context; truths[m, k] = 1 if member m yields proposition k, else 0
    sizes = [basis.size for basis in ensemble.contexts.values()]
    columns = [c for c, size in enumerate(sizes) for _ in range(size)]
    outcomes = [k for size in sizes for k in range(size)]
    truths = (ensemble.values[:, columns] == outcomes).astype(int)
    # each check below reads a member's proposition pair (k, l) only through its truth
    # values (a, b), so the value pairs that some member holds decide all m * k * k
    pairs = {(a, b) for row in set(map(frozenset, truths.tolist())) for a in row for b in row}
    value_definite = all(a in (0, 1) for a, _ in pairs)
    member_max_dispersion = float(max(a - a * a for a, _ in pairs))
    distributive = all(_law_lhs(a, b) == _law_rhs(a, b) for a, b in pairs)
    pairs_checked = truths.shape[0] * truths.shape[1] ** 2

    marginal_a, marginal_b = ensemble.marginal(id_a), ensemble.marginal(id_b)
    mixture_max_dispersion = max(dispersion(np.concatenate((marginal_a, marginal_b))).tolist())

    table_ab = _exact_table(model, (id_a, id_b), marginal_a)
    table_ba = _exact_table(model, (id_b, id_a), marginal_b)
    hv_defect = float(np.maximum.reduce(_order_asymmetry(table_ab.entries, table_ba.entries),
                                        axis=None))
    qm_defect = _commutation_defect(born_a, born_b, overlaps)
    defects_match = abs(hv_defect - qm_defect) <= AGREEMENT_TOL
    noncommuting = qm_defect > NONCOMMUTING_TOL

    return NoGoAudit(
        context_ids=context_ids,
        member_count=len(ensemble.weights),
        members_value_definite=value_definite,
        members_distributive=distributive,
        member_pairs_checked=pairs_checked,
        member_max_dispersion=member_max_dispersion,
        mixture_max_dispersion=mixture_max_dispersion,
        hv_commutation_defect=hv_defect,
        qm_commutation_defect=qm_defect,
        defects_match=defects_match,
        noncommuting=noncommuting,
        chain_verdict=CHAIN_BROKEN if noncommuting else CHAIN_NOT_EXERCISED,
        table_first_then=table_ab,
        table_then_first=table_ba,
    )


def serialize_model(model: HiddenModel) -> str:
    """Render a model in the replayable line-oriented experiment format."""
    ensemble = model.ensemble
    ids = ensemble.context_ids()
    dim = ensemble.contexts[ids[0]].dim
    lines = [f"model-dim {dim}"]
    for name in ids:
        basis = ensemble.contexts[name]
        vectors = " ; ".join(
            " ".join(map(format_complex, principal_vector(column)))
            for column in basis.frame.T
        )
        labels = " ".join(basis.labels)
        lines.append(f"context {name} labels {labels} vectors {vectors}")
    for row, weight in zip(ensemble.values.tolist(), ensemble.weights.tolist()):
        values = " ".join(f"{name}={value}" for name, value in zip(ids, row))
        lines.append(f"member {values} weight {weight!r}")
    for (src, dst), kernel in model.kernels.items():
        rows = " ; ".join(" ".join(repr(float(x)) for x in row) for row in kernel.rows)
        lines.append(f"kernel {src} {dst} rows {rows}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> HiddenModel:
    """Parse a model previously produced by :func:`serialize_model`.

    Errors name the line and column (``model line L, column C: ...``).
    """
    dim: int | None = None
    contexts: dict[str, MeasurementBasis] = {}
    members: list[tuple[Line, list[str], list[int]]] = []  # line, context names, outcomes
    weights: list[float] = []
    kernels: dict[tuple[str, str], TransitionKernel] = {}
    declared_at: dict = {}  # context name or kernel key -> its Line

    def declare(key, line: Line, what: str) -> None:
        if key in declared_at:
            raise line.error(f"{what} already declared on line {declared_at[key].lineno}",
                             1, ConfigSemanticError)
        declared_at[key] = line

    def model_dim(line: Line) -> None:
        nonlocal dim
        declare("model-dim", line, "model-dim")
        line.need(1, "one integer")
        dim = line.number(int, 1)

    def context(line: Line) -> None:
        tokens = line.tokens
        if len(tokens) < 3 or tokens[2] != "labels" or "vectors" not in tokens[3:]:
            raise line.error("expected 'context NAME labels LABEL ... vectors ...'", 1)
        name = tokens[1]
        declare(name, line, f"context {name!r}")
        split = tokens.index("vectors", 3)
        vectors = line.groups(complex, split + 1)
        contexts[name] = line.build(MeasurementBasis.from_vectors, vectors, tokens[3:split])

    def member(line: Line) -> None:
        tokens = line.tokens
        if len(tokens) < 3 or tokens[-2] != "weight":
            raise line.error("expected 'member NAME=INDEX ... weight W'", 1)
        pairs = [token.partition("=") for token in tokens[1:-2]]
        outcomes = [line.number(int, index, outcome)
                    for index, (_, _, outcome) in enumerate(pairs, start=1)]
        members.append((line, [name for name, _, _ in pairs], outcomes))
        weights.append(line.number(float, len(tokens) - 1))

    def kernel(line: Line) -> None:
        tokens = line.tokens
        if len(tokens) < 4 or tokens[3] != "rows":
            raise line.error("expected 'kernel SRC DST rows ...'", 1)
        key = (tokens[1], tokens[2])
        declare(key, line, f"kernel {key[0]} {key[1]}")
        rows = line.groups(float, 4)
        if not rows or len(set(map(len, rows))) != 1:
            raise line.error("kernel rows must form a matrix", 1, ConfigSemanticError)
        rows = np.array(rows)
        fault = _not_stochastic(rows)
        if fault:
            raise line.error(fault, 1, ConfigSemanticError)
        kernels[key] = TransitionKernel(rows)

    parse_lines(text, {"model-dim": model_dim, "context": context, "member": member,
                       "kernel": kernel}, "model")
    if dim is None or not contexts or not members:
        raise InvariantViolationError("model file incomplete")
    if len(contexts) != 2:
        raise declared_at[list(contexts)[-1]].error(
            f"a model declares exactly two contexts, this one {len(contexts)}", 1,
            ConfigSemanticError)
    for name, basis in contexts.items():
        if basis.dim != dim:
            raise declared_at[name].error(
                f"context {name!r} has vectors of length {basis.dim}, but model-dim is {dim}",
                1, ConfigSemanticError)
    ids = tuple(contexts)
    values = np.empty((len(members), len(ids)), dtype=np.int64)
    for row, (line, names, outcomes) in zip(values, members):
        given: dict[str, int] = {}  # context name -> its token index
        for index, (name, outcome) in enumerate(zip(names, outcomes), start=1):
            if name not in contexts:
                raise line.error(f"context {name!r} not declared", index, ConfigSemanticError)
            if name in given:
                raise line.error(f"context {name!r} already given at column "
                                 f"{line.column(given[name])}", index, ConfigSemanticError)
            if not 0 <= outcome < contexts[name].size:
                raise line.error(f"outcome {outcome} out of range for context {name!r}, "
                                 f"which has {contexts[name].size}", index, ConfigSemanticError)
            given[name] = index
            row[ids.index(name)] = outcome
        missing = [name for name in ids if name not in given]
        if missing:
            raise line.error(f"no value for context {missing[0]!r}", len(line.tokens) - 2,
                             ConfigSemanticError)
    for (line, _, _), weight in zip(members, weights):
        if not weight >= 0.0:
            raise line.error(f"weight {weight!r} is not a nonnegative number",
                             len(line.tokens) - 1, ConfigSemanticError)
    total = sum(weights)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        line = members[-1][0]
        raise line.error(f"weights sum to {total!r}, not 1", len(line.tokens) - 1,
                         ConfigSemanticError)
    for (src, dst), record in kernels.items():
        line = declared_at[(src, dst)]
        for name in (src, dst):
            if name not in contexts:
                raise line.error(f"kernel references an undeclared context {name!r}", 1,
                                 ConfigSemanticError)
        expected = (contexts[src].size, contexts[dst].size)
        if record.rows.shape != expected:
            raise line.error(f"kernel {src} {dst} rows have shape {record.rows.shape}, expected "
                             f"{expected} (outcomes of {src} × outcomes of {dst})", 1,
                             ConfigSemanticError)
    return HiddenModel(HiddenEnsemble(values, np.array(weights), contexts), kernels)


def load_model(path) -> HiddenModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())
