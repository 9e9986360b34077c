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

from .config import MAX_TRIALS, ConfigSemanticError, Line, format_complex, parse_lines
from .errors import InvariantViolationError, PreconditionError
from .hilbert import (MAX_DIM, MeasurementBasis, StateVector, _frozen, is_integer,
                      principal_vector)
from .stats import (SequentialTable, _memo_born, _memo_kernel, _order_asymmetry, chain_rule,
                    commutation_defect, dispersion)

WEIGHT_TOL = 1e-12
# a basis pair within BASIS_TOL has squared-overlap rows that sum to 1 within
# (d - 1) * BASIS_TOL plus rounding (Gershgorin), at most 7e-10 at d = MAX_DIM
ROW_TOL = 1e-9
NONCOMMUTING_TOL = 1e-6  # commutation defect above which the audit exercises the chain
# largest gap at which the model's statistics agree with the direct chain's: its
# ordered tables in hv-exact, its commutation defect in audit_no_go
AGREEMENT_TOL = 1e-9

CHAIN_BROKEN = "broken at 'distributive ⇒ commutative'"
CHAIN_NOT_EXERCISED = "not exercised (compatible observables)"

# the member grid of a built model in dimension d: row d * i + j is (i, j), the
# member with outcome i in the first context and j in the second; one per d
_MEMBER_GRIDS = tuple(_frozen(np.array(np.divmod(np.arange(d * d), d)).T)
                      for d in range(MAX_DIM + 1))


class HiddenModel:
    """A convex mixture of value-definite members over declared contexts, plus
    one transition kernel per ordered context pair.

    One integer matrix and one weight vector hold the mixture: member m yields
    outcome ``values[m, c]`` in the c-th declared context (in ``contexts``
    order) and has weight ``weights[m]``.  ``kernels[(src, dst)][i, j]`` is the
    probability that, after outcome i in src, the hidden value for dst becomes
    j: one row per outcome of src, one entry per outcome of dst.  The
    constructor stores what the package built (int64 values, float weights and
    kernel rows), made read-only, and forms ``columns``, the map from each
    context to its column, and ``marginals``, each context's outcome
    probabilities under the mixture in column order, once; ``parse_model``
    checks a model read from a file.
    """

    __slots__ = ("values", "weights", "contexts", "kernels", "columns", "marginals")

    def __init__(self, values: np.ndarray, weights: np.ndarray,
                 contexts: Mapping[str, MeasurementBasis],
                 kernels: Mapping[tuple[str, str], np.ndarray]) -> None:
        self.values = _frozen(values)
        self.weights = _frozen(weights)
        self.contexts = MappingProxyType(contexts)
        self.kernels = MappingProxyType({key: _frozen(rows) for key, rows in kernels.items()})
        self.columns = MappingProxyType({name: c for c, name in enumerate(contexts)})
        self.marginals = tuple(
            _frozen(np.bincount(values[:, c], weights=weights, minlength=basis.size))
            for c, basis in enumerate(contexts.values()))

    def column(self, context: str) -> int:
        """The column of ``values`` that holds ``context``."""
        try:
            return self.columns[context]
        except (KeyError, TypeError):  # undeclared, or not a name at all
            raise PreconditionError(f"context {context!r} not declared") from None

    def marginal(self, context: str) -> np.ndarray:
        """Probability of each outcome of ``context`` under the mixture."""
        return self.marginals[self.column(context)]

    def kernel(self, first: str, then: str) -> np.ndarray:
        try:
            return self.kernels[(first, then)]
        except (KeyError, TypeError):  # undeclared, or a name that cannot be a key
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
    outcome for both contexts.  The model is built once per state, basis
    pair and context ids, and kept in the state's memo: a second call
    returns the same read-only model.
    """
    id_a, id_b = context_ids
    if id_a == id_b:
        raise PreconditionError("context ids must be distinct")
    if state.dim != basis_a.dim or state.dim != basis_b.dim:
        raise PreconditionError("state and bases must share one dimension")
    key = (basis_a, basis_b, id_a, id_b)
    model = state._memo.get(key)
    if model is None:
        born_a, born_b = _memo_born(state, basis_a), _memo_born(state, basis_b)
        overlaps = _memo_kernel(state, basis_a, basis_b)
        values = _MEMBER_GRIDS[state.dim]
        # a Born probability can pass 1 by rounding; weigh by what a Distribution stores
        weights = (born_a.clip(0.0, 1.0)[:, None] * born_b.clip(0.0, 1.0)).ravel()
        weights = weights / sum(weights.tolist())
        kernels = {(id_a, id_b): overlaps, (id_b, id_a): overlaps.T}
        model = state._memo[key] = HiddenModel(values, weights, {id_a: basis_a, id_b: basis_b},
                                               kernels)
    return model


def exact_sequential(model: HiddenModel, order: tuple[str, str]) -> SequentialTable:
    """Closed-form ordered table: the chain rule on the first marginal and the kernel rows."""
    first_marginal = model.marginal(order[0])
    first, then = order
    entries = chain_rule(first_marginal, model.kernel(first, then))
    return SequentialTable(model.contexts[first], model.contexts[then], entries)


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
    if not 1 <= n_trials <= MAX_TRIALS:
        raise PreconditionError(f"need 1 to {MAX_TRIALS} trials, not {n_trials}")
    first, then = order
    kernel = model.kernel(first, then)
    rng = np.random.default_rng(seed)

    weights = model.weights
    member_counts = rng.multinomial(n_trials, weights / np.add.reduce(weights))
    counts = np.zeros(kernel.shape)
    first_counts = [0] * len(counts)  # Python ints: exact at any trial count
    for i, count in zip(model.values[:, model.column(first)].tolist(), member_counts.tolist()):
        first_counts[i] += count
    for i, count in enumerate(first_counts):
        if count:
            row = kernel[i]
            counts[i] = rng.multinomial(count, row / np.add.reduce(row))
    return SequentialTable(model.contexts[first], model.contexts[then], counts / n_trials)


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
    """Build the model and check every auditable link of the chain.  The
    model, the Born vectors and the overlap kernel come from the state's
    memo, so an audit after a build or a table on the same inputs forms
    none of them again."""
    model = build_qm_equivalent_model(state, basis_a, basis_b, context_ids)
    id_a, id_b = context_ids

    # proposition k is (context columns[k], outcome outcomes[k]), context by
    # context; truths[m, k] = 1 if member m yields proposition k, else 0
    sizes = [basis.size for basis in model.contexts.values()]
    columns = [c for c, size in enumerate(sizes) for _ in range(size)]
    outcomes = [k for size in sizes for k in range(size)]
    truths = (model.values[:, columns] == outcomes).astype(int)
    # each check below reads a member's proposition pair (k, l) only through its truth
    # values (a, b), so the value pairs that some member holds decide all m * k * k
    pairs = {(a, b) for row in set(map(frozenset, truths.tolist())) for a in row for b in row}
    value_definite = all(a in (0, 1) for a, _ in pairs)
    member_max_dispersion = float(max(a - a * a for a, _ in pairs))
    distributive = all(_law_lhs(a, b) == _law_rhs(a, b) for a, b in pairs)
    pairs_checked = truths.shape[0] * truths.shape[1] ** 2

    mixture_max_dispersion = max(dispersion(np.concatenate(model.marginals)).tolist())

    table_ab = exact_sequential(model, (id_a, id_b))
    table_ba = exact_sequential(model, (id_b, id_a))
    hv_defect = float(np.maximum.reduce(_order_asymmetry(table_ab.entries, table_ba.entries),
                                        axis=None))
    qm_defect = commutation_defect(state, basis_a, basis_b)
    defects_match = abs(hv_defect - qm_defect) <= AGREEMENT_TOL
    noncommuting = qm_defect > NONCOMMUTING_TOL

    return NoGoAudit(
        context_ids=context_ids,
        member_count=len(model.weights),
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
    ids = tuple(model.contexts)
    lines = [f"model-dim {model.contexts[ids[0]].dim}"]
    for name, basis in model.contexts.items():
        vectors = " ; ".join(
            " ".join(map(format_complex, principal_vector(column)))
            for column in basis.frame.T
        )
        labels = " ".join(basis.labels)
        lines.append(f"context {name} labels {labels} vectors {vectors}")
    for row, weight in zip(model.values.tolist(), model.weights.tolist()):
        values = " ".join(f"{name}={value}" for name, value in zip(ids, row))
        lines.append(f"member {values} weight {weight!r}")
    for (src, dst), kernel in model.kernels.items():
        rows = " ; ".join(" ".join(repr(float(x)) for x in row) for row in kernel)
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
    kernels: dict[tuple[str, str], np.ndarray] = {}
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
        kernels[key] = rows

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
    for (src, dst), rows in kernels.items():
        line = declared_at[(src, dst)]
        for name in (src, dst):
            if name not in contexts:
                raise line.error(f"kernel references an undeclared context {name!r}", 1,
                                 ConfigSemanticError)
        expected = (contexts[src].size, contexts[dst].size)
        if rows.shape != expected:
            raise line.error(f"kernel {src} {dst} rows have shape {rows.shape}, expected "
                             f"{expected} (outcomes of {src} × outcomes of {dst})", 1,
                             ConfigSemanticError)
    return HiddenModel(values, np.array(weights), contexts, kernels)


def load_model(path) -> HiddenModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())
