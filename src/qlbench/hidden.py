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
from .stats import (SequentialTable, born_distribution, chain_rule, commutation_defect,
                    dispersion, is_integer, overlap_kernel)

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
    ``contexts`` order) and has weight ``weights[m]``.  A weight error names
    its member in the error's ``part``, ``("weight", m)``; a total that is not
    1 names the last member.
    """

    __slots__ = ("values", "weights", "contexts")

    def __init__(self, values: np.ndarray, weights: np.ndarray,
                 contexts: Mapping[str, MeasurementBasis]) -> None:
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
        outside = (values < 0) | (values >= sizes)
        if outside.any():
            m, c = np.argwhere(outside)[0]
            raise InvariantViolationError(
                f"outcome {values[m, c]} out of range for context {list(contexts)[c]!r}")
        if not weights.min() >= 0.0:  # NaN fails
            m = int((weights >= 0.0).argmin())
            raise InvariantViolationError(
                f"weight {float(weights[m])!r} is not a nonnegative number", ("weight", m))
        total = sum(weights.tolist())
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise InvariantViolationError(f"weights sum to {total!r}, not 1",
                                          ("weight", len(weights) - 1))
        self.values = _frozen(values.astype(np.int64, copy=False))
        self.weights = _frozen(weights)
        self.contexts = contexts

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
    in src, the hidden value for dst becomes j.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2:
            raise InvariantViolationError("kernel rows must form a matrix")
        if not (rows >= 0.0).all():
            raise InvariantViolationError("kernel entry negative or not a number")
        sums = rows.sum(axis=1)
        bad = ~(abs(sums - 1.0) <= ROW_TOL)
        if bad.any():
            i = int(bad.argmax())
            raise InvariantViolationError(f"kernel row {i} sums to {float(sums[i])!r}, not 1")
        self.rows = _frozen(rows)


class HiddenModel:
    """A value-definite ensemble plus one transition kernel per ordered context
    pair.  A kernel error names its key in the error's ``part``,
    ``("kernel", (src, dst))``."""

    __slots__ = ("ensemble", "kernels")

    def __init__(self, ensemble: HiddenEnsemble,
                 kernels: Mapping[tuple[str, str], TransitionKernel]) -> None:
        kernels = MappingProxyType(dict(kernels))
        for key, kernel in kernels.items():
            _check_kernel(key, kernel, ensemble.contexts)
        self.ensemble = ensemble
        self.kernels = kernels

    def kernel(self, first: str, then: str) -> TransitionKernel:
        if first == then:
            # repeating a context re-reads the definite value: identity kernel
            basis = self.ensemble.contexts.get(first)
            if basis is None:
                raise PreconditionError(f"context {first!r} not declared")
            return TransitionKernel(np.eye(basis.size))
        try:
            return self.kernels[(first, then)]
        except KeyError:
            raise PreconditionError(f"no kernel declared for order ({first!r}, {then!r})") from None


def _check_kernel(key: tuple[str, str], kernel: TransitionKernel,
                  contexts: Mapping[str, MeasurementBasis]) -> None:
    """Both contexts of ``key`` declared, and one row per outcome of the source
    context with one entry per outcome of the destination context."""
    src, dst = key
    part = ("kernel", key)
    for name in key:
        if name not in contexts:
            raise InvariantViolationError(f"kernel references an undeclared context {name!r}",
                                          part)
    expected = (contexts[src].size, contexts[dst].size)
    if kernel.rows.shape != expected:
        raise InvariantViolationError(
            f"kernel {src} {dst} rows have shape {kernel.rows.shape}, expected {expected} "
            f"(outcomes of {src} × outcomes of {dst})", part)


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
    id_a, id_b = context_ids
    if id_a == id_b:
        raise PreconditionError("context ids must be distinct")
    if state.dim != basis_a.dim or state.dim != basis_b.dim:
        raise PreconditionError("state and bases must share one dimension")

    # member (i, j), in row-major order, has outcome i in a and j in b
    values = np.array(np.divmod(np.arange(basis_a.size * basis_b.size), basis_b.size)).T
    weights = (born_distribution(state, basis_a).probs[:, None]
               * born_distribution(state, basis_b).probs).ravel()
    weights = weights / sum(weights.tolist())

    overlaps = overlap_kernel(basis_a, basis_b)
    kernels = {}
    for key, rows in (((id_a, id_b), overlaps), ((id_b, id_a), overlaps.T)):
        try:  # a basis pair within BASIS_TOL can miss row sums of 1 by more than ROW_TOL
            kernels[key] = TransitionKernel(rows)
        except InvariantViolationError:
            kernels[key] = TransitionKernel(rows / rows.sum(axis=1, keepdims=True))
    ensemble = HiddenEnsemble(values, weights, {id_a: basis_a, id_b: basis_b})
    return HiddenModel(ensemble=ensemble, kernels=kernels)


def exact_sequential(model: HiddenModel, order: tuple[str, str]) -> SequentialTable:
    """Closed-form ordered table: the chain rule on the first marginal and the kernel rows."""
    first, then = order
    ensemble = model.ensemble
    entries = chain_rule(ensemble.marginal(first), model.kernel(first, then).rows)
    return SequentialTable(ensemble.contexts[first], ensemble.contexts[then], entries)


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
    member_counts = rng.multinomial(n_trials, weights / weights.sum())
    counts = np.zeros(kernel.rows.shape)
    first_counts = np.zeros(len(counts), dtype=np.int64)  # exact up to 2**63 - 1 trials
    np.add.at(first_counts, ensemble.values[:, ensemble.column(first)], member_counts)
    for i in first_counts.nonzero()[0]:
        row = kernel.rows[i]
        counts[i] = rng.multinomial(first_counts[i], row / row.sum())
    return SequentialTable(ensemble.contexts[first], ensemble.contexts[then], counts / n_trials)


def _law_lhs(a, b):
    return np.minimum(a, np.maximum(b, 1 - b))


def _law_rhs(a, b):
    return np.maximum(np.minimum(a, b), np.minimum(a, 1 - b))


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
    model = build_qm_equivalent_model(state, basis_a, basis_b, context_ids)
    ensemble = model.ensemble
    id_a, id_b = context_ids

    # proposition k is (context columns[k], outcome outcomes[k]), context by
    # context; truths[m, k] = 1 if member m yields proposition k, else 0
    sizes = [basis.size for basis in ensemble.contexts.values()]
    columns = [c for c, size in enumerate(sizes) for _ in range(size)]
    outcomes = [k for size in sizes for k in range(size)]
    truths = (ensemble.values[:, columns] == outcomes).astype(int)
    value_definite = bool(((truths == 0) | (truths == 1)).all())
    member_max_dispersion = float((truths - truths * truths).max())
    a, b = truths[:, :, None], truths[:, None, :]
    distributive = bool((_law_lhs(a, b) == _law_rhs(a, b)).all())
    pairs_checked = truths.shape[0] * truths.shape[1] ** 2

    marginals = np.concatenate([ensemble.marginal(name) for name in ensemble.contexts])
    mixture_max_dispersion = float(dispersion(marginals).max())

    table_ab = exact_sequential(model, (id_a, id_b))
    table_ba = exact_sequential(model, (id_b, id_a))
    hv_defect = float(abs(table_ab.entries - table_ba.entries.T).max())
    qm_defect = commutation_defect(state, basis_a, basis_b)
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
        kernels[key] = line.build(TransitionKernel, rows)

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
    try:
        return HiddenModel(HiddenEnsemble(values, weights, contexts), kernels)
    except InvariantViolationError as exc:
        if exc.part is None:
            raise
        if exc.part[0] == "kernel":  # its kernel line, first value
            raise declared_at[exc.part[1]].error(str(exc), 1, ConfigSemanticError) from None
        line = members[exc.part[1]][0]  # a weight error: its member line, weight column
        raise line.error(str(exc), len(line.tokens) - 1, ConfigSemanticError) from None


def load_model(path) -> HiddenModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())
