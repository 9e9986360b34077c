"""Command-line front door.

Every command is driven by one optional experiment file (see ``config``) and
is deterministic given (config, seed).  Exit codes: 0 when the run completed
with the documented-expected verdict, 1 when it completed with a negative or
infeasible verdict (search and feasibility commands), 2 on input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ExperimentConfig, check_setting, integer, load_experiment_config
from .errors import PreconditionError, QLBenchError
from .reports import FORMATS, Report, render

if TYPE_CHECKING:
    from .events import OutcomeSpace
    from .hilbert import MeasurementBasis, StateVector
    from .stats import SequentialTable

# Each command imports the modules it uses when it runs, so that a command
# loads only those: the event demos never load numpy.

_DEF_STATE = "z+"


def load_ray_family(path):
    """``coloring.load_ray_family``, importing ``coloring`` when it is called."""
    from . import coloring

    return coloring.load_ray_family(path)


def _resolve_state(config: ExperimentConfig) -> StateVector:
    from .hilbert import named_state

    return config.state if config.state is not None else named_state(_DEF_STATE)


def _check_dims(state: StateVector, *bases: MeasurementBasis) -> None:
    for basis in bases:
        if basis.dim != state.dim:
            raise PreconditionError(
                f"state dimension {state.dim} does not match context dimension {basis.dim}"
            )


def _quantum_inputs(config: ExperimentConfig):
    """The state and two (name, basis) contexts of a two-context command,
    by default z+ measured in z and x, with their dimensions checked."""
    from .hilbert import named_axis_basis

    state = _resolve_state(config)
    if len(config.contexts) == 1:
        raise PreconditionError("this command needs two contexts (got 1)")
    first, second = config.contexts[:2] or (
        ("z", named_axis_basis("z")), ("x", named_axis_basis("x")))
    _check_dims(state, first[1], second[1])
    return state, first, second


def _fmt_vector(vector) -> str:
    parts = []
    for c in map(complex, vector):
        if c.imag == 0.0:
            parts.append(f"{c.real:.6g}")
        else:
            parts.append(f"{c.real:.6g}{c.imag:+.6g}j")
    return "(" + ", ".join(parts) + ")"


def _fmt_set(members) -> str:
    return "{" + ", ".join(sorted(members)) + "}"


def _add_sequential(report: Report, name: str, table: SequentialTable) -> None:
    report.add_table(
        name,
        ["first\\then", *table.second_basis.labels],
        [[label, *map(float, row)] for label, row in zip(table.first_basis.labels, table.entries)],
    )


def _space(config: ExperimentConfig, **default_universes: tuple[str, ...]) -> OutcomeSpace:
    """The config's outcome space, or one made of the (name=labels) defaults."""
    from .events import OutcomeSpace, Universe

    return OutcomeSpace(config.universes or tuple(
        Universe(name, labels) for name, labels in default_universes.items()))


# -- demos ------------------------------------------------------------------


def _cmd_demo_eq5(config: ExperimentConfig) -> Report:
    from . import lattice
    from .hilbert import named_axis_basis, principal_vector

    state = _resolve_state(config)
    # b is the second context, or the only one
    b_basis = config.contexts[:2][-1][1] if config.contexts else named_axis_basis("x")
    _check_dims(state, b_basis)

    a = lattice.Subspace.ray(state.amplitudes)
    b_vector = principal_vector(b_basis.frame[:, 0])
    b = lattice.Subspace.ray(b_vector)
    c = lattice.orthocomplement(b)
    verdict = lattice.distributes(a, b, c)

    report = Report(title="Eq (5) — subspace nondistributivity witness")
    report.add("a (ray)", _fmt_vector(state.amplitudes))
    report.add("b (ray)", _fmt_vector(b_vector))
    report.add("c = b'", "orthocomplement of b")
    report.add("lhs = a ∧ (b ∨ b')  dim", verdict.lhs.dim)
    report.add("rhs = (a ∧ b) ∨ (a ∧ b')  dim", verdict.rhs.dim)
    report.add("lhs equals a", lattice.subspace_equal(verdict.lhs, a))
    report.verdict = "distributive" if verdict.distributive else "nondistributive"
    report.ok = not verdict.distributive
    return report


def _cmd_demo_eq10(config: ExperimentConfig) -> Report:
    from .events import eq10_trace

    space = _space(config, omega=("a", "b", "c", "d"))
    labels = space.labels
    if config.atoms is None and len(labels) < 2:
        raise PreconditionError("the Eq (10) trace needs 'atoms' or two outcome labels")
    atoms = config.atoms if config.atoms is not None else (labels[0], labels[1])
    trace = eq10_trace(atoms[0], atoms[1], space)

    report = Report(title="Eq (10) — classical complement-chain trace")
    report.add("outcome space X", _fmt_set(labels))
    report.add("a", atoms[0])
    report.add("b", atoms[1])
    report.add_table(
        "trace (complements taken in X)",
        ["step", "expression", "value"],
        [[i + 1, line.expression, _fmt_set(line.value)] for i, line in enumerate(trace.lines)],
    )
    report.verdict = trace.verdict
    report.ok = trace.all_equal_to_atom
    return report


def _cmd_demo_mismatch(config: ExperimentConfig) -> Report:
    from .events import universe_mismatch_demo

    space = _space(config, omega_a=("a1", "a2"), omega_b=("b1", "b2"))
    if config.atoms is not None:
        a_label, b_label = config.atoms
    else:
        if len(space.universes) < 2:
            raise PreconditionError("mismatch demo needs two universes")
        a_label = space.universes[0].outcomes[0]
        b_label = space.universes[1].outcomes[0]
    demo = universe_mismatch_demo(a_label, b_label, space)

    report = Report(
        title="complement-universe mismatch (how the Eq (5) inequality is manufactured)"
    )
    report.add("a", demo.a_label)
    report.add("b", demo.b_label)
    report.add("lhs (b complemented in X)", _fmt_set(demo.lhs_mixed))
    report.add("rhs (b complemented in its universe)", _fmt_set(demo.rhs_omega))
    report.add("flag raised", demo.flag_raised)
    report.add("flag", demo.flag)
    report.add_table(
        "self-consistent evaluations",
        ["complement universe", "lhs", "rhs", "equal"],
        [
            ["X", _fmt_set(demo.consistent_space.lhs), _fmt_set(demo.consistent_space.rhs),
             demo.consistent_space.equal],
            ["omega_b (coerced)", _fmt_set(demo.consistent_universe.lhs),
             _fmt_set(demo.consistent_universe.rhs), demo.consistent_universe.equal],
        ],
    )
    for line in demo.coercions:
        report.add("coercion", line)
    consistent = demo.consistent_space.equal and demo.consistent_universe.equal
    report.verdict = demo.flag if demo.flag_raised else "no mismatch produced"
    report.ok = demo.flag_raised and consistent
    return report


# -- sequential statistics ----------------------------------------------------


def _cmd_stats_seq(config: ExperimentConfig) -> Report:
    from . import stats

    state, (name_a, basis_a), (name_b, basis_b) = _quantum_inputs(config)
    forward = stats.sequential_distribution(state, basis_a, basis_b)
    reverse = stats.sequential_distribution(state, basis_b, basis_a)

    born_first = stats.born_distribution(state, basis_a)
    # unclipped row sums: a sum past 1 misses the identity as one short of 1 does
    row_sums = forward.entries.sum(axis=1)
    gap = float(abs(row_sums - born_first.probs).max())

    report = Report(title="Eq (6) — ordered tables and the marginal identity")
    report.add("state", _fmt_vector(state.amplitudes))
    report.add("first context", name_a)
    report.add("then context", name_b)
    _add_sequential(report, f"P({name_a} first, {name_b} then)", forward)
    _add_sequential(report, f"P({name_b} first, {name_a} then)", reverse)
    report.add_table(
        f"marginal of the {name_a}-first table vs direct statistics",
        ["outcome", "row sum", "direct"],
        [
            [label, float(row_sums[i]), float(born_first.probs[i])]
            for i, label in enumerate(basis_a.labels)
        ],
    )
    report.add("marginal identity max gap", gap)
    report.verdict = (
        "marginal identity holds" if gap <= config.tol else "marginal identity violated"
    )
    report.ok = gap <= config.tol
    return report


def _cmd_stats_commute(config: ExperimentConfig) -> Report:
    from . import stats

    state, (name_a, basis_a), (name_b, basis_b) = _quantum_inputs(config)
    defect = stats.commutation_defect(state, basis_a, basis_b)

    report = Report(title="Eq (7) — order-asymmetry (commutation) defect")
    report.add("state", _fmt_vector(state.amplitudes))
    report.add("contexts", f"{name_a}, {name_b}")
    report.add("defect", defect)
    report.verdict = (
        f"noncommuting (defect {defect:.12g} > tol)"
        if defect > config.tol
        else "commuting within tol"
    )
    report.ok = True
    return report


def _cmd_stats_joint(config: ExperimentConfig) -> Report:
    from . import stats

    state, (name_a, basis_a), (name_b, basis_b) = _quantum_inputs(config)
    forward = stats.sequential_distribution(state, basis_a, basis_b)
    reverse = stats.sequential_distribution(state, basis_b, basis_a)
    verdict = stats.joint_exists(forward, reverse, tol=config.tol)

    report = Report(title="Eq (8) — joint-distribution existence")
    report.add("state", _fmt_vector(state.amplitudes))
    report.add("contexts", f"{name_a}, {name_b}")
    report.add("joint exists", verdict.exists)
    if verdict.exists:
        report.add_table(
            "joint distribution over outcome pairs",
            ["pair", "probability"],
            [[label, float(p)] for label, p in zip(verdict.joint.labels, verdict.joint.probs)],
        )
        report.verdict = "joint distribution exists"
    else:
        witness = verdict.witness
        report.add(
            "witness entry",
            f"({basis_a.labels[witness.first_index]}, {basis_b.labels[witness.second_index]})",
        )
        report.add("forward order probability", witness.forward)
        report.add("reverse order probability", witness.reverse)
        report.add("asymmetry", witness.asymmetry)
        report.verdict = "no joint distribution (order-asymmetric)"
    report.ok = verdict.exists
    return report


def _cmd_stats_nondist(config: ExperimentConfig) -> Report:
    from . import stats

    state, (name_a, basis_a), (name_b, basis_b) = _quantum_inputs(config)
    if not 0 <= config.target < basis_a.size:
        raise PreconditionError(
            f"target index {config.target} out of range for context {name_a!r}"
        )
    direct, through = stats._nondistribution_sides(state, basis_a, config.target, basis_b)
    defect = abs(direct - through)

    report = Report(title="Eq (9) — nondistribution defect")
    report.add("state", _fmt_vector(state.amplitudes))
    report.add("target outcome", f"{name_a}:{basis_a.labels[config.target]}")
    report.add("interposed context", name_b)
    report.add("direct probability", direct)
    report.add("total probability through interposed outcomes", through)
    report.add("defect", defect)
    report.verdict = (
        f"nondistributive (defect {defect:.12g} > tol)"
        if defect > config.tol
        else "distributive within tol"
    )
    report.ok = True
    return report


# -- hidden-variable commands --------------------------------------------------


def _build_model(config: ExperimentConfig):
    from . import hidden

    if config.model is not None:
        return hidden.load_model(config.model), None
    state, (name_a, basis_a), (name_b, basis_b) = _quantum_inputs(config)
    return hidden.build_qm_equivalent_model(state, basis_a, basis_b, (name_a, name_b)), state


def _cmd_hv_build(config: ExperimentConfig) -> Report:
    from . import hidden

    model, _state = _build_model(config)
    contexts = model.contexts
    id_a, id_b = contexts

    report = Report(title="dispersion-free ensemble construction")
    report.add("contexts", f"{id_a}, {id_b}")
    report.add("members", len(model.weights))
    labels_a, labels_b = contexts[id_a].labels, contexts[id_b].labels
    report.add_table(
        "ensemble (definite values and weights)",
        [id_a, id_b, "weight"],
        [
            [labels_a[a], labels_b[b], weight]
            for (a, b), weight in zip(model.values.tolist(), model.weights.tolist())
        ],
    )
    for (src, dst), kernel in model.kernels.items():
        report.add_table(
            f"kernel {src} → {dst}",
            [f"{src} outcome", *contexts[dst].labels],
            [
                [contexts[src].labels[i], *[float(x) for x in row]]
                for i, row in enumerate(kernel)
            ],
        )
    report.verdict = "model constructed; every member is value-definite"
    report.ok = True
    report.attachment = hidden.serialize_model(model)
    return report


def _cmd_hv_exact(config: ExperimentConfig) -> Report:
    from . import hidden, stats

    model, state = _build_model(config)
    id_a, id_b = model.contexts
    forward = hidden.exact_sequential(model, (id_a, id_b))
    reverse = hidden.exact_sequential(model, (id_b, id_a))

    report = Report(title="dispersion-free ensemble — exact ordered tables")
    report.add("contexts", f"{id_a}, {id_b}")
    _add_sequential(report, f"P({id_a} first, {id_b} then)", forward)
    _add_sequential(report, f"P({id_b} first, {id_a} then)", reverse)
    ok = True
    if state is not None:
        basis_a, basis_b = model.contexts[id_a], model.contexts[id_b]
        qm_forward = stats.sequential_distribution(state, basis_a, basis_b)
        qm_reverse = stats.sequential_distribution(state, basis_b, basis_a)
        gap = max(
            float(abs(forward.entries - qm_forward.entries).max()),
            float(abs(reverse.entries - qm_reverse.entries).max()),
        )
        report.add("max gap to direct-chain statistics", gap)
        ok = gap <= hidden.AGREEMENT_TOL
    report.verdict = "exact tables computed" + ("" if ok else " (MISMATCH vs direct chain)")
    report.ok = ok
    return report


def _cmd_hv_simulate(config: ExperimentConfig) -> Report:
    from . import hidden, stats

    model, _state = _build_model(config)
    id_a, id_b = model.contexts
    report = Report(title="dispersion-free ensemble — Monte-Carlo run")
    report.add("contexts", f"{id_a}, {id_b}")
    report.add("trials", config.trials)
    report.add("seed", config.seed)
    sigmas = f"{stats.BINOMIAL_Z:g}σ"
    all_within = True
    for offset, order in enumerate([(id_a, id_b), (id_b, id_a)]):
        exact = hidden.exact_sequential(model, order)
        empirical = hidden.simulate_sequential(model, order, config.trials, config.seed + offset)
        within = stats.within_binomial_bound(exact, empirical, config.trials)
        all_within = all_within and within
        _add_sequential(report, f"empirical P({order[0]} first, {order[1]} then)", empirical)
        report.add(f"order ({order[0]}, {order[1]}) within {sigmas} of exact", within)
    report.verdict = (
        f"all entries within the {sigmas} binomial bound"
        if all_within
        else f"some entry outside the {sigmas} binomial bound"
    )
    report.ok = all_within
    return report


def _cmd_hv_audit(config: ExperimentConfig) -> Report:
    from . import hidden

    if config.model is not None:
        raise PreconditionError("hv-audit needs a state and two contexts; a model file has no state")
    state, (name_a, basis_a), (name_b, basis_b) = _quantum_inputs(config)
    audit = hidden.audit_no_go(state, basis_a, basis_b, (name_a, name_b))

    report = Report(title="no-go chain audit (Eq (4) truth tables vs Eq (7) defect)")
    report.add("state", _fmt_vector(state.amplitudes))
    report.add("contexts", f"{name_a}, {name_b}")
    report.add("members value-definite", audit.members_value_definite)
    report.add("members distributive (truth-table law)", audit.members_distributive)
    report.add("proposition pairs checked", audit.member_pairs_checked)
    report.add("per-member max dispersion", audit.member_max_dispersion)
    report.add("mixture max dispersion", audit.mixture_max_dispersion)
    report.add("commutation defect (ensemble)", audit.hv_commutation_defect)
    report.add("commutation defect (direct chain)", audit.qm_commutation_defect)
    report.add("defects match", audit.defects_match)
    _add_sequential(report, f"exact P({name_a} first, {name_b} then)", audit.table_first_then)
    _add_sequential(report, f"exact P({name_b} first, {name_a} then)", audit.table_then_first)
    report.verdict = f"chain {audit.chain_verdict}"
    report.ok = (
        audit.members_value_definite
        and audit.members_distributive
        and audit.defects_match
    )
    return report


# -- search / feasibility -------------------------------------------------------


def _cmd_ks_search(config: ExperimentConfig) -> Report:
    from .coloring import builtin_family, search_bivalent_assignment

    source = config.family if config.family is not None else "builtin:ks18-d4"
    if source.startswith("builtin:"):
        family = builtin_family(source.split(":", 1)[1])
    else:
        family = load_ray_family(source)
    result = search_bivalent_assignment(family)

    report = Report(title="bivalent noncontextual assignment search")
    report.add("family", source)
    report.add("ambient dimension", family.dim)
    report.add("rays", len(family.rays))
    report.add("bases", len(family.bases))
    report.add("decision nodes", result.nodes)
    if result.found:
        report.add_table(
            "assignment (rays valued 1)",
            ["ray index", "coordinates"],
            [[i, _fmt_vector(family.rays[i])] for i, v in enumerate(result.assignment) if v == 1],
        )
        report.verdict = "assignment found"
    else:
        report.verdict = "proved-none (search space exhausted)"
    report.ok = result.found
    return report


def _cmd_lattice_check(config: ExperimentConfig) -> Report:
    from . import lattice, sampling

    report = Report(title="subspace lattice law check")
    report.add("samples per dimension", config.samples)
    report.add("seed", config.seed)
    all_ok = True
    axiom_rows = []
    law_rows = []
    for dim in (2, 3, 4):
        rng = sampling.rng_from(config.seed + dim)
        sample = sampling.random_subspaces(rng, dim, config.samples)
        axioms = lattice.check_lattice_axioms(sample, seed=config.seed)
        for check in axioms.checks:
            axiom_rows.append(
                [dim, check.name, check.checked, check.passed, check.counterexample or ""]
            )
        all_ok = all_ok and axioms.all_passed
        rotated = sample[1:] + sample[:1]
        absorption = bool(lattice.absorption_holds_stacked(sample, rotated).all())
        de_morgan = bool(lattice.de_morgan_holds_stacked(sample, rotated).all())
        inner, outer = sampling.random_nested_pairs(rng, dim, config.samples)
        orthomodular = bool(lattice.orthomodular_holds_stacked(inner, outer).all())
        law_rows.append([dim, "absorption", len(sample), absorption])
        law_rows.append([dim, "De Morgan", len(sample), de_morgan])
        law_rows.append([dim, "orthomodular", len(inner), orthomodular])
        all_ok = all_ok and absorption and de_morgan and orthomodular
    report.add_table("ordering and complement axioms", ["dim", "axiom", "checked", "passed", "counterexample"], axiom_rows)
    report.add_table("lattice laws", ["dim", "law", "checked", "passed"], law_rows)
    report.verdict = "all laws hold" if all_ok else "law violation found"
    report.ok = all_ok
    return report


COMMANDS = {
    "demo-eq5": _cmd_demo_eq5,
    "demo-eq10": _cmd_demo_eq10,
    "demo-mismatch": _cmd_demo_mismatch,
    "stats-seq": _cmd_stats_seq,
    "stats-commute": _cmd_stats_commute,
    "stats-joint": _cmd_stats_joint,
    "stats-nondist": _cmd_stats_nondist,
    "hv-build": _cmd_hv_build,
    "hv-exact": _cmd_hv_exact,
    "hv-simulate": _cmd_hv_simulate,
    "hv-audit": _cmd_hv_audit,
    "ks-search": _cmd_ks_search,
    "lattice-check": _cmd_lattice_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlbench",
        description="Subspace quantum logic, sequential statistics, and hidden-variable workbench.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, help="experiment file")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--seed", type=integer, help="override the seed")
    parser.add_argument("--trials", type=integer, help="override the trial count")
    parser.add_argument("--tol", type=float, help="override the tolerance")
    parser.add_argument(
        "--out",
        type=Path,
        help="write the report here (for hv-build: write the replayable model here)",
    )
    return parser


def _checked(source: str, key: str, value):
    """``check_setting(key, value)``, with a refusal that names ``source``."""
    try:
        return check_setting(key, value)
    except PreconditionError as exc:
        raise PreconditionError(f"{source}: {exc}") from None


def _env_seed(text: str) -> int:
    """``QLBENCH_SEED`` read and checked as ``--seed`` is, with errors that name it."""
    try:
        seed = integer(text)
    except ValueError:
        raise PreconditionError(f"QLBENCH_SEED: invalid integer value: {text!r}") from None
    return _checked("QLBENCH_SEED", "seed", seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = (load_experiment_config(args.config) if args.config is not None
                  else ExperimentConfig())
        env_seed = os.environ.get("QLBENCH_SEED")
        if env_seed is not None:
            config.seed = _env_seed(env_seed)
        for key in ("seed", "trials", "tol"):  # a refusal names its flag, as argparse does
            value = getattr(args, key)
            if value is not None:
                setattr(config, key, _checked(f"argument --{key}", key, value))

        report = COMMANDS[args.command](config)
    except (QLBenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = render(report, args.format)
    if args.out is None:
        sys.stdout.write(rendered)
    elif report.attachment is None:
        args.out.write_text(rendered, encoding="utf-8")
    else:
        args.out.write_text(report.attachment, encoding="utf-8")
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
