import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_table,
    audit_inputs,
    checked_kernel,
    checked_model,
    gram_tilted_frame,
    hadamard_frame,
    model_inputs,
    near_threshold_floats,
    random_basis_pair,
    random_direction_pair,
    random_state,
    random_unitary,
    scalar_dispersion,
    tilted_vectors,
    tilted_z_basis,
    truth_table_distributivity,
)
from qlbench import cli, hidden, stats
from qlbench.config import (DEFAULT_TOL, ConfigSemanticError, ConfigSyntaxError, Line,
                            format_complex, parse_lines)
from qlbench.errors import InvariantViolationError, PreconditionError, QLBenchError
from qlbench.hidden import (
    AGREEMENT_TOL,
    CHAIN_BROKEN,
    CHAIN_NOT_EXERCISED,
    NONCOMMUTING_TOL,
    ROW_TOL,
    WEIGHT_TOL,
    HiddenModel,
    audit_no_go,
    build_qm_equivalent_model,
    exact_sequential,
    parse_model,
    serialize_model,
    simulate_sequential,
)
from qlbench.hilbert import (BASIS_TOL, MAX_DIM, MeasurementBasis, StateVector,
                             spin_direction_basis)
from qlbench.sampling import rng_from
from qlbench.stats import (
    SequentialTable,
    _born_probs,
    binomial_bound,
    chain_rule,
    dispersion,
    overlap_kernel,
    sequential_distribution,
    within_binomial_bound,
)


@pytest.fixture
def zx_model(z_plus, z_basis, x_basis):
    return build_qm_equivalent_model(z_plus, z_basis, x_basis)


class TestBuildModel:
    def test_weights_are_product_of_marginals(self, zx_model):
        weights = {
            tuple(row): w for row, w in zip(zx_model.values.tolist(), zx_model.weights.tolist())
        }
        assert abs(weights[(0, 0)] - 0.5) < 1e-12
        assert abs(weights[(0, 1)] - 0.5) < 1e-12
        assert weights[(1, 0)] == 0.0
        assert weights[(1, 1)] == 0.0

    def test_kernel_rows_are_squared_overlaps(self, zx_model):
        assert_table(zx_model.kernel("A", "B"), [[0.5, 0.5], [0.5, 0.5]])
        assert_table(zx_model.kernel("B", "A"), [[0.5, 0.5], [0.5, 0.5]])

    def test_repeated_context_gives_identity_kernels(self, z_plus, z_basis):
        model = build_qm_equivalent_model(z_plus, z_basis, z_basis, ("A", "B"))
        assert_table(model.kernel("A", "B"), np.eye(2))
        assert_table(model.kernel("B", "A"), np.eye(2))

    def test_construction_invariants(self):
        rng = rng_from(401)
        for _ in range(20):
            state = random_state(rng, 2)
            (p1, a1), (p2, a2) = random_direction_pair(rng), random_direction_pair(rng)
            first = spin_direction_basis(*p1)
            second = spin_direction_basis(*p2)
            model = build_qm_equivalent_model(state, first, second)
            total = sum(model.weights.tolist())
            assert abs(total - 1.0) < 1e-12
            for kernel in model.kernels.values():
                assert_table(kernel.sum(axis=1), np.ones(2))

    def test_context_ids_must_differ(self, z_plus, z_basis, x_basis):
        with pytest.raises(PreconditionError):
            build_qm_equivalent_model(z_plus, z_basis, x_basis, ("A", "A"))


class TestBasesAtBasisTol:
    """Every basis pair that ``MeasurementBasis`` accepts builds a model: the
    squared overlaps of such a pair miss row sums of 1 by at most
    (d - 1) ``BASIS_TOL`` plus rounding, within ``ROW_TOL``."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_accepted_pair_builds_a_model(self, dim):
        rng = rng_from(405)
        first, then = (MeasurementBasis.from_vectors(tilted_vectors(rng, dim, 0.99))
                       for _ in range(2))
        for basis in (first, then):
            gram_error = np.max(np.abs(basis.frame.conj().T @ basis.frame - np.eye(dim)))
            assert 0.98 * BASIS_TOL < gram_error <= BASIS_TOL
        overlaps = overlap_kernel(first, then)
        assert max(np.max(np.abs(overlaps.sum(axis=axis) - 1.0)) for axis in (0, 1)) <= ROW_TOL
        state = random_state(rng, dim)
        model = build_qm_equivalent_model(state, first, then)
        loaded = parse_model(serialize_model(model))
        for order, bases in ((("A", "B"), (first, then)), (("B", "A"), (then, first))):
            exact = exact_sequential(model, order).entries
            assert_table(exact, sequential_distribution(state, *bases).entries, AGREEMENT_TOL)
            assert_table(exact_sequential(loaded, order).entries, exact, 1e-12)
        assert audit_no_go(state, first, then).defects_match

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_kernels_within_row_tol_are_the_squared_overlaps(self, dim):
        rng = rng_from(406)
        first, then = (MeasurementBasis.from_vectors(random_unitary(rng, dim).T) for _ in range(2))
        overlaps = overlap_kernel(first, then)
        model = build_qm_equivalent_model(random_state(rng, dim), first, then)
        assert np.array_equal(model.kernels[("A", "B")], overlaps)
        assert np.array_equal(model.kernels[("B", "A")], overlaps.T)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_pair_past_basis_tol_is_refused(self, dim):
        with pytest.raises(InvariantViolationError, match="not an orthonormal basis"):
            MeasurementBasis.from_vectors(tilted_vectors(rng_from(405), dim, 1.01))


class TestRowTolBudget:
    """``ROW_TOL`` covers what ``BASIS_TOL`` lets a kernel row miss: a squared
    overlap row of two bases within ``BASIS_TOL`` sums to 1 within
    (d - 1) ``BASIS_TOL`` plus rounding (Gershgorin).  The structured d = 8
    worst case is the Hadamard frame against ``gram_tilted_frame``, whose
    Gram errors all point along the Hadamard frame's first column."""

    def test_tolerances_cover_the_basis_tol_bound(self):
        for tol in (ROW_TOL, AGREEMENT_TOL, DEFAULT_TOL):
            assert tol > (MAX_DIM - 1) * BASIS_TOL

    @pytest.mark.parametrize("tilted_first", [False, True])
    @pytest.mark.parametrize("state_kind", ["top", "other", "random"])
    def test_worst_case_builds_reads_back_and_agrees(self, capsys, tmp_path, tilted_first,
                                                     state_kind):
        hadamard, tilted = hadamard_frame(MAX_DIM), gram_tilted_frame(MAX_DIM, 0.99)
        frames = (tilted, hadamard) if tilted_first else (hadamard, tilted)
        first, then = (MeasurementBasis.from_vectors(frame.T) for frame in frames)
        amplitudes = {"top": hadamard[:, 0], "other": hadamard[:, 1],
                      "random": random_state(rng_from(408), MAX_DIM).amplitudes}[state_kind]
        state = StateVector.normalized(amplitudes)
        overlaps = overlap_kernel(first, then)
        gaps = [float(np.max(np.abs(np.add.reduce(rows, axis=1) - 1.0)))
                for rows in (overlaps, np.ascontiguousarray(overlaps.T))]
        assert 0.98 * (MAX_DIM - 1) * BASIS_TOL < max(gaps) <= ROW_TOL

        model = build_qm_equivalent_model(state, first, then)
        assert model.kernels[("A", "B")].tobytes() == overlaps.tobytes()
        assert model.kernels[("B", "A")].tobytes() == overlaps.T.tobytes()
        text = serialize_model(model)
        loaded = parse_model(text)
        assert serialize_model(loaded) == text
        assert [kernel.tobytes() for kernel in loaded.kernels.values()] == [
            kernel.tobytes() for kernel in model.kernels.values()]
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.values.tobytes() == model.values.tobytes()

        def listed(frame):
            return " ; ".join(" ".join(map(repr, column)) for column in frame.T.tolist())
        config = tmp_path / "exp.cfg"
        config.write_text(f"state {' '.join(map(format_complex, state.amplitudes.tolist()))}\n"
                          + "".join(f"context vectors {listed(frame)}\n" for frame in frames))
        code = cli.main(["hv-exact", "--config", str(config), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["verdict"]) == (0, "exact tables computed")
        assert report["fields"]["max gap to direct-chain statistics"] <= AGREEMENT_TOL
        assert audit_no_go(state, first, then).defects_match

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_planted_row_at_row_tol(self, factor, accepted):
        hadamard, tilted = hadamard_frame(MAX_DIM), gram_tilted_frame(MAX_DIM, 0.99)
        first, then = (MeasurementBasis.from_vectors(frame.T) for frame in (hadamard, tilted))
        model = build_qm_equivalent_model(StateVector(hadamard[:, 0].astype(complex)), first, then)
        lines = serialize_model(model).splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("kernel A B"))
        rows = split_kernel(lines[at])[1]
        # the state is on outcome 0 of A, so every trial draws from this row; its
        # entries before the last sum past 1 + 1e-12, which numpy's multinomial
        # refuses unless simulate_sequential divides the row by its sum
        rows[0] = [0.5 + factor * ROW_TOL, 0.5] + [0.0] * (MAX_DIM - 2)
        lines[at] = kernel_line("A", "B", rows)
        text = "".join(lines)
        total = float(np.add.reduce(np.array(rows[0])))
        if accepted:
            loaded = parse_model(text)
            assert loaded.kernel("A", "B").tolist() == rows
            table = simulate_sequential(loaded, ("A", "B"), 10**5, 0)
            assert table.entries.shape == (MAX_DIM, MAX_DIM)
            assert abs(float(table.entries.sum()) - 1.0) <= 1e-12
        else:
            assert located_refusal(text) == (
                ConfigSemanticError, at + 1, 8, f"kernel row 0 sums to {total!r}, not 1")


ZX_CONTEXTS = (
    "context z labels z+ z- vectors 1 0 ; 0 1\n"
    "context x labels x+ x- vectors 0.7071067811865476 0.7071067811865476 ; "
    "0.7071067811865476 -0.7071067811865476\n"
)
ZX_KERNEL = "kernel z x rows 0.5 0.5 ; 0.5 0.5\n"
ZX_MEMBERS = "member z=0 x=0 weight 0.5\nmember z=0 x=1 weight 0.5\n"


def zx_model_text(members: str = ZX_MEMBERS, kernels: str = ZX_KERNEL) -> str:
    """A z/x qubit model: model-dim on line 1, the contexts on lines 2 and 3,
    then ``members`` and ``kernels``."""
    return "model-dim 2\n" + ZX_CONTEXTS + members + kernels


def located_refusal(text: str) -> tuple:
    """What ``parse_model(text)`` raises, as (error class, line, column, message)."""
    with pytest.raises(InvariantViolationError) as info:
        parse_model(text)
    where, message = str(info.value).split(": ", 1)
    assert where == f"model line {info.value.line}, column {info.value.column}"
    return type(info.value), info.value.line, info.value.column, message


def kernel_line(src: str, dst: str, rows) -> str:
    return f"kernel {src} {dst} rows " + " ; ".join(" ".join(map(repr, row)) for row in rows) + "\n"


class TestEnsembleInvariants:
    """The model reader refuses a weight at its member line (column 23 here,
    the weight's) and a kernel at its kernel line, column 8."""

    def test_weights_must_be_convex(self):
        assert located_refusal(zx_model_text("member z=0 x=0 weight 0.5\n")) == (
            ConfigSemanticError, 4, 23, "weights sum to 0.5, not 1")

    def test_negative_weight_rejected(self):
        members = "member z=0 x=0 weight -0.5\nmember z=0 x=1 weight 1.5\n"
        assert located_refusal(zx_model_text(members)) == (
            ConfigSemanticError, 4, 23, "weight -0.5 is not a nonnegative number")

    def test_member_must_cover_all_contexts(self):
        assert located_refusal(zx_model_text("member z=0 weight 1\n")) == (
            ConfigSemanticError, 4, 12, "no value for context 'x'")

    def test_kernel_rows_must_be_stochastic(self):
        kernel = kernel_line("z", "x", [[0.5, 0.2], [0.5, 0.5]])
        assert located_refusal(zx_model_text(kernels=kernel)) == (
            ConfigSemanticError, 6, 8, "kernel row 0 sums to 0.7, not 1")

    def test_kernel_row_sum_error_names_the_first_bad_row(self):
        kernel = kernel_line("z", "x", [[1.0, 0.0], [0.5, 0.2], [0.25, 0.25]])
        _, _, _, message = located_refusal(zx_model_text(kernels=kernel))
        assert message == "kernel row 1 sums to 0.7, not 1"
        assert "array(" not in message

    def test_values_and_weights_are_read_only_arrays(self):
        members = "member z=0 x=1 weight 0.25\nmember z=1 x=0 weight 0.75\n"
        model = parse_model(zx_model_text(members))
        assert model.values.dtype == np.int64 and model.weights.dtype == float
        assert model.column("x") == 1
        assert_table(model.marginal("x"), [0.75, 0.25])
        with pytest.raises(ValueError):
            model.values[0, 0] = 1
        with pytest.raises(ValueError):
            model.weights[0] = 1.0
        with pytest.raises(ValueError):
            model.kernels[("z", "x")][0, 0] = 1.0
        with pytest.raises(PreconditionError):
            model.marginal("C")

    @pytest.mark.parametrize("members, error, message", [
        ("member z=2 x=0 weight 1\n", ConfigSemanticError,
         "outcome 2 out of range for context 'z', which has 2"),
        ("member z=-1 x=0 weight 1\n", ConfigSemanticError,
         "outcome -1 out of range for context 'z', which has 2"),
        ("member z=0.0 x=0 weight 1\n", ConfigSyntaxError, "malformed integer '0.0'"),
        ("member z=0 x=0 weight 1\nmember z=1 x=0\n", ConfigSyntaxError,
         "expected 'member NAME=INDEX ... weight W'"),
        ("", InvariantViolationError, "model file incomplete"),
    ], ids=["above-range", "negative", "not-an-integer", "no-weight", "no-members"])
    def test_malformed_values_rejected(self, members, error, message):
        with pytest.raises(error) as info:
            parse_model(zx_model_text(members))
        assert type(info.value) is error
        assert str(info.value).endswith(message)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, bad):
        for members in (f"member z=0 x=0 weight {bad}\nmember z=0 x=1 weight 1.0\n",
                        f"member z=0 x=0 weight {bad}\n"):
            assert located_refusal(zx_model_text(members)) == (
                ConfigSyntaxError, 4, 23, f"non-finite number {bad!r}")

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_weight_total_at_weight_tol(self, factor, accepted, sign):
        weight = 0.5 + sign * factor * WEIGHT_TOL
        text = zx_model_text(f"member z=0 x=0 weight 0.5\nmember z=0 x=1 weight {weight!r}\n")
        if accepted:
            assert parse_model(text).weights.tolist() == [0.5, weight]
        else:
            assert located_refusal(text) == (
                ConfigSemanticError, 5, 23, f"weights sum to {0.5 + weight!r}, not 1")

    def test_weight_sign_boundary(self):
        for weight in ("0.0", "-0.0"):
            members = f"member z=0 x=0 weight {weight}\nmember z=0 x=1 weight 1.0\n"
            parse_model(zx_model_text(members))
        text = zx_model_text("member z=0 x=0 weight -5e-324\nmember z=0 x=1 weight 1.0\n")
        assert located_refusal(text) == (
            ConfigSemanticError, 4, 23, "weight -5e-324 is not a nonnegative number")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_kernel_entry_rejected(self, bad):
        # the reader's number grammar refuses the literal; an array's NaN or
        # infinite entry fails the entry or the row-sum check
        text = zx_model_text(kernels=f"kernel z x rows {bad} 1.0 ; 0.5 0.5\n")
        assert located_refusal(text) == (ConfigSyntaxError, 6, 17, f"non-finite number {bad!r}")
        rows = np.array([[float(bad), 1.0], [0.5, 0.5]])
        assert hidden._not_stochastic(rows) == ("kernel row 0 sums to inf, not 1" if bad == "inf"
                                                else "kernel entry negative or not a number")

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kernel_row_sum_at_row_tol(self, factor, accepted, sign):
        rows = [[0.5, 0.5 + sign * factor * ROW_TOL], [0.5, 0.5]]
        text = zx_model_text(kernels=kernel_line("z", "x", rows))
        if accepted:
            assert parse_model(text).kernels[("z", "x")].tolist() == rows
        else:
            assert located_refusal(text) == (
                ConfigSemanticError, 6, 8, f"kernel row 0 sums to {0.5 + rows[0][1]!r}, not 1")

    @pytest.mark.parametrize("kernel, message", [
        ("kernel z C rows 1 0 ; 0 1\n", "kernel references an undeclared context 'C'"),
        ("kernel x z rows 1 0 0 ; 0 1 0 ; 0 0 1\n",
         "kernel x z rows have shape (3, 3), expected (2, 2) (outcomes of x × outcomes of z)"),
    ])
    def test_model_kernel_error_names_its_key(self, kernel, message):
        # the second kernel line is at fault, and its own line is named
        assert located_refusal(zx_model_text(kernels=ZX_KERNEL + kernel)) == (
            ConfigSemanticError, 7, 8, message)

    def test_kernel_sign_boundary(self):
        for entry in (0.0, -0.0):
            parse_model(zx_model_text(kernels=kernel_line("z", "x", [[entry, 1.0], [0.5, 0.5]])))
        text = zx_model_text(kernels=kernel_line("z", "x", [[-5e-324, 1.0], [0.5, 0.5]]))
        assert located_refusal(text) == (
            ConfigSemanticError, 6, 8, "kernel entry negative or not a number")


class TestExactSequential:
    def test_matches_frozen_tables(self, zx_model):
        assert_table(exact_sequential(zx_model, ("A", "B")).entries,
                     [[0.5, 0.5], [0.0, 0.0]])
        assert_table(exact_sequential(zx_model, ("B", "A")).entries,
                     [[0.25, 0.25], [0.25, 0.25]])

    def test_repeated_context_is_diagonal(self, z_plus, z_basis):
        model = build_qm_equivalent_model(z_plus, z_basis, z_basis, ("A", "B"))
        table = exact_sequential(model, ("A", "B"))
        assert_table(table.entries, [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("produce", [
        exact_sequential, lambda model, order: simulate_sequential(model, order, 10, 0),
    ], ids=["exact", "simulate"])
    def test_same_context_twice_is_refused(self, zx_model, produce):
        # a model declares kernels between its two distinct contexts only
        with pytest.raises(PreconditionError, match=r"^no kernel declared for order \('B', 'B'\)$"):
            produce(zx_model, ("B", "B"))

    def test_undeclared_context_rejected(self, zx_model):
        with pytest.raises(PreconditionError):
            exact_sequential(zx_model, ("A", "C"))

    def test_reproduces_chain_statistics_both_orders(self):
        rng = rng_from(402)
        for _ in range(30):
            state = random_state(rng, 2)
            d1, d2 = random_direction_pair(rng)
            first = spin_direction_basis(*d1)
            second = spin_direction_basis(*d2)
            model = build_qm_equivalent_model(state, first, second)
            assert_table(
                exact_sequential(model, ("A", "B")).entries,
                sequential_distribution(state, first, second).entries,
                1e-9,
            )
            assert_table(
                exact_sequential(model, ("B", "A")).entries,
                sequential_distribution(state, second, first).entries,
                1e-9,
            )


class TestSimulateSequential:
    def test_single_trial_has_single_entry(self, zx_model):
        table = simulate_sequential(zx_model, ("A", "B"), 1, seed=7)
        assert float(table.entries.sum()) == 1.0
        assert np.count_nonzero(table.entries) == 1

    def test_same_seed_same_table(self, zx_model):
        first = simulate_sequential(zx_model, ("B", "A"), 5000, seed=11)
        second = simulate_sequential(zx_model, ("B", "A"), 5000, seed=11)
        assert np.array_equal(first.entries, second.entries)

    def test_converges_within_binomial_bound(self, zx_model):
        n = 100_000
        exact = exact_sequential(zx_model, ("B", "A"))
        empirical = simulate_sequential(zx_model, ("B", "A"), n, seed=12)
        assert within_binomial_bound(exact, empirical, n)
        # the bound itself: 4 sigma at p = 0.25 and n = 1e5 is about 0.0055
        assert abs(binomial_bound(0.25, n) - 4 * np.sqrt(0.25 * 0.75 / n)) < 1e-15

    def test_zero_trials_rejected(self, zx_model):
        with pytest.raises(PreconditionError):
            simulate_sequential(zx_model, ("A", "B"), 0, seed=1)

    @pytest.mark.parametrize("n_trials, seed", [
        (1.5, 1), (True, 1), (10.0, 1), ("10", 1),
        (10, -1), (10, 1.5), (10, True), (10, None),
    ])
    def test_non_integer_arguments_refused(self, zx_model, n_trials, seed):
        with pytest.raises(PreconditionError, match="must be integers"):
            simulate_sequential(zx_model, ("A", "B"), n_trials, seed)

    def test_numpy_integers_accepted(self, zx_model):
        table = simulate_sequential(zx_model, ("A", "B"), np.int64(100), np.uint32(3))
        assert np.array_equal(table.entries,
                              simulate_sequential(zx_model, ("A", "B"), 100, 3).entries)


def per_trial_simulate(model, order, n_trials, seed):
    """The per-trial sampler, kept as the oracle for the two-stage one: each
    trial draws a member, reads its first value and redraws the second from
    the kernel row."""
    first, then = order
    kernel = model.kernel(first, then)
    rng = np.random.default_rng(seed)
    weights = model.weights
    first_values = model.values[:, tuple(model.contexts).index(first)]
    member_idx = rng.choice(len(weights), size=n_trials, p=weights / weights.sum())
    firsts = first_values[member_idx]
    cumulative = np.cumsum(kernel, axis=1)
    cumulative[:, -1] = 1.0
    thens = (rng.random(n_trials)[:, None] > cumulative[firsts]).sum(axis=1)
    counts = np.zeros((model.contexts[first].size, model.contexts[then].size))
    np.add.at(counts, (firsts, thens), 1.0)
    return SequentialTable(model.contexts[first], model.contexts[then], counts / n_trials)


def _models():
    rng = rng_from(405)
    models = []
    for dim in (2, 3, 4):
        state = random_state(rng, dim)
        models.append(build_qm_equivalent_model(state, *random_basis_pair(rng, dim)))
    return models


class TestTwoStageSamplerAgainstPerTrial:
    SAMPLERS = (simulate_sequential, per_trial_simulate)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("n", (1, 17, 10_000))
    def test_counts_sum_to_n(self, zx_model, sampler, n):
        for model in (zx_model, *_models()):
            for order in (("A", "B"), ("B", "A")):
                hits = sampler(model, order, n, seed=n).entries * n
                assert float(np.max(np.abs(hits - np.round(hits)))) <= 1e-6
                assert int(np.round(hits).sum()) == n

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_zero_probability_cells_stay_zero(self, z_plus, z_basis, x_basis, sampler):
        # z+ never yields z-, and z then z has identity kernels
        for model, order in (
            (build_qm_equivalent_model(z_plus, z_basis, x_basis), ("A", "B")),
            (build_qm_equivalent_model(z_plus, z_basis, z_basis), ("B", "A")),
        ):
            exact = exact_sequential(model, order)
            for seed in range(5):
                empirical = sampler(model, order, 50_000, seed)
                assert np.all(empirical.entries[exact.entries == 0.0] == 0.0)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_within_four_sigma_on_fixed_seeds(self, zx_model, sampler):
        n = 100_000
        for seed, model in enumerate((zx_model, *_models())):
            for offset, order in enumerate((("A", "B"), ("B", "A"))):
                exact = exact_sequential(model, order)
                empirical = sampler(model, order, n, seed=1000 + 2 * seed + offset)
                assert within_binomial_bound(exact, empirical, n)


def per_member_audit_fields(model):
    """The per-member loop of the no-go audit, kept as the oracle for the
    truth-matrix version: (value definite, distributive, pairs, max dispersion)."""
    propositions = [
        (column, outcome)
        for column, basis in enumerate(model.contexts.values())
        for outcome in range(basis.size)
    ]
    value_definite = True
    distributive = True
    pairs_checked = 0
    max_dispersion = 0.0
    for member in model.values.tolist():
        truths = {(c, outcome): 1 if member[c] == outcome else 0 for c, outcome in propositions}
        if any(t not in (0, 1) for t in truths.values()):
            value_definite = False
        max_dispersion = max(max_dispersion, max(dispersion(float(t)) for t in truths.values()))
        for pa in propositions:
            for pb in propositions:
                pairs_checked += 1
                a, b = truths[pa], truths[pb]
                if min(a, max(b, 1 - b)) != max(min(a, b), min(a, 1 - b)):
                    distributive = False
    return value_definite, distributive, pairs_checked, max_dispersion


class TestAuditAgainstPerMemberLoop:
    def test_member_fields_are_identical(self, z_plus, z_basis, x_basis):
        rng = rng_from(406)
        cases = [(z_plus, z_basis, x_basis), (z_plus, z_basis, z_basis)]
        for dim in (2, 3, 4, 5):
            cases.append((random_state(rng, dim), *random_basis_pair(rng, dim)))
        for state, a, b in cases:
            audit = audit_no_go(state, a, b)
            model = build_qm_equivalent_model(state, a, b)
            expected = per_member_audit_fields(model)
            got = (audit.members_value_definite, audit.members_distributive,
                   audit.member_pairs_checked, audit.member_max_dispersion)
            assert got == expected
            assert type(got[2]) is int and type(got[3]) is float
            assert audit.member_pairs_checked == a.size ** 2 * (2 * a.size) ** 2


def generator_dispersions(model):
    """The audit's two dispersion fields as it computed them before the array
    forms: the member truths through np.repeat and np.concatenate with np.max,
    and the mixture's as a generator over scalar dispersions."""
    sizes = [basis.size for basis in model.contexts.values()]
    columns = np.repeat(np.arange(len(sizes)), sizes)
    outcomes = np.concatenate([np.arange(size) for size in sizes])
    truths = (model.values[:, columns] == outcomes).astype(int)
    member = float(np.max(truths - truths * truths))
    mixture = max(scalar_dispersion(float(p))
                  for name in model.contexts for p in model.marginal(name))
    return member, mixture


class TestAuditDispersionsAgainstGeneratorForms:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(audit_inputs())
    def test_identical(self, inputs):
        audit = audit_no_go(*inputs)
        member, mixture = generator_dispersions(build_qm_equivalent_model(*inputs))
        assert type(audit.member_max_dispersion) is float
        assert type(audit.mixture_max_dispersion) is float
        assert audit.member_max_dispersion == member
        assert audit.mixture_max_dispersion == mixture


def numpy_kernel_checks(rows):
    """The kernel checks as numpy reductions, the form they had before the
    one-pass list form, kept as its oracle: the refusal's message, or None."""
    if not (rows >= 0.0).all():
        return "kernel entry negative or not a number"
    sums = rows.sum(axis=1)
    bad = ~(abs(sums - 1.0) <= ROW_TOL)
    if bad.any():
        i = int(bad.argmax())
        return f"kernel row {i} sums to {float(sums[i])!r}, not 1"
    return None


def numpy_weight_checks(weights):
    """The ensemble's weight checks as numpy reductions (see above): the
    refusal's message and the member it names, or None."""
    if not weights.min() >= 0.0:
        m = int((weights >= 0.0).argmin())
        return f"weight {float(weights[m])!r} is not a nonnegative number", m
    total = sum(weights.tolist())
    if not abs(total - 1.0) <= WEIGHT_TOL:
        return f"weights sum to {total!r}, not 1", len(weights) - 1
    return None


class TestRecordChecksAgainstNumpyForms:
    """The reader's one-pass list checks make the numpy checks' decisions, with
    the same message, at and around every threshold."""

    @settings(max_examples=500, derandomize=True)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(near_threshold_floats(n, ROW_TOL), min_size=1, max_size=4)))
    def test_transition_kernel(self, rows):
        rows = np.array(rows)
        expected = numpy_kernel_checks(rows)
        assert hidden._not_stochastic(rows) == expected
        if not np.isfinite(rows).all():
            return  # the reader's number grammar refuses the literal
        text = zx_model_text(kernels=kernel_line("z", "x", rows.tolist()))
        if expected:
            assert located_refusal(text) == (ConfigSemanticError, 6, 8, expected)
        elif rows.shape != (2, 2):
            assert located_refusal(text)[3].startswith(
                f"kernel z x rows have shape {rows.shape}, expected (2, 2)")
        else:
            assert parse_model(text).kernels[("z", "x")].tobytes() == rows.tobytes()

    @settings(max_examples=500, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda m: near_threshold_floats(m, WEIGHT_TOL)),
           st.integers(0, 2**32 - 1))
    def test_hidden_ensemble(self, weights, seed):
        values = np.random.default_rng(seed).integers(0, 2, (weights.size, 2))
        members = "".join(f"member z={z} x={x} weight {w!r}\n"
                          for (z, x), w in zip(values.tolist(), weights.tolist()))
        text = zx_model_text(members)
        finite = np.isfinite(weights)
        if not finite.all():
            m = int(finite.argmin())
            assert located_refusal(text) == (
                ConfigSyntaxError, 4 + m, 23, f"non-finite number {repr(float(weights[m]))!r}")
        elif numpy_weight_checks(weights):
            message, m = numpy_weight_checks(weights)
            assert located_refusal(text) == (ConfigSemanticError, 4 + m, 23, message)
        else:
            model = parse_model(text)
            assert model.weights.tobytes() == weights.tobytes()
            assert model.values.tobytes() == values.tobytes()


class TestBuiltModelsPassTheChecks:
    """Every model the build makes passes the checks its records no longer run."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(model_inputs())
    def test_checked_model_accepts_it(self, inputs):
        model = build_qm_equivalent_model(*inputs)
        checked_model(model.values, model.weights, model.contexts, model.kernels)
        assert model.values.dtype == np.int64
        arrays = [model.values, model.weights, *model.kernels.values(), *model.marginals]
        assert not any(array.flags.writeable for array in arrays)


def numpy_build_fields(state, a, b):
    """The values, weights and kernel rows build_qm_equivalent_model makes, in
    the numpy form the build had before its records checked in one pass."""
    def born(basis):  # Distribution clips the Born probabilities into [0, 1]
        return np.clip(np.abs(basis.frame.conj().T @ state.amplitudes) ** 2, 0.0, 1.0)
    values = np.array(np.divmod(np.arange(a.size * b.size), b.size)).T
    weights = (born(a)[:, None] * born(b)).ravel()
    weights = weights / sum(weights.tolist())
    overlaps = np.abs(a.frame.conj().T @ b.frame) ** 2
    return values, weights, [overlaps, overlaps.T]


def numpy_audit_fields(state, a, b):
    """Every field of ``audit_no_go(state, a, b)`` in the numpy form the audit
    had before it checked the truth table through distinct value pairs: the
    law and the member dispersion on (m, k, k) and (m, k) int arrays, and
    numpy maxima."""
    model = build_qm_equivalent_model(state, a, b)
    sizes = [basis.size for basis in model.contexts.values()]
    columns = [c for c, size in enumerate(sizes) for _ in range(size)]
    outcomes = [k for size in sizes for k in range(size)]
    truths = (model.values[:, columns] == outcomes).astype(int)
    x, y = truths[:, :, None], truths[:, None, :]
    lhs = np.minimum(x, np.maximum(y, 1 - y))
    rhs = np.maximum(np.minimum(x, y), np.minimum(x, 1 - y))
    marginals = np.concatenate([model.marginal(name) for name in model.contexts])
    marginals = np.minimum(np.maximum(marginals, 0.0), 1.0)
    table_ab, table_ba = (exact_sequential(model, order) for order in (("A", "B"), ("B", "A")))
    hv = float(abs(table_ab.entries - table_ba.entries.T).max())
    kernel = overlap_kernel(a, b)
    forward = chain_rule(_born_probs(state, a), kernel)
    reverse = chain_rule(_born_probs(state, b), kernel.T)
    qm = float(abs(forward - reverse.T).max())
    return {
        "context_ids": ("A", "B"), "member_count": len(model.weights),
        "members_value_definite": bool(((truths == 0) | (truths == 1)).all()),
        "members_distributive": bool((lhs == rhs).all()),
        "member_pairs_checked": truths.shape[0] * truths.shape[1] ** 2,
        "member_max_dispersion": float((truths - truths * truths).max()),
        "mixture_max_dispersion": float((marginals - marginals * marginals).max()),
        "hv_commutation_defect": hv, "qm_commutation_defect": qm,
        "defects_match": abs(hv - qm) <= AGREEMENT_TOL, "noncommuting": qm > NONCOMMUTING_TOL,
        "chain_verdict": CHAIN_BROKEN if qm > NONCOMMUTING_TOL else CHAIN_NOT_EXERCISED,
        "table_first_then": table_ab.entries.tobytes(),
        "table_then_first": table_ba.entries.tobytes(),
    }


@st.composite
def tilted_inputs(draw):
    """Two bases (d = 2, 4, 8) each tilted to 0.99 ``BASIS_TOL``, whose squared
    overlaps miss row sums of 1 by up to (d - 1) ``BASIS_TOL``, and a state:
    random, or on the first ray of the first basis, where a Born probability
    can pass 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 4, 8]))
    first, then = (MeasurementBasis.from_vectors(tilted_vectors(rng, dim, 0.99)) for _ in "ab")
    on_ray = draw(st.booleans())
    state = StateVector(first.frame[:, 0].copy()) if on_ray else random_state(rng, dim)
    return state, first, then


class TestBuildAndAuditAgainstNumpyForms:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(audit_inputs(max_dim=8), tilted_inputs()))
    def test_build_fields_are_identical(self, inputs):
        model = build_qm_equivalent_model(*inputs)
        values, weights, kernels = numpy_build_fields(*inputs)
        assert model.values.dtype == values.dtype
        assert model.values.tobytes() == values.tobytes()
        assert model.weights.tobytes() == weights.tobytes()
        assert [kernel.tobytes() for kernel in model.kernels.values()] == [
            rows.tobytes() for rows in kernels]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(audit_inputs(max_dim=8), tilted_inputs()))
    def test_audit_fields_are_identical(self, inputs):
        audit = audit_no_go(*inputs)
        got = {name: getattr(audit, name) for name in hidden.NoGoAudit.__slots__}
        for name in ("table_first_then", "table_then_first"):
            got[name] = got[name].entries.tobytes()
        expected = numpy_audit_fields(*inputs)
        assert {k: (type(v), repr(v)) for k, v in got.items()} == {
            k: (type(v), repr(v)) for k, v in expected.items()}


class TestAuditFormsEachQuantityOnce:
    """One audit forms each Born vector, the overlap kernel and each marginal
    once; a marginal is formed by ``np.bincount``, in the model's constructor."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_call_counts(self, monkeypatch, dim):
        rng = rng_from(407)
        inputs = (random_state(rng, dim),
                  *(MeasurementBasis.from_vectors(tilted_vectors(rng, dim, 0.99)) for _ in "ab"))
        calls = Counter()

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        for name in ("_born_probs", "overlap_kernel"):
            wrapper = counting(name, getattr(stats, name))
            for module in (stats, hidden):
                monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(np, "bincount", counting("marginal", np.bincount))
        audit_no_go(*inputs)
        assert calls == {"_born_probs": 2, "overlap_kernel": 1, "marginal": 2}


@st.composite
def built_or_parsed_models(draw):
    """A model built from a random state and basis pair (d = 1..8), or the
    model ``parse_model`` reads back from its file."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 8))
    ids = tuple(draw(st.lists(st.text("abxyz", min_size=1, max_size=3), min_size=2, max_size=2,
                              unique=True)))
    model = build_qm_equivalent_model(random_state(rng, dim), *random_basis_pair(rng, dim), ids)
    return parse_model(serialize_model(model)) if draw(st.booleans()) else model


class TestFormedOncePerModel:
    """Built models share one read-only member grid per dimension, and each
    model forms its map from context to column and its marginals once."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_member_grid_is_the_divmod_form_and_read_only(self, seed, dim):
        assert not hidden._MEMBER_GRIDS[dim].flags.writeable  # before any build freezes it
        rng = np.random.default_rng(seed)
        state = random_state(rng, dim)
        first, then = random_basis_pair(rng, dim)
        values = build_qm_equivalent_model(state, first, then).values
        assert values is hidden._MEMBER_GRIDS[dim]
        expected = np.array([divmod(m, dim) for m in range(dim * dim)], dtype=np.int64)
        assert values.dtype == np.int64
        assert values.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            values[0, 0] = 1

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(built_or_parsed_models())
    def test_marginals_are_the_bincounts_and_read_only(self, model):
        assert len(model.marginals) == len(model.contexts)
        for name, basis in model.contexts.items():
            col = model.column(name)
            marginal = model.marginals[col]
            expected = np.bincount(model.values[:, col], weights=model.weights,
                                   minlength=basis.size)
            assert marginal.dtype == expected.dtype and marginal.shape == expected.shape
            assert marginal.tobytes() == expected.tobytes()
            assert model.marginal(name) is marginal
            with pytest.raises(ValueError):
                marginal[0] = 0.5
        for (first, then), rows in model.kernels.items():
            assert model.kernel(first, then) is rows
            with pytest.raises(ValueError):
                rows[0, 0] = 0.5

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           ids=st.lists(st.text(max_size=3), min_size=2, max_size=2, unique=True),
           asked=st.one_of(st.text(max_size=3), st.none(), st.integers(),
                           st.lists(st.text(max_size=1), max_size=2)))
    def test_column_refuses_an_undeclared_context(self, seed, dim, ids, asked):
        rng = np.random.default_rng(seed)
        state = random_state(rng, dim)
        model = build_qm_equivalent_model(state, *random_basis_pair(rng, dim), tuple(ids))
        assert [model.column(name) for name in ids] == [0, 1]
        assume(asked not in ids)
        message = f"context {asked!r} not declared"
        for read in (model.column, model.marginal):
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                read(asked)
        for order in ((asked, ids[0]), (ids[1], asked), (ids[0], ids[0])):
            no_kernel = f"no kernel declared for order ({order[0]!r}, {order[1]!r})"
            # exact_sequential reads the first context's marginal before the kernel
            no_first = no_kernel if order[0] in ids else f"context {order[0]!r} not declared"
            for message, read in ((no_kernel, lambda: model.kernel(*order)),
                                  (no_first, lambda: exact_sequential(model, order)),
                                  (no_kernel, lambda: simulate_sequential(model, order, 10, 0))):
                with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                    read()


class TestTruthTable:
    def test_all_four_rows_agree(self):
        report = truth_table_distributivity()
        assert len(report.rows) == 4
        assert report.all_equal

    def test_specific_row(self):
        report = truth_table_distributivity()
        row = next(r for r in report.rows if (r.a, r.b) == (1, 0))
        assert row.lhs == 1
        assert row.rhs == 1

    def test_false_antecedent_rows(self):
        report = truth_table_distributivity()
        for row in report.rows:
            if row.a == 0:
                assert row.lhs == 0
                assert row.rhs == 0


class TestAuditNoGo:
    def test_noncommuting_pair_breaks_the_chain(self, z_plus, z_basis, x_basis):
        audit = audit_no_go(z_plus, z_basis, x_basis)
        assert audit.members_value_definite
        assert audit.members_distributive
        assert abs(audit.qm_commutation_defect - 0.25) < 1e-12
        assert audit.defects_match
        assert audit.member_max_dispersion == 0.0
        assert audit.mixture_max_dispersion > 0.0
        assert audit.chain_verdict == CHAIN_BROKEN

    def test_compatible_pair_is_not_exercised(self, z_plus, z_basis):
        audit = audit_no_go(z_plus, z_basis, z_basis)
        assert audit.qm_commutation_defect < 1e-12
        assert audit.chain_verdict == CHAIN_NOT_EXERCISED

    def test_random_directions_reproduce_chain_statistics(self):
        rng = rng_from(403)
        for _ in range(30):
            state = random_state(rng, 2)
            d1, d2 = random_direction_pair(rng)
            audit = audit_no_go(state, spin_direction_basis(*d1), spin_direction_basis(*d2))
            assert audit.members_value_definite
            assert audit.members_distributive
            assert audit.defects_match


class TestAuditThresholds:
    @pytest.mark.parametrize("factor, noncommuting", [(0.99, False), (1.01, True)])
    def test_chain_is_exercised_above_noncommuting_tol(self, z_plus, z_basis, factor,
                                                      noncommuting):
        # from z+, the two orders of z and a basis tilted by t differ by (cos t sin t)²
        tilted = tilted_z_basis(math.sqrt(factor * NONCOMMUTING_TOL))
        audit = audit_no_go(z_plus, z_basis, tilted)
        assert audit.noncommuting == noncommuting
        assert audit.chain_verdict == (CHAIN_BROKEN if noncommuting else CHAIN_NOT_EXERCISED)

    @pytest.mark.parametrize("factor, match", [(0.99, True), (1.01, False)])
    def test_defects_match_at_agreement_tol(self, monkeypatch, z_plus, z_basis, x_basis,
                                            factor, match):
        # the direct chain's defect, planted factor × AGREEMENT_TOL above the model's
        direct = hidden._commutation_defect
        monkeypatch.setattr(hidden, "_commutation_defect",
                            lambda *args: direct(*args) + factor * AGREEMENT_TOL)
        assert audit_no_go(z_plus, z_basis, x_basis).defects_match == match


class TestModelSerialization:
    def test_round_trip(self, zx_model):
        text = serialize_model(zx_model)
        loaded = parse_model(text)
        for order in (("A", "B"), ("B", "A")):
            assert_table(
                exact_sequential(loaded, order).entries,
                exact_sequential(zx_model, order).entries,
                1e-12,
            )
        assert loaded.weights.tolist() == zx_model.weights.tolist()
        assert np.array_equal(loaded.values, zx_model.values)

    def test_round_trip_generic_direction_pair(self):
        rng = rng_from(404)
        state = random_state(rng, 2)
        d1, d2 = random_direction_pair(rng)
        model = build_qm_equivalent_model(
            state, spin_direction_basis(*d1), spin_direction_basis(*d2), ("north", "tilt")
        )
        loaded = parse_model(serialize_model(model))
        assert tuple(loaded.contexts) == ("north", "tilt")
        assert_table(
            exact_sequential(loaded, ("tilt", "north")).entries,
            exact_sequential(model, ("tilt", "north")).entries,
            1e-12,
        )

    def test_incomplete_text_rejected(self):
        with pytest.raises(InvariantViolationError):
            parse_model("model-dim 2\n")


class TestModelFileChecks:
    def test_well_formed(self):
        model = parse_model("model-dim 2\n" + ZX_CONTEXTS + ZX_MEMBERS + ZX_KERNEL)
        assert tuple(model.contexts) == ("z", "x")

    @pytest.mark.parametrize("text, line, column, message", [
        ("model-dim 2\n" + ZX_CONTEXTS + "context z labels u d vectors 1 0 ; 0 1\n"
         + ZX_MEMBERS + ZX_KERNEL,
         4, 9, "context 'z' already declared on line 2"),
        ("model-dim 2\n" + ZX_CONTEXTS + ZX_MEMBERS + ZX_KERNEL
         + "kernel z x rows 1 0 ; 0 1\n",
         7, 8, "kernel z x already declared on line 6"),
        ("model-dim 2\ncontext z labels z+ z- vectors 1 0 ; 0 1\nmember z=0 weight 1\n",
         2, 9, "a model declares exactly two contexts, this one 1"),
        ("model-dim 2\n" + ZX_CONTEXTS + "context y labels y+ y- vectors 1 1j ; 1 -1j\n"
         + "member z=0 x=0 y=0 weight 1\n",
         4, 9, "a model declares exactly two contexts, this one 3"),
        ("model-dim 3\nmodel-dim 2\n" + ZX_CONTEXTS + ZX_MEMBERS + ZX_KERNEL,
         2, 11, "model-dim already declared on line 1"),
        ("model-dim 2\n" + ZX_CONTEXTS + ZX_MEMBERS + "kernel z x rows 1 0 ; 0\n",
         6, 8, "kernel rows must form a matrix"),
    ], ids=["repeated-context", "repeated-kernel", "one-context", "three-contexts",
            "repeated-model-dim", "ragged-kernel"])
    def test_semantic_errors_are_located(self, text, line, column, message):
        with pytest.raises(ConfigSemanticError) as info:
            parse_model(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"model line {line}, column {column}: {message}"
        assert isinstance(info.value, InvariantViolationError)

    @pytest.mark.parametrize("bad_line, column, message", [
        ("member z=0 x=one weight 1", 12, "malformed integer 'one'"),
        ("member z=0 x=0 weight nan", 23, "non-finite number 'nan'"),
        ("member z=0 x=0 1", 8, "expected 'member NAME=INDEX ... weight W'"),
        ("kernel z x rows 0.5 0.5 ; 0.5 x", 31, "malformed number 'x'"),
        ("context y labels a b", 9, "expected 'context NAME labels LABEL ... vectors ...'"),
        ("   frobnicate 1", 4, "unknown key 'frobnicate'"),
    ])
    def test_syntax_errors_are_located(self, bad_line, column, message):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_model("model-dim 2\n" + ZX_CONTEXTS + bad_line + "\n")
        assert str(info.value) == f"model line 4, column {column}: {message}"


def reference_parse_model(text: str) -> HiddenModel:
    """Oracle: ``parse_model`` as it was when the hidden-variable constructors
    checked their arguments, unchanged but that those checks are
    ``checked_kernel`` and ``checked_model`` (their reference form), whose
    ``part`` names the line a weight or kernel error is raised at."""
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
        kernels[key] = line.build(checked_kernel, rows)

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
        return checked_model(values, weights, contexts, kernels)
    except InvariantViolationError as exc:
        if exc.part is None:
            raise
        if exc.part[0] == "kernel":  # its kernel line, first value
            raise declared_at[exc.part[1]].error(str(exc), 1, ConfigSemanticError) from None
        line = members[exc.part[1]][0]  # a weight error: its member line, weight column
        raise line.error(str(exc), len(line.tokens) - 1, ConfigSemanticError) from None


ZX_MODEL = zx_model_text(ZX_MEMBERS + "member z=1 x=0 weight 0.0\nmember z=1 x=1 weight 0.0\n",
                         ZX_KERNEL + "kernel x z rows 1 0 ; 1 0\n")
MODEL_FAULTS = ("weight", "total", "entry", "row-sum", "undeclared", "shape", "early-kernel",
                "outcome", "repeat")


def split_kernel(line: str) -> tuple[list[str], list[list[float]]]:
    """A kernel line as its context pair and its rows."""
    head, _, body = line.partition(" rows ")
    return head.split()[1:], [[float(x) for x in group.split()] for group in body.split(";")]


@st.composite
def planted_models(draw):
    """``ZX_MODEL``, or the written model of a random state and basis pair in
    d = 2..4, with up to three faults planted: a weight of -5e-324, -0.0 or
    0.0; a weight moved so that the total is off 1 by 0.99 or 1.01
    ``WEIGHT_TOL``; a kernel entry below 0; a kernel entry moved so that its
    row sum is off 1 by 0.99 or 1.01 ``ROW_TOL``; a kernel naming an
    undeclared context; a kernel a row short or long, or an entry short in
    every row; a kernel line before the context lines; an outcome out of
    range; a repeated line, declaration or member."""
    if draw(st.booleans()):
        dim, text = 2, ZX_MODEL
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dim = draw(st.integers(2, 4))
        text = serialize_model(build_qm_equivalent_model(random_state(rng, dim),
                                                         *random_basis_pair(rng, dim)))
    lines = text.splitlines()
    for fault in draw(st.lists(st.sampled_from(MODEL_FAULTS), max_size=3)):
        member = draw(st.sampled_from([i for i, line in enumerate(lines)
                                       if line.startswith("member")]))
        kernel = draw(st.sampled_from([i for i, line in enumerate(lines)
                                       if line.startswith("kernel")]))
        tokens = lines[member].split()
        pair, rows = split_kernel(lines[kernel])
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        offset = draw(st.sampled_from([0.99, 1.01, -0.99, -1.01]))
        if fault == "weight":
            tokens[-1] = repr(draw(st.sampled_from([-5e-324, -0.0, 0.0])))
        elif fault == "total":
            tokens[-1] = repr(float(tokens[-1]) + offset * WEIGHT_TOL)
        elif fault == "entry":
            rows[i][j] = draw(st.sampled_from([-5e-324, -1e-300, -0.25]))
        elif fault == "row-sum":
            rows[i][j] += offset * ROW_TOL
        elif fault == "undeclared":
            pair[draw(st.integers(0, 1))] = "C"
        elif fault == "shape":
            rows = draw(st.sampled_from([rows[:-1] or rows + rows, rows + rows[:1],
                                         [row[:-1] or row + row for row in rows]]))
        elif fault == "early-kernel":
            lines.insert(draw(st.integers(0, 1)), lines.pop(kernel))
            continue
        elif fault == "outcome":
            k = draw(st.integers(1, len(tokens) - 3))
            name = tokens[k].partition("=")[0]
            tokens[k] = f"{name}={draw(st.sampled_from([-1, dim, 2**40]))}"
        else:
            copied = draw(st.integers(0, len(lines) - 1))
            lines.insert(draw(st.integers(copied + 1, len(lines))), lines[copied])
            continue
        lines[member] = " ".join(tokens)
        lines[kernel] = kernel_line(*pair, rows).rstrip("\n")
    return "\n".join(lines) + "\n"


def read_or_refused(parse, text: str) -> tuple:
    """The model ``parse(text)`` reads, as the bytes, shape, dtype and
    writeability of each of its arrays with its context labels and kernel
    keys; or the class, text, line and column of its refusal."""
    try:
        model = parse(text)
    except QLBenchError as exc:
        return ("refused", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    contexts = model.contexts
    arrays = [model.values, model.weights, *model.kernels.values(), *model.marginals,
              *(basis.frame for basis in contexts.values())]
    return ("read", tuple(model.kernels), [(name, basis.labels) for name, basis in contexts.items()],
            [(a.dtype.str, a.shape, a.tobytes(), a.flags.writeable) for a in arrays])


class TestReaderAgainstReference:
    """``parse_model`` reads or refuses each model text as the reader whose
    records checked themselves did."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(text=planted_models())
    def test_matches_the_checked_constructors(self, text):
        assert read_or_refused(parse_model, text) == read_or_refused(reference_parse_model, text)
