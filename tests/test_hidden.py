import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_table,
    random_basis_pair,
    random_commuting_pair,
    random_direction_pair,
    random_state,
    random_unitary,
    scalar_dispersion,
    tilted_z_basis,
    truth_table_distributivity,
)
from qlbench import hidden
from qlbench.config import ConfigSemanticError, ConfigSyntaxError
from qlbench.errors import InvariantViolationError, PreconditionError
from qlbench.hidden import (
    AGREEMENT_TOL,
    CHAIN_BROKEN,
    CHAIN_NOT_EXERCISED,
    NONCOMMUTING_TOL,
    ROW_TOL,
    WEIGHT_TOL,
    HiddenEnsemble,
    HiddenModel,
    TransitionKernel,
    audit_no_go,
    build_qm_equivalent_model,
    exact_sequential,
    parse_model,
    serialize_model,
    simulate_sequential,
)
from qlbench.hilbert import (
    AXIS_NAMES,
    BASIS_TOL,
    STATE_PRESET_NAMES,
    MeasurementBasis,
    named_axis_basis,
    named_state,
    spin_direction_basis,
)
from qlbench.sampling import rng_from
from qlbench.stats import (
    SequentialTable,
    binomial_bound,
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
        ensemble = zx_model.ensemble
        weights = {
            tuple(row): w for row, w in zip(ensemble.values.tolist(), ensemble.weights.tolist())
        }
        assert abs(weights[(0, 0)] - 0.5) < 1e-12
        assert abs(weights[(0, 1)] - 0.5) < 1e-12
        assert weights[(1, 0)] == 0.0
        assert weights[(1, 1)] == 0.0

    def test_kernel_rows_are_squared_overlaps(self, zx_model):
        assert_table(zx_model.kernel("A", "B").rows, [[0.5, 0.5], [0.5, 0.5]])
        assert_table(zx_model.kernel("B", "A").rows, [[0.5, 0.5], [0.5, 0.5]])

    def test_repeated_context_gives_identity_kernels(self, z_plus, z_basis):
        model = build_qm_equivalent_model(z_plus, z_basis, z_basis, ("A", "B"))
        assert_table(model.kernel("A", "B").rows, np.eye(2))
        assert_table(model.kernel("B", "A").rows, np.eye(2))

    def test_construction_invariants(self):
        rng = rng_from(401)
        for _ in range(20):
            state = random_state(rng, 2)
            (p1, a1), (p2, a2) = random_direction_pair(rng), random_direction_pair(rng)
            first = spin_direction_basis(*p1)
            second = spin_direction_basis(*p2)
            model = build_qm_equivalent_model(state, first, second)
            total = sum(model.ensemble.weights.tolist())
            assert abs(total - 1.0) < 1e-12
            for kernel in model.kernels.values():
                assert_table(kernel.rows.sum(axis=1), np.ones(2))

    def test_context_ids_must_differ(self, z_plus, z_basis, x_basis):
        with pytest.raises(PreconditionError):
            build_qm_equivalent_model(z_plus, z_basis, x_basis, ("A", "A"))


def tilted_vectors(rng, dim, factor):
    """The columns of a Haar unitary, the second tilted toward the first so
    that, normalized, they overlap by ``factor`` × ``BASIS_TOL``."""
    vectors = random_unitary(rng, dim).T.copy()
    vectors[1] += factor * BASIS_TOL * vectors[0]
    return vectors


class TestBasesAtBasisTol:
    """Every basis pair that ``MeasurementBasis`` accepts builds a model, though
    the squared overlaps of such a pair can miss row sums of 1 by more than
    ``ROW_TOL``."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_accepted_pair_builds_a_model(self, dim):
        rng = rng_from(405)
        first, then = (MeasurementBasis.from_vectors(tilted_vectors(rng, dim, 0.99))
                       for _ in range(2))
        for basis in (first, then):
            gram_error = np.max(np.abs(basis.frame.conj().T @ basis.frame - np.eye(dim)))
            assert 0.98 * BASIS_TOL < gram_error <= BASIS_TOL
        overlaps = overlap_kernel(first, then)
        assert max(np.max(np.abs(overlaps.sum(axis=axis) - 1.0)) for axis in (0, 1)) > ROW_TOL
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
        assert np.array_equal(model.kernels[("A", "B")].rows, overlaps)
        assert np.array_equal(model.kernels[("B", "A")].rows, overlaps.T)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_pair_past_basis_tol_is_refused(self, dim):
        with pytest.raises(InvariantViolationError, match="not an orthonormal basis"):
            MeasurementBasis.from_vectors(tilted_vectors(rng_from(405), dim, 1.01))


class TestEnsembleInvariants:
    def test_weights_must_be_convex(self, z_basis):
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble([[0]], [0.5], {"A": z_basis})

    def test_negative_weight_rejected(self, z_basis):
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble([[0], [0]], [-0.5, 1.5], {"A": z_basis})

    def test_member_must_cover_all_contexts(self, z_basis, x_basis):
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble([[0]], [1.0], {"A": z_basis, "B": x_basis})

    def test_kernel_rows_must_be_stochastic(self):
        with pytest.raises(InvariantViolationError):
            TransitionKernel([[0.5, 0.2], [0.5, 0.5]])

    def test_kernel_row_sum_error_names_the_first_bad_row(self):
        with pytest.raises(InvariantViolationError) as caught:
            TransitionKernel([[1.0, 0.0], [0.5, 0.2], [0.25, 0.25]])
        assert str(caught.value) == "kernel row 1 sums to 0.7, not 1"
        assert "array(" not in str(caught.value)

    def test_values_and_weights_are_read_only_arrays(self, z_basis, x_basis):
        ensemble = HiddenEnsemble([[0, 1], [1, 0]], [0.25, 0.75], {"A": z_basis, "B": x_basis})
        assert ensemble.values.dtype == np.int64 and ensemble.weights.dtype == float
        assert ensemble.column("B") == 1
        assert_table(ensemble.marginal("B"), [0.75, 0.25])
        with pytest.raises(ValueError):
            ensemble.values[0, 0] = 1
        with pytest.raises(ValueError):
            ensemble.weights[0] = 1.0
        with pytest.raises(PreconditionError):
            ensemble.marginal("C")

    @pytest.mark.parametrize("values, weights", [
        ([[2]], [1.0]),                 # outcome out of range
        ([[-1]], [1.0]),
        ([[0.0]], [1.0]),               # not an integer
        ([[0], [1]], [1.0]),            # a row without a weight
        ([], []),
    ])
    def test_malformed_values_rejected(self, z_basis, values, weights):
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble(values, weights, {"A": z_basis})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, z_basis, bad):
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble([[0], [1]], [bad, 1.0], {"A": z_basis})
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble([[0]], [bad], {"A": z_basis})

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_weight_total_at_weight_tol(self, z_basis, factor, accepted, sign):
        weights = [0.5, 0.5 + sign * factor * WEIGHT_TOL]
        if accepted:
            HiddenEnsemble([[0], [1]], weights, {"A": z_basis})
        else:
            with pytest.raises(InvariantViolationError):
                HiddenEnsemble([[0], [1]], weights, {"A": z_basis})

    def test_weight_sign_boundary(self, z_basis):
        HiddenEnsemble([[0], [1]], [0.0, 1.0], {"A": z_basis})
        with pytest.raises(InvariantViolationError):
            HiddenEnsemble([[0], [1]], [-5e-324, 1.0], {"A": z_basis})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_kernel_entry_rejected(self, bad):
        with pytest.raises(InvariantViolationError):
            TransitionKernel([[bad, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kernel_row_sum_at_row_tol(self, factor, accepted, sign):
        rows = [[0.5, 0.5 + sign * factor * ROW_TOL], [0.5, 0.5]]
        if accepted:
            TransitionKernel(rows)
        else:
            with pytest.raises(InvariantViolationError):
                TransitionKernel(rows)

    @pytest.mark.parametrize("key, rows, message", [
        (("A", "C"), np.eye(2), "kernel references an undeclared context 'C'"),
        (("A", "B"), np.eye(3), "kernel A B rows have shape (3, 3), expected (2, 2)"),
    ])
    def test_model_kernel_error_names_its_key(self, z_basis, x_basis, key, rows, message):
        ensemble = HiddenEnsemble([[0, 0]], [1.0], {"A": z_basis, "B": x_basis})
        with pytest.raises(InvariantViolationError) as caught:
            HiddenModel(ensemble, {key: TransitionKernel(rows)})
        assert str(caught.value).startswith(message)
        assert caught.value.part == ("kernel", key)

    def test_kernel_sign_boundary(self):
        TransitionKernel([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(InvariantViolationError):
            TransitionKernel([[-5e-324, 1.0], [0.5, 0.5]])


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

    def test_same_context_twice_is_diagonal(self, zx_model):
        table = exact_sequential(zx_model, ("B", "B"))
        assert_table(table.entries, [[0.5, 0.0], [0.0, 0.5]])

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
    ensemble = model.ensemble
    kernel = model.kernel(first, then)
    rng = np.random.default_rng(seed)
    weights = ensemble.weights
    first_values = ensemble.values[:, ensemble.context_ids().index(first)]
    member_idx = rng.choice(len(weights), size=n_trials, p=weights / weights.sum())
    firsts = first_values[member_idx]
    cumulative = np.cumsum(kernel.rows, axis=1)
    cumulative[:, -1] = 1.0
    thens = (rng.random(n_trials)[:, None] > cumulative[firsts]).sum(axis=1)
    counts = np.zeros((ensemble.contexts[first].size, ensemble.contexts[then].size))
    np.add.at(counts, (firsts, thens), 1.0)
    return SequentialTable(ensemble.contexts[first], ensemble.contexts[then], counts / n_trials)


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


def per_member_audit_fields(ensemble):
    """The per-member loop of the no-go audit, kept as the oracle for the
    truth-matrix version: (value definite, distributive, pairs, max dispersion)."""
    propositions = [
        (column, outcome)
        for column, basis in enumerate(ensemble.contexts.values())
        for outcome in range(basis.size)
    ]
    value_definite = True
    distributive = True
    pairs_checked = 0
    max_dispersion = 0.0
    for member in ensemble.values.tolist():
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
            expected = per_member_audit_fields(model.ensemble)
            got = (audit.members_value_definite, audit.members_distributive,
                   audit.member_pairs_checked, audit.member_max_dispersion)
            assert got == expected
            assert type(got[2]) is int and type(got[3]) is float
            assert audit.member_pairs_checked == a.size ** 2 * (2 * a.size) ** 2


def generator_dispersions(ensemble):
    """The audit's two dispersion fields as it computed them before the array
    forms: the member truths through np.repeat and np.concatenate with np.max,
    and the mixture's as a generator over scalar dispersions."""
    sizes = [basis.size for basis in ensemble.contexts.values()]
    columns = np.repeat(np.arange(len(sizes)), sizes)
    outcomes = np.concatenate([np.arange(size) for size in sizes])
    truths = (ensemble.values[:, columns] == outcomes).astype(int)
    member = float(np.max(truths - truths * truths))
    mixture = max(scalar_dispersion(float(p))
                  for name in ensemble.contexts for p in ensemble.marginal(name))
    return member, mixture


@st.composite
def audit_inputs(draw):
    """A state and basis pair (d = 2..5): random, commuting, or a preset qubit
    state on axis bases, whose marginals hold exact zeros and ones."""
    kind = draw(st.sampled_from(["random", "commuting", "preset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "preset":
        state = named_state(draw(st.sampled_from(STATE_PRESET_NAMES)))
        return (state, *(named_axis_basis(draw(st.sampled_from(AXIS_NAMES))) for _ in "ab"))
    dim = draw(st.integers(2, 5))
    pair = random_basis_pair if kind == "random" else random_commuting_pair
    return (random_state(rng, dim), *pair(rng, dim))


class TestAuditDispersionsAgainstGeneratorForms:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(audit_inputs())
    def test_identical(self, inputs):
        audit = audit_no_go(*inputs)
        member, mixture = generator_dispersions(build_qm_equivalent_model(*inputs).ensemble)
        assert type(audit.member_max_dispersion) is float
        assert type(audit.mixture_max_dispersion) is float
        assert audit.member_max_dispersion == member
        assert audit.mixture_max_dispersion == mixture


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
        direct = hidden.commutation_defect
        monkeypatch.setattr(hidden, "commutation_defect",
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
        assert loaded.ensemble.weights.tolist() == zx_model.ensemble.weights.tolist()
        assert np.array_equal(loaded.ensemble.values, zx_model.ensemble.values)

    def test_round_trip_generic_direction_pair(self):
        rng = rng_from(404)
        state = random_state(rng, 2)
        d1, d2 = random_direction_pair(rng)
        model = build_qm_equivalent_model(
            state, spin_direction_basis(*d1), spin_direction_basis(*d2), ("north", "tilt")
        )
        loaded = parse_model(serialize_model(model))
        assert loaded.ensemble.context_ids() == ("north", "tilt")
        assert_table(
            exact_sequential(loaded, ("tilt", "north")).entries,
            exact_sequential(model, ("tilt", "north")).entries,
            1e-12,
        )

    def test_incomplete_text_rejected(self):
        with pytest.raises(InvariantViolationError):
            parse_model("model-dim 2\n")


ZX_CONTEXTS = (
    "context z labels z+ z- vectors 1 0 ; 0 1\n"
    "context x labels x+ x- vectors 0.7071067811865476 0.7071067811865476 ; "
    "0.7071067811865476 -0.7071067811865476\n"
)
ZX_KERNEL = "kernel z x rows 0.5 0.5 ; 0.5 0.5\n"
ZX_MEMBERS = "member z=0 x=0 weight 0.5\nmember z=0 x=1 weight 0.5\n"


class TestModelFileChecks:
    def test_well_formed(self):
        model = parse_model("model-dim 2\n" + ZX_CONTEXTS + ZX_MEMBERS + ZX_KERNEL)
        assert model.ensemble.context_ids() == ("z", "x")

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
    ], ids=["repeated-context", "repeated-kernel", "one-context", "three-contexts",
            "repeated-model-dim"])
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
