import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DISTRIBUTION_TOL,
    EDGE_FLOATS,
    assert_table,
    checked_distribution,
    checked_table,
    commuting_bases,
    gram_tilted_frame,
    hadamard_frame,
    model_inputs,
    near_threshold_floats,
    random_basis_pair,
    random_commuting_pair,
    random_state,
    random_unitary,
    refusal,
    scalar_dispersion,
    tilted_z_basis,
)
from projector_oracle import COMMUTATOR_TOL, born_probability, collapse, commutes, projectors
from qlbench import hidden, stats
from qlbench.config import DEFAULT_TOL
from qlbench.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    PreconditionError,
)
from qlbench.hidden import (build_qm_equivalent_model, exact_sequential, parse_model,
                            serialize_model, simulate_sequential)
from qlbench.hilbert import (
    BASIS_TOL,
    NORM_TOL,
    ZERO_PROBABILITY,
    MeasurementBasis,
    StateVector,
    named_state,
)
from qlbench.sampling import rng_from
from qlbench.stats import (
    BASES_EQUAL_TOL,
    ENTRY_TOL,
    Distribution,
    SequentialTable,
    bases_equal,
    binomial_bound,
    born_distribution,
    chain_rule,
    commutation_defect,
    dispersion,
    joint_exists,
    marginal_over_second,
    nondistribution_defect,
    overlap_kernel,
    sequential_distribution,
    within_binomial_bound,
)


class TestDistribution:
    """The checks ``Distribution`` ran when its constructor checked, kept in
    the reference form ``checked_distribution``."""

    def test_rejects_bad_total(self):
        with pytest.raises(InvariantViolationError):
            checked_distribution(("a", "b"), (0.6, 0.6))

    def test_rejects_negative(self):
        with pytest.raises(InvariantViolationError):
            checked_distribution(("a", "b"), (-0.2, 1.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvariantViolationError, match="probability outside"):
            checked_distribution(("a", "b"), (bad, 1.0))

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("probs", [
        lambda eps: (-eps, 0.5 + eps, 0.5),     # below 0, total 1
        lambda eps: (1.0 + eps, 0.0, 0.0),      # above 1, total within DISTRIBUTION_TOL
    ], ids=["lower", "upper"])
    def test_entry_range_at_entry_tol(self, probs, factor, accepted):
        check_accepts(accepted, checked_distribution, ("a", "b", "c"), probs(factor * ENTRY_TOL))

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_total_at_distribution_tol(self, factor, accepted, sign):
        check_accepts(accepted, checked_distribution, ("a", "b"),
                      (0.5, 0.5 + sign * factor * DISTRIBUTION_TOL))


def check_accepts(accepted, make, *args):
    """``make(*args)`` builds when ``accepted``, else raises InvariantViolationError."""
    if accepted:
        make(*args)
    else:
        with pytest.raises(InvariantViolationError):
            make(*args)


class TestBornDistribution:
    def test_eigenstate(self, z_plus, z_basis):
        dist = born_distribution(z_plus, z_basis)
        assert_table(dist.probs, [1.0, 0.0])

    def test_superposed(self, z_plus, x_basis):
        dist = born_distribution(z_plus, x_basis)
        assert_table(dist.probs, [0.5, 0.5])

    def test_sums_to_one(self):
        rng = rng_from(301)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            basis, _ = random_basis_pair(rng, dim)
            assert abs(float(born_distribution(state, basis).probs.sum()) - 1.0) < 1e-10

    def test_dimension_mismatch(self, z_plus):
        rng = rng_from(302)
        basis, _ = random_basis_pair(rng, 3)
        with pytest.raises(DimensionMismatchError):
            born_distribution(z_plus, basis)


class TestSequentialDistribution:
    def test_z_then_x(self, z_plus, z_basis, x_basis):
        table = sequential_distribution(z_plus, z_basis, x_basis)
        assert_table(table.entries, [[0.5, 0.5], [0.0, 0.0]])

    def test_x_then_z(self, z_plus, z_basis, x_basis):
        table = sequential_distribution(z_plus, x_basis, z_basis)
        assert_table(table.entries, [[0.25, 0.25], [0.25, 0.25]])

    def test_repeated_basis_is_diagonal(self, x_basis):
        state = named_state("z+")
        table = sequential_distribution(state, x_basis, x_basis)
        born = born_distribution(state, x_basis)
        assert_table(np.diag(table.entries), born.probs)
        assert_table(table.entries - np.diag(np.diag(table.entries)),
                     np.zeros((2, 2)))

    def test_invariants_hold_for_random_draws(self):
        rng = rng_from(303)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            first, second = random_basis_pair(rng, dim)
            table = sequential_distribution(state, first, second)
            assert float(table.entries.min()) >= 0.0
            assert abs(float(table.entries.sum()) - 1.0) < 1e-9
            assert_table(marginal_over_second(table).probs,
                         born_distribution(state, first).probs, 1e-9)


class TestSequentialTableInvariants:
    """The checks ``SequentialTable`` ran when its constructor checked, kept
    in the reference form ``checked_table``."""

    def test_rejects_negative_entry(self, z_basis, x_basis):
        with pytest.raises(InvariantViolationError):
            checked_table(z_basis, x_basis, [[0.75, 0.5], [-0.25, 0.0]])

    def test_rejects_bad_total(self, z_basis, x_basis):
        with pytest.raises(InvariantViolationError):
            checked_table(z_basis, x_basis, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("bad, message", [(math.nan, "negative or not a number"),
                                              (-math.inf, "negative or not a number"),
                                              (math.inf, "table sums to inf")])
    def test_rejects_non_finite(self, z_basis, x_basis, bad, message):
        with pytest.raises(InvariantViolationError, match=message):
            checked_table(z_basis, x_basis, [[bad, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_negative_entry_at_entry_tol(self, z_basis, x_basis, factor, accepted):
        eps = factor * ENTRY_TOL
        check_accepts(accepted, checked_table, z_basis, x_basis, [[-eps, 0.5 + eps], [0.5, 0.0]])

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_total_at_distribution_tol(self, z_basis, x_basis, factor, accepted, sign):
        check_accepts(accepted, checked_table, z_basis, x_basis,
                      [[0.5, 0.5 + sign * factor * DISTRIBUTION_TOL], [0.0, 0.0]])


class TestMarginalIdentity:
    def test_z_then_x_marginal(self, z_plus, z_basis, x_basis):
        table = sequential_distribution(z_plus, z_basis, x_basis)
        assert_table(marginal_over_second(table).probs, [1.0, 0.0])

    def test_x_then_z_marginal(self, z_plus, z_basis, x_basis):
        table = sequential_distribution(z_plus, x_basis, z_basis)
        assert_table(marginal_over_second(table).probs, [0.5, 0.5])

    def test_identity_for_random_draws(self):
        rng = rng_from(304)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            first, second = random_basis_pair(rng, dim)
            table = sequential_distribution(state, first, second)
            marginal = marginal_over_second(table)
            assert_table(marginal.probs, born_distribution(state, first).probs, 1e-9)


class TestNondistributionDefect:
    def test_interposed_equator_measurement(self, z_plus, z_basis, x_basis):
        defect = nondistribution_defect(z_plus, z_basis, 0, x_basis)
        assert abs(defect - 0.5) < 1e-12

    def test_interposing_the_same_basis_is_free(self, z_plus, z_basis):
        assert nondistribution_defect(z_plus, z_basis, 0, z_basis) < 1e-12

    def test_commuting_interposition_is_free(self):
        rng = rng_from(305)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            first, second = random_commuting_pair(rng, dim)
            for index in range(first.size):
                assert nondistribution_defect(state, first, index, second) < 1e-12

    def test_index_out_of_range(self, z_plus, z_basis, x_basis):
        with pytest.raises(PreconditionError):
            nondistribution_defect(z_plus, z_basis, 5, x_basis)

    @pytest.mark.parametrize("index", [True, False, 0.0, 1.5, "0", None])
    def test_non_integer_index_refused(self, z_plus, z_basis, x_basis, index):
        with pytest.raises(PreconditionError, match="outcome index"):
            nondistribution_defect(z_plus, z_basis, index, x_basis)

    def test_numpy_integer_index_accepted(self, z_plus, z_basis, x_basis):
        assert nondistribution_defect(z_plus, z_basis, np.int64(0), x_basis) == \
            nondistribution_defect(z_plus, z_basis, 0, x_basis)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(model_inputs(), st.integers(0, 7), st.booleans())
    def test_sides_are_the_forms_stats_nondist_printed(self, inputs, index, on_ray):
        state, target, interposed = inputs
        index %= target.size
        if on_ray:  # where the Born probability can pass 1
            state = StateVector(target.frame[:, index].copy())
        direct, through = stats._nondistribution_sides(state, target, index, interposed)
        assert direct == float(stats._born_probs(state, target)[index])
        # before both sides came from one call, the report read the direct side off
        # a Distribution (clipped into [0, 1]) and the other off the reverse table
        assert min(direct, 1.0) == born_distribution(state, target)[index]
        reverse = sequential_distribution(state, interposed, target)
        assert through == float(reverse.entries[:, index].sum())
        assert nondistribution_defect(state, target, index, interposed) == abs(direct - through)


class TestPlantedSharedRay:
    """When the target ray is one of the interposed basis rays (up to phase),
    P(b_j then a_t) = delta_jk P(b_k) = P(a_t): the defect is zero to rounding
    in every state."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0 * math.pi),
           st.data())
    def test_defect_is_zero(self, dim, seed, phase, data):
        rng = rng_from(seed)
        interposed = random_unitary(rng, dim)
        shared = interposed[:, data.draw(st.integers(0, dim - 1))]
        # an orthonormal frame whose first column is the shared ray times a phase,
        # with that column then moved to the target index
        frame, _ = np.linalg.qr(np.column_stack([shared, random_unitary(rng, dim)[:, 1:]]))
        frame[:, 0] = shared * np.exp(1j * phase)
        target = data.draw(st.integers(0, dim - 1))
        frame = np.roll(frame, target, axis=1)
        defect = nondistribution_defect(random_state(rng, dim),
                                        MeasurementBasis.from_vectors(frame.T), target,
                                        MeasurementBasis.from_vectors(interposed.T))
        assert defect <= 4 * dim * np.finfo(float).eps


class TestCommutationDefect:
    def test_z_x_pair(self, z_plus, z_basis, x_basis):
        assert abs(commutation_defect(z_plus, z_basis, x_basis) - 0.25) < 1e-12

    def test_same_basis(self, z_plus, z_basis):
        assert commutation_defect(z_plus, z_basis, z_basis) < 1e-12

    def test_commuting_bases(self):
        rng = rng_from(306)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            first, second = random_commuting_pair(rng, dim)
            assert commuting_bases(first, second)
            assert commutation_defect(state, first, second) < 1e-12


class TestBasisComparisonThresholds:
    @pytest.mark.parametrize("factor, equal", [(0.99, True), (1.01, False)])
    def test_bases_equal_at_bases_equal_tol(self, z_basis, factor, equal):
        assert bases_equal(z_basis, tilted_z_basis(factor * BASES_EQUAL_TOL)) == equal

    @pytest.mark.parametrize("factor, commuting", [(0.99, True), (1.01, False)])
    def test_commuting_bases_at_commutator_tol(self, z_basis, factor, commuting):
        assert commuting_bases(z_basis, tilted_z_basis(factor * COMMUTATOR_TOL)) == commuting


class TestJointExists:
    def test_commuting_pair_has_joint(self):
        rng = rng_from(307)
        state = random_state(rng, 3)
        first, second = random_commuting_pair(rng, 3)
        forward = sequential_distribution(state, first, second)
        reverse = sequential_distribution(state, second, first)
        verdict = joint_exists(forward, reverse)
        assert verdict.exists
        assert verdict.witness is None
        assert_table(verdict.joint.probs, forward.entries.reshape(-1), 1e-12)

    def test_noncommuting_pair_has_witness(self, z_plus, z_basis, x_basis):
        forward = sequential_distribution(z_plus, z_basis, x_basis)
        reverse = sequential_distribution(z_plus, x_basis, z_basis)
        verdict = joint_exists(forward, reverse)
        assert not verdict.exists
        witness = verdict.witness
        assert (witness.first_index, witness.second_index) == (0, 0)
        assert abs(witness.forward - 0.5) < 1e-12
        assert abs(witness.reverse - 0.25) < 1e-12
        assert abs(witness.asymmetry - 0.25) < 1e-12

    def test_hand_built_symmetric_tables(self, z_basis, x_basis):
        entries = np.array([[0.4, 0.1], [0.2, 0.3]])
        forward = SequentialTable(z_basis, x_basis, entries)
        reverse = SequentialTable(x_basis, z_basis, entries.T)
        assert joint_exists(forward, reverse).exists

    def test_basis_mismatch_rejected(self, z_plus, z_basis, x_basis):
        forward = sequential_distribution(z_plus, z_basis, x_basis)
        with pytest.raises(PreconditionError):
            joint_exists(forward, forward)

    def test_verdict_tracks_commutation_defect(self):
        rng = rng_from(308)
        for k in range(40):
            dim = int(rng.integers(2, 5))
            state = random_state(rng, dim)
            if k % 2:
                first, second = random_commuting_pair(rng, dim)
            else:
                first, second = random_basis_pair(rng, dim)
            forward = sequential_distribution(state, first, second)
            reverse = sequential_distribution(state, second, first)
            defect = commutation_defect(state, first, second)
            assert joint_exists(forward, reverse, tol=1e-9).exists == (defect <= 1e-9)

    @pytest.mark.parametrize("factor, exists", [(0.99, True), (1.01, False)])
    def test_default_tol_matches_the_command_line_default(self, z_basis, x_basis, factor, exists):
        # one entry pair off by factor * 1e-9; the library default and the
        # --tol default of the commands decide alike
        gap = factor * 1e-9
        entries = np.array([[0.4, 0.1], [0.2, 0.3]])
        forward = SequentialTable(z_basis, x_basis, entries)
        reverse = SequentialTable(x_basis, z_basis, (entries + [[gap, -gap], [0.0, 0.0]]).T)
        assert joint_exists(forward, reverse).exists == exists
        assert joint_exists(forward, reverse, tol=DEFAULT_TOL).exists == exists


class TestDispersion:
    def test_endpoints_are_dispersion_free(self):
        assert dispersion(0.0) == 0.0
        assert dispersion(1.0) == 0.0

    def test_maximum_at_half(self):
        assert abs(dispersion(0.5) - 0.25) < 1e-15

    @settings(max_examples=200, derandomize=True)
    @given(p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_strictly_positive_between(self, p):
        assert dispersion(p) > 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            dispersion(1.5)


# -0.0, 0.0 and the ends of the accepted range, or any float inside it
EDGE_PROBABILITIES = (st.sampled_from([-0.0, 0.0, 1.0, -ENTRY_TOL, 1.0 + ENTRY_TOL, -5e-324])
                      | st.floats(-ENTRY_TOL, 0.0) | st.floats(1.0, 1.0 + ENTRY_TOL)
                      | st.floats(-ENTRY_TOL, 1.0 + ENTRY_TOL))


class TestDispersionArray:
    @settings(max_examples=400, derandomize=True)
    @given(st.lists(EDGE_PROBABILITIES, min_size=1, max_size=20))
    def test_equals_the_scalar_formula_bit_for_bit(self, ps):
        expected = np.array([scalar_dispersion(p) for p in ps])
        assert dispersion(np.array(ps)).tobytes() == expected.tobytes()
        assert np.array([dispersion(p) for p in ps]).tobytes() == expected.tobytes()

    def test_names_the_first_entry_out_of_range(self):
        with pytest.raises(PreconditionError, match=r"^probability 1\.5 outside \[0, 1\]$"):
            dispersion(np.array([0.5, 1.5, -1.0]))


@st.composite
def near_edge_probabilities(draw, size=None):
    """Probabilities that sum to 1 within DISTRIBUTION_TOL, with entries at
    -0.0, tiny negatives and (for a certain outcome) just above 1."""
    n = draw(st.integers(1, 9)) if size is None else size
    edges = draw(st.lists(st.sampled_from([-0.0, 0.0, -ENTRY_TOL]) | st.floats(-ENTRY_TOL, 0.0),
                          max_size=n - 1))
    rest = n - len(edges)
    if rest == 1:
        head = [draw(st.floats(1.0 - 1e-10, 1.0 + ENTRY_TOL))]
    else:
        head = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(rest))
    return np.array(draw(st.permutations([*head, *edges])))


class TestClippingAgainstNpClip:
    @settings(max_examples=300, derandomize=True)
    @given(near_edge_probabilities())
    def test_distribution_clips_as_np_clip(self, probs):
        labels = tuple(str(k) for k in range(probs.size))
        got = Distribution(labels, probs).probs
        assert got.tobytes() == np.clip(probs, 0.0, 1.0).tobytes()  # signbit included

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda d: near_edge_probabilities(d * d)))
    def test_sequential_table_clips_as_np_clip(self, entries):
        dim = math.isqrt(entries.size)
        basis = MeasurementBasis(np.eye(dim), tuple(str(k) for k in range(dim)))
        entries = entries.reshape(dim, dim)
        got = SequentialTable(basis, basis, entries).entries
        assert got.tobytes() == np.clip(entries, 0.0, None).tobytes()  # signbit included


def numpy_distribution_checks(probs):
    """``checked_distribution``'s checks as numpy reductions, the form they had
    before the one-pass list form, kept as its oracle: what ``refusal`` reports."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if not (-ENTRY_TOL <= probs.min() and probs.max() <= 1.0 + ENTRY_TOL):
        return InvariantViolationError, "probability outside [0, 1]", None
    total = float(probs.sum())
    if not abs(total - 1.0) <= DISTRIBUTION_TOL:
        return InvariantViolationError, f"probabilities sum to {total!r}, not 1", None
    return None


def numpy_table_checks(entries):
    """``checked_table``'s entry checks as numpy reductions (see above)."""
    if not entries.min() >= -ENTRY_TOL:
        return InvariantViolationError, "table entry negative or not a number", None
    total = float(entries.sum())
    if not abs(total - 1.0) <= DISTRIBUTION_TOL:
        return InvariantViolationError, f"table sums to {total!r}, not 1", None
    return None


def numpy_dispersion_checks(p):
    """dispersion's range check as numpy reductions (see above)."""
    p = np.asarray(p, dtype=float)
    inside = (-ENTRY_TOL <= p) & (p <= 1.0 + ENTRY_TOL)
    if not inside.all():
        return PreconditionError, f"probability {float(p[~inside][0])!r} outside [0, 1]", None
    return None


class TestRecordChecksAgainstNumpyForms:
    """The one-pass list checks of the reference forms and of ``dispersion``
    make the numpy checks' decisions, with the same error class, message and
    part, at and around every threshold."""

    @settings(max_examples=500, derandomize=True)
    @given(st.integers(1, 9).flatmap(lambda n: near_threshold_floats(n, DISTRIBUTION_TOL)))
    def test_distribution(self, probs):
        labels = tuple(str(k) for k in range(probs.size))
        assert refusal(checked_distribution, labels, probs) == numpy_distribution_checks(probs)

    @settings(max_examples=500, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda d: near_threshold_floats(d * d, DISTRIBUTION_TOL)))
    def test_sequential_table(self, entries):
        dim = math.isqrt(entries.size)
        basis = MeasurementBasis(np.eye(dim), tuple(str(k) for k in range(dim)))
        entries = entries.reshape(dim, dim)
        assert refusal(checked_table, basis, basis, entries) == numpy_table_checks(entries)

    @settings(max_examples=500, derandomize=True)
    @given(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(-1.0, 2.0), min_size=1, max_size=12),
           st.sampled_from([(-1,), (-1, 1), ()]))
    def test_dispersion(self, values, shape):
        p = np.array(values[:1] if shape == () else values).reshape(shape)
        assert refusal(dispersion, p) == numpy_dispersion_checks(p)


class TestWorstCaseTotals:
    """The structured d = 8 pair at 0.99 ``BASIS_TOL`` whose Gram errors all
    point one way (``gram_tilted_frame``): the totals that built tables and
    distributions reach on it stay inside ``DISTRIBUTION_TOL``, while a
    marginal can pass 1 by more than ``ENTRY_TOL``, which the constructor
    clips."""

    DIM = 8

    def test_table_total(self):
        # then = H first, for the Hadamard H, which turns the all-ones
        # direction, where then's V V^H has its top eigenvalue, onto e_0
        tilted = gram_tilted_frame(self.DIM, 0.99)
        first = MeasurementBasis.from_vectors(tilted.T)
        then = MeasurementBasis.from_vectors((hadamard_frame(self.DIM) @ tilted).T)
        for basis in (first, then):
            gram_error = abs(basis.frame.conj().T @ basis.frame - np.eye(self.DIM)).max()
            assert 0.98 * BASIS_TOL < gram_error <= BASIS_TOL
        # the state along the top eigenvector of U diag(r) U^H, where r_i is the
        # kernel's row sum u_i^H V V^H u_i: the table's total is its Rayleigh quotient
        u, rows = first.frame, overlap_kernel(first, then).sum(axis=1)
        state = StateVector.normalized(np.linalg.eigh((u * rows) @ u.conj().T)[1][:, -1])
        table = sequential_distribution(state, first, then)
        excess = float(np.add.reduce(table.entries, axis=None)) - 1.0
        assert 0.87 * DISTRIBUTION_TOL < excess < DISTRIBUTION_TOL  # 8.74e-10 measured
        assert checked_table(first, then, table.entries).entries.tobytes() == table.entries.tobytes()

    def test_born_total(self):
        # squared norm 1 + 0.99 NORM_TOL, along the all-ones direction, where
        # U U^H has its top eigenvalue 1 + (d - 1) 0.99 BASIS_TOL
        basis = MeasurementBasis.from_vectors(gram_tilted_frame(self.DIM, 0.99).T)
        state = StateVector(np.full(self.DIM, math.sqrt((1.0 + 0.99 * NORM_TOL) / self.DIM)))
        born = born_distribution(state, basis)
        excess = float(np.add.reduce(born.probs)) - 1.0
        bound = (self.DIM - 1) * BASIS_TOL + NORM_TOL
        assert 0.99 * (self.DIM - 1) * BASIS_TOL < excess <= bound < DISTRIBUTION_TOL
        assert checked_distribution(basis.labels, born.probs).probs.tobytes() == born.probs.tobytes()

    def test_marginal_past_one_is_clipped(self):
        # the state is the first ray of an exact basis and the top direction of
        # the tilted one, so its row of the table sums to 1 + (d - 1) 0.99 BASIS_TOL
        first = MeasurementBasis.from_vectors(hadamard_frame(self.DIM).T)
        then = MeasurementBasis.from_vectors(gram_tilted_frame(self.DIM, 0.99).T)
        table = sequential_distribution(StateVector.normalized(np.ones(self.DIM)), first, then)
        sums = table.entries.sum(axis=1)
        assert 0.99 * (self.DIM - 1) * BASIS_TOL < sums[0] - 1.0 < DISTRIBUTION_TOL
        with pytest.raises(InvariantViolationError, match=r"^probability outside \[0, 1\]$"):
            checked_distribution(first.labels, sums)
        marginal = marginal_over_second(table)
        assert marginal.probs.tobytes() == np.clip(sums, 0.0, 1.0).tobytes()
        assert marginal[0] == 1.0


def minus_zeros(text: str) -> str:
    """A model file with each weight and kernel entry written 0.0 written -0.0."""
    return "".join(re.sub(r"(?<= )0\.0(?= |$)", "-0.0", line)
                   if line.startswith(("member", "kernel")) else line
                   for line in text.splitlines(keepends=True))


@st.composite
def producer_inputs(draw):
    """``model_inputs()``: ``audit_inputs(max_dim=8)``, or bases tilted to
    0.99 ``BASIS_TOL``, the state's squared norm then left or moved to
    1 ± 0.99 ``NORM_TOL``; and a trial count from 1 to 10^5 with a seed."""
    state, first, then = draw(model_inputs())
    shift = draw(st.sampled_from([0.0, 0.99, -0.99]))
    if shift:
        state = StateVector(state.amplitudes * math.sqrt(1.0 + shift * NORM_TOL))
    n_trials = draw(st.sampled_from([1, 10**5]) | st.integers(1, 10**5))
    return state, first, then, n_trials, draw(st.integers(0, 2**32 - 1))


def produced_records(state, first, then, n_trials, seed) -> list:
    """Every record the six producers build from one input: the Born
    distributions, the ordered tables both ways and their marginals, the joint
    at tol 1 (where one always exists), and the exact and simulated tables of
    the built model and of that model read back with its zeros written -0.0."""
    forward = sequential_distribution(state, first, then)
    reverse = sequential_distribution(state, then, first)
    records = [born_distribution(state, first), born_distribution(state, then), forward,
               reverse, marginal_over_second(forward), marginal_over_second(reverse),
               joint_exists(forward, reverse, tol=1.0).joint]
    built = build_qm_equivalent_model(state, first, then)
    for model in (built, parse_model(minus_zeros(serialize_model(built)))):
        for order in (("A", "B"), ("B", "A")):
            records += [exact_sequential(model, order),
                        simulate_sequential(model, order, n_trials, seed)]
    return records


def stored_fields(record) -> tuple:
    """What a record stores, with each array as (dtype, shape, bytes)."""
    def bits(array):
        assert not array.flags.writeable
        return array.dtype, array.shape, array.tobytes()
    if isinstance(record, Distribution):
        return type(record.labels), record.labels, bits(record.probs)
    return (*((basis.labels, bits(basis.frame)) for basis in (record.first_basis,
                                                              record.second_basis)),
            bits(record.entries))


class TestProducersAgainstReferenceForms:
    """Each record the package builds passes the checks its constructor no
    longer runs, and stores what the reference form stores, bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(producer_inputs())
    def test_records_pass_and_match(self, inputs):
        with mock.patch.object(stats, "Distribution", checked_distribution), \
                mock.patch.object(stats, "SequentialTable", checked_table), \
                mock.patch.object(hidden, "SequentialTable", checked_table):
            reference = produced_records(*inputs)
        built = produced_records(*inputs)
        assert [type(record) for record in built] == [type(record) for record in reference]
        assert [stored_fields(r) for r in built] == [stored_fields(r) for r in reference]


class TestBinomialBound:
    def test_exact_table_passes_its_own_bound(self, z_plus, z_basis, x_basis):
        table = sequential_distribution(z_plus, z_basis, x_basis)
        assert within_binomial_bound(table, table, 1000)

    def test_large_gap_fails(self, z_plus, z_basis, x_basis):
        exact = sequential_distribution(z_plus, z_basis, x_basis)
        skewed = SequentialTable(z_basis, x_basis, [[0.7, 0.3], [0.0, 0.0]])
        assert not within_binomial_bound(exact, skewed, 100000)

    @pytest.mark.parametrize("factor, within", [(0.99, True), (1.01, False)])
    def test_default_z_is_four(self, z_basis, x_basis, factor, within):
        # two quarter cells moved by factor * 4 standard deviations
        assert stats.BINOMIAL_Z == 4.0
        n = 1000
        gap = factor * 4.0 * math.sqrt(0.25 * 0.75 / n)
        exact = SequentialTable(z_basis, x_basis, np.full((2, 2), 0.25))
        moved = SequentialTable(z_basis, x_basis, [[0.25 + gap, 0.25 - gap], [0.25, 0.25]])
        assert (gap <= binomial_bound(0.25, n)) == within
        assert within_binomial_bound(exact, moved, n) == within


# -- the measure-collapse-measure path, kept as the oracle for the frame path ----


def oracle_born(state, basis):
    return np.array([born_probability(state, p) for p in projectors(basis)])


def oracle_sequential(state, first, second, zero_tol=ZERO_PROBABILITY):
    entries = np.zeros((first.size, second.size))
    for i, proj in enumerate(projectors(first)):
        p_first = born_probability(state, proj)
        if p_first <= zero_tol:
            continue
        after = collapse(state, proj)
        for j, then_proj in enumerate(projectors(second)):
            entries[i, j] = p_first * born_probability(after, then_proj)
    return entries


def oracle_commutation_defect(state, a, b):
    return float(np.max(np.abs(
        oracle_sequential(state, a, b) - oracle_sequential(state, b, a).T)))


def oracle_nondistribution_defect(state, target_basis, target_index, interposed):
    direct = born_probability(state, projectors(target_basis)[target_index])
    through = oracle_sequential(state, interposed, target_basis)[:, target_index].sum()
    return abs(direct - float(through))


def oracle_bases_equal(a, b, tol=1e-9):
    if a.dim != b.dim or a.size != b.size:
        return False
    return all(
        float(np.max(np.abs(p.matrix - q.matrix))) <= tol
        for p, q in zip(projectors(a), projectors(b))
    )


def oracle_commuting_bases(a, b, tol=1e-10):
    return all(commutes(p, q, tol) for p in projectors(a) for q in projectors(b))


def _orthogonal_to_ray(state, basis, k):
    ray = basis.frame[:, k]
    rest = state.amplitudes - np.vdot(ray, state.amplitudes) * ray
    return StateVector.normalized(rest)


class TestFramePathAgainstOracle:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        kind=st.sampled_from(("generic", "commuting", "orthogonal")),
    )
    def test_tables_marginals_defects_and_equality(self, seed, dim, kind):
        rng = rng_from(seed)
        state = random_state(rng, dim)
        if kind == "commuting":
            first, second = random_commuting_pair(rng, dim)
        else:
            first, second = random_basis_pair(rng, dim)
        if kind == "orthogonal" and dim > 1:
            state = _orthogonal_to_ray(state, first, int(rng.integers(dim)))
        target = int(rng.integers(dim))

        for a, b in ((first, second), (second, first)):
            assert_table(sequential_distribution(state, a, b).entries,
                         oracle_sequential(state, a, b))
            assert_table(born_distribution(state, a).probs, oracle_born(state, a))
        assert abs(commutation_defect(state, first, second)
                   - oracle_commutation_defect(state, first, second)) <= 1e-12
        assert abs(nondistribution_defect(state, first, target, second)
                   - oracle_nondistribution_defect(state, first, target, second)) <= 1e-12
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        phased = MeasurementBasis.from_vectors((first.frame * phases).T, first.labels)
        assert bases_equal(first, phased)
        for a, b in ((first, second), (first, first), (first, phased)):
            assert bases_equal(a, b) == oracle_bases_equal(a, b)
            assert commuting_bases(a, b) == oracle_commuting_bases(a, b)
        if kind == "orthogonal" and dim > 1:
            assert np.count_nonzero(sequential_distribution(state, first, second).entries.sum(axis=1)) < dim
        if kind == "commuting":
            assert commuting_bases(first, second)


class TestZeroProbabilityThreshold:
    def _state_with_second_outcome(self, p):
        return StateVector([math.sqrt(1.0 - p), math.sqrt(p)])

    def test_just_below_zero_tol_zeroes_the_row(self, z_basis, x_basis):
        state = self._state_with_second_outcome(0.99 * ZERO_PROBABILITY)
        table = sequential_distribution(state, z_basis, x_basis)
        assert np.all(table.entries[1] == 0.0)

    def test_just_above_zero_tol_keeps_the_row(self, z_basis, x_basis):
        p = 1.01 * ZERO_PROBABILITY
        table = sequential_distribution(self._state_with_second_outcome(p), z_basis, x_basis)
        assert np.all(table.entries[1] > 0.0)
        assert abs(float(table.entries[1].sum()) - p) <= 1e-6 * p

    def test_at_zero_tol_the_row_is_zero(self):
        entries = chain_rule(np.array([1.0 - ZERO_PROBABILITY, ZERO_PROBABILITY]),
                             np.full((2, 2), 0.5))
        assert np.all(entries[0] == 0.5 * (1.0 - ZERO_PROBABILITY))
        assert np.all(entries[1] == 0.0)


def _scalar_binomial_bound(p, n, z):
    return z * math.sqrt(max(p * (1.0 - p), 0.0) / n)


class TestBinomialBoundArray:
    TABLES = (
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.5, 0.5], [0.0, 0.0]],
        [[0.1, 0.2], [0.3, 0.4]],
        [[1 / 3, 1 / 6], [0.25, 0.25]],
        [[1e-17, 1.0 - 1e-12], [1e-12 - 1e-17, 0.0]],
    )

    @pytest.mark.parametrize("entries", TABLES)
    @pytest.mark.parametrize("n", (1, 7, 1000, 100_000))
    def test_array_bounds_equal_the_scalar_function(self, z_basis, x_basis, entries, n):
        table = SequentialTable(z_basis, x_basis, entries)
        for z in (4.0, 2.5):
            with mock.patch.object(stats, "BINOMIAL_Z", z):
                bounds = binomial_bound(table.entries, n)
                scalar = [[binomial_bound(float(p), n) for p in row] for row in table.entries]
            oracle = [[_scalar_binomial_bound(float(p), n, z) for p in row] for row in table.entries]
            assert bounds.tobytes() == np.array(scalar).tobytes()
            assert bounds.tobytes() == np.array(oracle).tobytes()

    def test_certain_and_impossible_cells_allow_no_deviation(self, z_basis, x_basis):
        exact = SequentialTable(z_basis, x_basis, [[1.0, 0.0], [0.0, 0.0]])
        off = SequentialTable(z_basis, x_basis, [[1.0 - 1e-6, 1e-6], [0.0, 0.0]])
        assert within_binomial_bound(exact, exact, 10)
        assert not within_binomial_bound(exact, off, 10)

    def test_fewer_than_one_trial_refused(self, z_basis, x_basis):
        table = SequentialTable(z_basis, x_basis, [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(PreconditionError):
            binomial_bound(0.5, 0)
        with pytest.raises(PreconditionError):
            within_binomial_bound(table, table, 0)

    @pytest.mark.parametrize("n_trials", [True, 2.5, 100.0, "100", None])
    def test_non_integer_trial_count_refused(self, z_basis, x_basis, n_trials):
        table = SequentialTable(z_basis, x_basis, [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(PreconditionError, match="whole number of trials"):
            binomial_bound(0.5, n_trials)
        with pytest.raises(PreconditionError, match="whole number of trials"):
            within_binomial_bound(table, table, n_trials)
        assert binomial_bound(0.5, np.int64(100)) == binomial_bound(0.5, 100)
