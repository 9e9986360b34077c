"""A state forms each Born vector, overlap kernel and built model once and
keeps it in its memo.  The unmemoized formulas are kept here as the oracles:
whatever order the calls come in, what the memo hands out is, bit for bit,
what a fresh form gives, a basis built apart misses, stored arrays refuse
writes, and a refused input stores nothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis_pair, random_state
from qlbench import hidden, stats
from qlbench.errors import DimensionMismatchError, PreconditionError
from qlbench.hidden import HiddenModel, NoGoAudit, audit_no_go, build_qm_equivalent_model
from qlbench.hilbert import MAX_DIM, MeasurementBasis, StateVector
from qlbench.sampling import rng_from
from qlbench.stats import Distribution, SequentialTable


def unmemoized_born(state, basis):
    return np.abs(basis.adjoint @ state.amplitudes) ** 2


def unmemoized_kernel(first, then):
    return np.abs(first.adjoint @ then.frame) ** 2


def unmemoized_model(state, a, b, ids):
    """The build before models were kept, forming each array afresh."""
    id_a, id_b = ids
    born_a, born_b = unmemoized_born(state, a), unmemoized_born(state, b)
    overlaps = unmemoized_kernel(a, b)
    weights = (born_a.clip(0.0, 1.0)[:, None] * born_b.clip(0.0, 1.0)).ravel()
    weights = weights / sum(weights.tolist())
    return HiddenModel(hidden._MEMBER_GRIDS[state.dim], weights, {id_a: a, id_b: b},
                       {(id_a, id_b): overlaps, (id_b, id_a): overlaps.T})


def fingerprint(value):
    """Everything a result holds, arrays as dtype, shape and bytes, so that
    two results compare equal only when they are identical bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Distribution):
        return value.labels, fingerprint(value.probs)
    if isinstance(value, SequentialTable):
        return id(value.first_basis), id(value.second_basis), fingerprint(value.entries)
    if isinstance(value, HiddenModel):
        return (fingerprint(value.values), fingerprint(value.weights),
                [(name, id(basis)) for name, basis in value.contexts.items()],
                [(key, fingerprint(rows)) for key, rows in value.kernels.items()],
                [fingerprint(marginal) for marginal in value.marginals])
    if isinstance(value, NoGoAudit):
        return [fingerprint(getattr(value, name)) for name in NoGoAudit.__slots__]
    return repr(value)


# each call a caller can make on a state and a basis pair (a, b)
CALLS = {
    "born a": lambda s, a, b, t, ids: stats.born_distribution(s, a),
    "born b": lambda s, a, b, t, ids: stats.born_distribution(s, b),
    "table ab": lambda s, a, b, t, ids: stats.sequential_distribution(s, a, b),
    "table ba": lambda s, a, b, t, ids: stats.sequential_distribution(s, b, a),
    "defect ab": lambda s, a, b, t, ids: stats.commutation_defect(s, a, b),
    "defect ba": lambda s, a, b, t, ids: stats.commutation_defect(s, b, a),
    "nondist ab": lambda s, a, b, t, ids: stats.nondistribution_defect(s, a, t, b),
    "nondist ba": lambda s, a, b, t, ids: stats.nondistribution_defect(s, b, t, a),
    "model ab": lambda s, a, b, t, ids: build_qm_equivalent_model(s, a, b, ids),
    "model ba": lambda s, a, b, t, ids: build_qm_equivalent_model(s, b, a, ids),
    "audit ab": lambda s, a, b, t, ids: audit_no_go(s, a, b, ids),
}


def stored_arrays(memo):
    for value in memo.values():
        if isinstance(value, HiddenModel):
            yield value.weights
            yield from value.kernels.values()
            yield from value.marginals
        else:
            yield value


class TestMemoAgainstFreshForms:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, MAX_DIM),
           calls=st.lists(st.sampled_from(sorted(CALLS)), min_size=1, max_size=12),
           ids=st.lists(st.text("ABxyz", min_size=1, max_size=2), min_size=2, max_size=2,
                        unique=True))
    def test_any_call_order_gives_the_fresh_bits(self, seed, dim, calls, ids):
        rng = rng_from(seed)
        state = random_state(rng, dim)
        a, b = random_basis_pair(rng, dim)
        target = int(rng.integers(dim))
        ids = tuple(ids)
        for name in calls:
            twin = StateVector(state.amplitudes)  # the same amplitudes, an empty memo
            assert twin._memo == {}
            memoized = CALLS[name](state, a, b, target, ids)
            assert fingerprint(memoized) == fingerprint(CALLS[name](twin, a, b, target, ids))
        # every stored form is the unmemoized formula's, and is read-only
        for key, value in state._memo.items():
            if isinstance(key, MeasurementBasis):
                expected = unmemoized_born(state, key)
            elif len(key) == 2:
                expected = unmemoized_kernel(*key)
            else:
                first, then, *key_ids = key
                expected = unmemoized_model(state, first, then, key_ids)
            assert fingerprint(value) == fingerprint(expected)
        for array in stored_arrays(state._memo):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.5

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, MAX_DIM))
    def test_a_basis_built_apart_misses_and_gives_equal_values(self, seed, dim):
        rng = rng_from(seed)
        state = random_state(rng, dim)
        a, b = random_basis_pair(rng, dim)
        twin_a = MeasurementBasis(a.frame.copy(), a.labels)  # equal, not the same object
        born = stats._memo_born(state, a)
        kernel = stats._memo_kernel(state, a, b)
        model = build_qm_equivalent_model(state, a, b)
        assert stats._memo_born(state, a) is born
        assert stats._memo_kernel(state, a, b) is kernel
        assert build_qm_equivalent_model(state, a, b) is model

        twin_born = stats._memo_born(state, twin_a)
        twin_kernel = stats._memo_kernel(state, twin_a, b)
        twin_model = build_qm_equivalent_model(state, twin_a, b)
        assert twin_born is not born and twin_born.tobytes() == born.tobytes()
        assert twin_kernel is not kernel and twin_kernel.tobytes() == kernel.tobytes()
        assert twin_model is not model
        assert twin_model.contexts["A"] is twin_a
        assert fingerprint(twin_model)[:2] == fingerprint(model)[:2]
        assert fingerprint(twin_model)[3:] == fingerprint(model)[3:]
        # Born vectors of a, its twin and b, and a kernel and a model for each pair
        assert len(state._memo) == 7


class TestRefusalsStoreNothing:
    @pytest.mark.parametrize("dim", range(1, MAX_DIM))
    def test_dimension_mismatch_raises_every_time(self, dim):
        rng = rng_from(409)
        state = random_state(rng, dim)
        a, _ = random_basis_pair(rng, dim)
        wide, _ = random_basis_pair(rng, dim + 1)
        refused = [
            (DimensionMismatchError, lambda: stats.born_distribution(state, wide)),
            (DimensionMismatchError, lambda: stats.sequential_distribution(state, wide, a)),
            (DimensionMismatchError, lambda: stats.commutation_defect(state, wide, a)),
            (DimensionMismatchError, lambda: stats.nondistribution_defect(state, wide, 0, a)),
            (PreconditionError, lambda: build_qm_equivalent_model(state, a, wide)),
            (PreconditionError, lambda: audit_no_go(state, wide, a)),
        ]
        for _ in range(2):
            for error, call in refused:
                with pytest.raises(error):
                    call()
        assert state._memo == {}
        # a pair that matches the state but not each other: the first basis's
        # Born vector is stored, nothing keyed by the refused pair is
        other = random_state(rng, dim + 1)
        for _ in range(2):
            with pytest.raises(DimensionMismatchError, match="basis dims"):
                stats.sequential_distribution(other, wide, a)
        assert list(other._memo) == [wide]

    def test_equal_context_ids_are_refused_every_time(self):
        rng = rng_from(410)
        state = random_state(rng, 3)
        a, b = random_basis_pair(rng, 3)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="distinct"):
                build_qm_equivalent_model(state, a, b, ("A", "A"))
        assert state._memo == {}


class TestContextIdsAsAList:
    def test_a_list_of_ids_builds_and_audits(self):
        # the model is kept under the unpacked ids, so a list of ids, which
        # cannot be a key, builds as it did before models were kept
        rng = rng_from(411)
        state = random_state(rng, 2)
        a, b = random_basis_pair(rng, 2)
        model = build_qm_equivalent_model(state, a, b, ["A", "B"])
        assert tuple(model.contexts) == ("A", "B")
        assert build_qm_equivalent_model(state, a, b, ("A", "B")) is model
        assert fingerprint(model) == fingerprint(unmemoized_model(state, a, b, ("A", "B")))
        audit = audit_no_go(state, a, b, ["A", "B"])
        assert audit.context_ids == ["A", "B"]
        assert audit.defects_match
