import itertools
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbench.errors import InvariantViolationError, PreconditionError
from qlbench.events import (
    ComplementUniverseError,
    EventSet,
    MISMATCH_FLAG,
    OutcomeSpace,
    SpaceMismatchError,
    Universe,
    complement_relative,
    distributes_classical,
    eq10_trace,
    restricted_to,
    universe_mismatch_demo,
)


def single_space(*labels):
    return OutcomeSpace((Universe("omega", tuple(labels)),))


# Frozenset oracle: the same set algebra on plain label sets, the reference
# that the bitmask arithmetic in qlbench.events is checked against.


def oracle_union(a: frozenset, b: frozenset) -> frozenset:
    return a | b


def oracle_intersect(a: frozenset, b: frozenset) -> frozenset:
    return a & b


def oracle_complement_relative(members: frozenset, pool) -> frozenset:
    if members.difference(pool):
        raise ComplementUniverseError("member outside the complement universe")
    return frozenset(pool) - members


def oracle_restricted_to(members: frozenset, outcomes, coerce: bool) -> frozenset:
    if members.difference(outcomes) and not coerce:
        raise ComplementUniverseError("member outside the universe")
    return members.intersection(outcomes)


def oracle_distributes_classical(a: frozenset, b: frozenset, c: frozenset):
    lhs = a & (b | c)
    rhs = (a & b) | (a & c)
    return lhs, rhs, lhs == rhs


@st.composite
def spaces_with_subsets(draw):
    """A one- or two-universe space whose bit order differs from sorted order,
    three subsets of its labels, and a twin space equal to it by value."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    names = draw(st.permutations([f"x{i}" for i in range(sum(sizes))]))
    cuts = [0, sizes[0], sum(sizes)][: len(sizes) + 1]
    universes = [
        Universe(f"u{k}", tuple(names[lo:hi])) for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]
    subsets = st.frozensets(st.sampled_from(names))
    return (
        OutcomeSpace(tuple(universes)),
        OutcomeSpace(tuple(universes)),
        draw(subsets),
        draw(subsets),
        draw(subsets),
    )


def outcome(fn, *args):
    """``fn``'s members, or the error class it raised."""
    try:
        result = fn(*args)
    except ComplementUniverseError:
        return ComplementUniverseError
    return getattr(result, "members", result)


@pytest.fixture
def pair_space():
    return OutcomeSpace(
        (Universe("omega_a", ("a1", "a2")), Universe("omega_b", ("b1", "b2")))
    )


class TestConstruction:
    def test_universe_rejects_duplicates(self):
        with pytest.raises(InvariantViolationError):
            Universe("u", ("x", "x"))

    def test_universe_rejects_empty(self):
        with pytest.raises(InvariantViolationError):
            Universe("u", ())

    def test_space_rejects_shared_labels(self):
        with pytest.raises(InvariantViolationError):
            OutcomeSpace((Universe("u", ("x",)), Universe("v", ("x", "y"))))

    def test_event_members_must_exist(self):
        space = single_space("a", "b")
        with pytest.raises(InvariantViolationError):
            EventSet(space, frozenset(["zzz"]))

    def test_stray_labels_are_named_sorted(self, pair_space):
        with pytest.raises(InvariantViolationError) as caught:
            EventSet(pair_space, ["zzz", "b1", "a3", 7, "a1"])
        assert str(caught.value) == "label(s) ['7', 'a3', 'zzz'] not in the outcome space"

    def test_space_event_validates_labels(self):
        space = single_space("a", "b")
        with pytest.raises(InvariantViolationError, match="zzz"):
            space.event(["a", "zzz"])
        with pytest.raises(InvariantViolationError):
            space.atom("zzz")

    def test_members_are_strings(self):
        space = single_space("1", "2")
        event = EventSet(space, [1, "2"])
        assert isinstance(event.members, frozenset)
        assert event.members == {"1", "2"}

    def test_events_are_immutable(self):
        event = single_space("a", "b").atom("a")
        for name in ("space", "members", "mask", "anything"):
            with pytest.raises(FrozenInstanceError):
                setattr(event, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(event, name)
        assert event.members == {"a"}

    def test_spaces_and_universes_are_immutable(self):
        # they hash by value, and an event hashes by its space
        space = single_space("a", "b")
        for value, names in ((space, ("universes", "labels", "anything")),
                             (space.universes[0], ("name", "outcomes", "anything"))):
            for name in names:
                with pytest.raises(FrozenInstanceError):
                    setattr(value, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(value, name)
        assert space.labels == ("a", "b")

    def test_equal_members_compare_and_hash_alike(self):
        space = single_space("a", "b", "c")
        built = space.atom("a") | space.atom("c")
        given = space.event(["c", "a"])
        twin = single_space("a", "b", "c").event(["a", "c"])
        assert built == given == twin
        assert hash(built) == hash(given) == hash(twin)
        assert len({built, given, twin}) == 1
        assert built != space.event(["a"])
        assert built != single_space("a", "b", "c", "d").event(["a", "c"])

    def test_repr_lists_sorted_members(self):
        space = single_space("b", "a", "c")
        assert repr(space.event(["c", "a"])) == "{a, c}"
        assert repr(space.event([])) == "{}"

    def test_pickle_round_trip(self):
        space = single_space("a", "b")
        event = space.atom("a") | space.atom("b")
        assert pickle.loads(pickle.dumps(event)) == event


class TestUnionIntersect:
    def test_union(self):
        space = single_space("t1", "t2", "t3")
        assert (space.atom("t1") | space.atom("t2")).members == {"t1", "t2"}

    def test_intersect(self):
        space = single_space("t1", "t2", "t3")
        lhs = space.event(["t1", "t2"])
        rhs = space.event(["t2", "t3"])
        assert (lhs & rhs).members == {"t2"}

    def test_intersect_with_empty(self):
        space = single_space("t1", "t2")
        assert (space.event(["t1"]) & space.event([])).members == set()

    def test_space_mismatch(self):
        a = single_space("a").atom("a")
        b = single_space("b").atom("b")
        with pytest.raises(SpaceMismatchError):
            a.union(b)

    def test_space_mismatch_everywhere(self, pair_space):
        a = pair_space.atom("a1")
        other = single_space("a1", "a2")
        foreign = other.atom("a1")
        with pytest.raises(SpaceMismatchError):
            a.intersect(foreign)
        with pytest.raises(SpaceMismatchError):
            distributes_classical(a, a, foreign)
        with pytest.raises(SpaceMismatchError):
            complement_relative(a, other)
        with pytest.raises(SpaceMismatchError):
            complement_relative(a, other.universes[0])

    def test_twin_spaces_combine(self):
        universes = (Universe("omega_a", ("a1", "a2")), Universe("omega_b", ("b1", "b2")))
        left, right = OutcomeSpace(universes), OutcomeSpace(universes)
        assert left is not right and left == right
        a, b = left.atom("a1"), right.atom("b2")
        assert (a | b).members == {"a1", "b2"}
        assert (a & b).members == set()
        assert distributes_classical(a, b, right.atom("a1")).distributive
        assert complement_relative(a, right).members == {"a2", "b1", "b2"}
        assert complement_relative(a, right.universes[0]).members == {"a2"}


class TestComplementRelative:
    def test_within_own_universe(self, pair_space):
        omega_b = pair_space.universes[1]
        result = complement_relative(pair_space.atom("b1"), omega_b)
        assert result.members == {"b2"}

    def test_within_whole_space(self, pair_space):
        result = complement_relative(pair_space.atom("b1"), pair_space)
        assert result.members == {"a1", "a2", "b2"}

    def test_member_outside_universe_is_refused(self, pair_space):
        omega_b = pair_space.universes[1]
        with pytest.raises(ComplementUniverseError):
            complement_relative(pair_space.atom("a1"), omega_b)

    def test_involution(self, pair_space):
        omega_a = pair_space.universes[0]
        event = pair_space.atom("a2")
        assert complement_relative(complement_relative(event, omega_a), omega_a).members == event.members

    @settings(max_examples=200, derandomize=True)
    @given(members=st.sets(st.sampled_from(["a1", "a2"])))
    def test_involution_property(self, members):
        space = OutcomeSpace(
            (Universe("omega_a", ("a1", "a2")), Universe("omega_b", ("b1", "b2")))
        )
        omega_a = space.universes[0]
        event = space.event(members)
        back = complement_relative(complement_relative(event, omega_a), omega_a)
        assert back.members == event.members

    def test_refusal_names_the_stray_members(self, pair_space):
        event = pair_space.event(["a1", "b2", "b1"])
        with pytest.raises(ComplementUniverseError, match=r"\['b1', 'b2'\]"):
            complement_relative(event, pair_space.universes[0])
        with pytest.raises(ComplementUniverseError, match=r"\['a1'\]"):
            restricted_to(event, pair_space.universes[1])

    def test_restricted_to_requires_coercion(self, pair_space):
        omega_b = pair_space.universes[1]
        with pytest.raises(ComplementUniverseError):
            restricted_to(pair_space.atom("a1"), omega_b)
        coerced = restricted_to(pair_space.atom("a1"), omega_b, coerce=True)
        assert coerced.members == set()

    @pytest.mark.parametrize("coerce", [False, True])
    def test_restricted_to_refuses_a_foreign_universe(self, pair_space, coerce):
        foreign = Universe("other", ("a1", "zz"))
        with pytest.raises(SpaceMismatchError, match="from a different outcome space"):
            restricted_to(pair_space.atom("a1"), foreign, coerce=coerce)


class TestClassicalDistributivity:
    def test_concrete_triple(self):
        space = single_space("1", "2", "3", "4")
        a = space.event(["1", "2"])
        b = space.event(["2", "3"])
        c = space.event(["3", "4"])
        verdict = distributes_classical(a, b, c)
        assert verdict.lhs.members == {"2"}
        assert verdict.rhs.members == {"2"}
        assert verdict.distributive

    def test_empty_first_argument(self):
        space = single_space("1", "2")
        verdict = distributes_classical(space.event([]), space.atom("1"), space.atom("2"))
        assert verdict.lhs.members == set()
        assert verdict.rhs.members == set()
        assert verdict.distributive

    @settings(max_examples=500, derandomize=True)
    @given(
        a=st.sets(st.integers(0, 7)),
        b=st.sets(st.integers(0, 7)),
        c=st.sets(st.integers(0, 7)),
    )
    def test_every_triple_distributes(self, a, b, c):
        labels = [f"t{i}" for i in range(8)]
        space = single_space(*labels)
        ev = lambda s: space.event([f"t{i}" for i in s])
        verdict = distributes_classical(ev(a), ev(b), ev(c))
        assert verdict.distributive
        # independent pointwise oracle: x in lhs iff x in a and (x in b or x in c)
        for i in range(8):
            expected = i in a and (i in b or i in c)
            assert (f"t{i}" in verdict.lhs.members) == expected
            assert (f"t{i}" in verdict.rhs.members) == expected

    def test_atoms_intersect_to_empty(self):
        space = single_space(*[f"t{i}" for i in range(8)])
        for x, y in itertools.permutations(space.labels, 2):
            assert (space.atom(x) & space.atom(y)).members == set()


class TestComplementChainTrace:
    def test_four_atom_space(self):
        space = single_space("a", "b", "c", "d")
        trace = eq10_trace("a", "b", space)
        assert len(trace.lines) == 7
        for line in trace.lines:
            assert line.value == {"a"}
        assert trace.all_equal_to_atom
        assert trace.verdict == "distributive, a = a"

    def test_same_atom_twice(self):
        space = single_space("a", "b", "c", "d")
        trace = eq10_trace("a", "a", space)
        assert trace.all_equal_to_atom

    def test_exhaustive_up_to_eight_atoms(self):
        for size in range(2, 9):
            labels = [f"t{i}" for i in range(size)]
            space = single_space(*labels)
            for a, b in itertools.product(labels, repeat=2):
                trace = eq10_trace(a, b, space)
                assert trace.all_equal_to_atom

    def test_unknown_atom_rejected(self):
        space = single_space("a", "b")
        with pytest.raises(PreconditionError):
            eq10_trace("zzz", "a", space)


class TestUniverseMismatchDemo:
    def test_manufactured_inequality(self, pair_space):
        demo = universe_mismatch_demo("a1", "b1", pair_space)
        assert demo.lhs_mixed == {"a1"}
        assert demo.rhs_omega == set()
        assert demo.flag_raised
        assert demo.flag == MISMATCH_FLAG

    def test_consistent_evaluations_agree(self, pair_space):
        demo = universe_mismatch_demo("a1", "b1", pair_space)
        assert demo.consistent_space.lhs == {"a1"}
        assert demo.consistent_space.rhs == {"a1"}
        assert demo.consistent_space.equal
        assert demo.consistent_universe.lhs == set()
        assert demo.consistent_universe.rhs == set()
        assert demo.consistent_universe.equal

    def test_coercion_is_logged(self, pair_space):
        demo = universe_mismatch_demo("a1", "b1", pair_space)
        assert len(demo.coercions) == 1
        assert "coerced" in demo.coercions[0]

    def test_swapped_roles_symmetric(self, pair_space):
        demo = universe_mismatch_demo("b1", "a1", pair_space)
        assert demo.lhs_mixed == {"b1"}
        assert demo.rhs_omega == set()
        assert demo.flag_raised

    def test_same_universe_rejected(self, pair_space):
        with pytest.raises(PreconditionError):
            universe_mismatch_demo("a1", "a2", pair_space)


class TestAgainstFrozensetOracle:
    @settings(max_examples=300, derandomize=True)
    @given(case=spaces_with_subsets())
    def test_bitmask_algebra_matches_oracle(self, case):
        space, twin, a, b, c = case
        ea, eb, ec = space.event(a), twin.event(b), space.event(c)
        assert (ea.members, eb.members, ec.members) == (a, b, c)
        assert (ea | eb).members == oracle_union(a, b)
        assert (ea & eb).members == oracle_intersect(a, b)

        verdict = distributes_classical(ea, eb, ec)
        lhs, rhs, distributive = oracle_distributes_classical(a, b, c)
        assert (verdict.lhs.members, verdict.rhs.members, verdict.distributive) == (
            lhs, rhs, distributive,
        )

        assert outcome(complement_relative, ea, twin) == oracle_complement_relative(
            a, space.labels
        )
        for universe in twin.universes:
            assert outcome(complement_relative, ea, universe) == outcome(
                oracle_complement_relative, a, universe.outcomes
            )
            for coerce in (False, True):
                assert outcome(
                    lambda e, u: restricted_to(e, u, coerce=coerce), ea, universe
                ) == outcome(oracle_restricted_to, a, universe.outcomes, coerce)
