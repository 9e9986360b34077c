import itertools

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
    and three subsets of its labels."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    names = draw(st.permutations([f"x{i}" for i in range(sum(sizes))]))
    cuts = [0, sizes[0], sum(sizes)][: len(sizes) + 1]
    universes = [
        Universe(f"u{k}", tuple(names[lo:hi])) for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]
    subsets = st.frozensets(st.sampled_from(names))
    return (
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
            space.event(frozenset(["zzz"]))

    def test_stray_labels_are_named_sorted(self, pair_space):
        with pytest.raises(InvariantViolationError) as caught:
            pair_space.event(["zzz", "b1", "a3", 7, "a1"])
        assert str(caught.value) == "label(s) ['7', 'a3', 'zzz'] not in the outcome space"

    def test_space_event_validates_labels(self):
        space = single_space("a", "b")
        with pytest.raises(InvariantViolationError, match="zzz"):
            space.event(["a", "zzz"])
        with pytest.raises(InvariantViolationError):
            space.atom("zzz")

    def test_members_are_strings(self):
        space = single_space("1", "2")
        event = space.event([1, "2"])
        assert isinstance(event.members, frozenset)
        assert event.members == {"1", "2"}

    def test_event_from_a_mask(self):
        space = single_space("b", "a", "c")
        event = EventSet(space, 0b101)
        assert (event.space, event.mask, event.members) == (space, 0b101, {"b", "c"})
        assert space.event(["c", "b"]).mask == 0b101

    def test_repr_lists_sorted_members(self):
        space = single_space("b", "a", "c")
        assert repr(space.event(["c", "a"])) == "{a, c}"
        assert repr(space.event([])) == "{}"


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

    def test_twin_spaces_do_not_combine(self):
        # a space is its own object: one built apart from the same universes
        # is another space, whose events and universes are refused
        universes = (Universe("omega_a", ("a1", "a2")), Universe("omega_b", ("b1", "b2")))
        left, right = OutcomeSpace(universes), OutcomeSpace(universes)
        a, b = left.atom("a1"), right.atom("b2")
        with pytest.raises(SpaceMismatchError):
            a | b
        with pytest.raises(SpaceMismatchError):
            a & b
        with pytest.raises(SpaceMismatchError):
            distributes_classical(a, left.atom("a2"), b)
        with pytest.raises(SpaceMismatchError):
            complement_relative(a, right)
        twin_universe = Universe("omega_a", ("a1", "a2"))
        with pytest.raises(SpaceMismatchError):
            complement_relative(a, twin_universe)
        with pytest.raises(SpaceMismatchError):
            restricted_to(a, twin_universe)


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
        space, a, b, c = case
        ea, eb, ec = space.event(a), space.event(b), space.event(c)
        assert (ea.members, eb.members, ec.members) == (a, b, c)
        assert (ea | eb).members == oracle_union(a, b)
        assert (ea & eb).members == oracle_intersect(a, b)

        verdict = distributes_classical(ea, eb, ec)
        lhs, rhs, distributive = oracle_distributes_classical(a, b, c)
        assert (verdict.lhs.members, verdict.rhs.members, verdict.distributive) == (
            lhs, rhs, distributive,
        )

        assert outcome(complement_relative, ea, space) == oracle_complement_relative(
            a, space.labels
        )
        for universe in space.universes:
            assert outcome(complement_relative, ea, universe) == outcome(
                oracle_complement_relative, a, universe.outcomes
            )
            for coerce in (False, True):
                assert outcome(
                    lambda e, u: restricted_to(e, u, coerce=coerce), ea, universe
                ) == outcome(oracle_restricted_to, a, universe.outcomes, coerce)



def inline_eq10_trace(a_label: str, b_label: str, space: OutcomeSpace) -> list:
    """Oracle: the (expression, value) lines of ``eq10_trace`` as it was, each
    side of the distribution law built inline from unions and intersections."""
    labels = space.labels
    for label in (a_label, b_label):
        if label not in labels:
            raise PreconditionError(f"label {label!r} is not an atom of the space")
    atom = {label: space.atom(label) for label in labels}
    cx = {label: complement_relative(atom[label], space) for label in labels}
    a, b = atom[a_label], atom[b_label]
    b_rest = [x for x in labels if x != b_label]

    def big_union(events):
        out = EventSet(space, 0)
        for e in events:
            out = out.union(e)
        return out

    return [
        (f"{a_label} ∩ X", a.intersect(space.event(labels)).members),
        (f"{a_label} ∩ ({b_label} ∪ {b_label}'_X)", a.intersect(b.union(cx[b_label])).members),
        (f"({a_label} ∩ {b_label}) ∪ ({a_label} ∩ {b_label}'_X)",
         a.intersect(b).union(a.intersect(cx[b_label])).members),
        (f"({a_label} ∩ {b_label}) ∪ [{a_label} ∩ ({' ∪ '.join(b_rest)})]",
         a.intersect(b).union(a.intersect(big_union(atom[x] for x in b_rest))).members),
        (f"{a_label} ∩ [" + " ∪ ".join(f"({x} ∪ {x}'_X)" for x in labels) + "]",
         a.intersect(big_union(atom[x].union(cx[x]) for x in labels)).members),
        (" ∪ ".join(f"({a_label} ∩ {x}) ∪ ({a_label} ∩ {x}'_X)" for x in labels),
         big_union(a.intersect(atom[x]).union(a.intersect(cx[x])) for x in labels).members),
        (a_label, a.members),
    ]


def inline_mismatch_demo(a_label: str, b_label: str, space: OutcomeSpace) -> tuple:
    """Oracle: the fields of ``universe_mismatch_demo`` as it was, each side of
    the distribution law built inline: lhs_mixed, rhs_omega, the consistent
    pairs in X and in Ω_b, and the coercion log."""
    universe_b = space.universe_of(b_label)
    if space.universe_of(a_label) is universe_b:
        raise PreconditionError(
            "atoms from the same universe: the demo needs incompatible contexts")
    a, b = space.atom(a_label), space.atom(b_label)
    b_in_space = complement_relative(b, space)
    b_in_omega = complement_relative(b, universe_b)
    lhs_mixed = a.intersect(b.union(b_in_space)).members
    coerced_a = restricted_to(a, universe_b, coerce=True)
    return (
        lhs_mixed,
        a.intersect(b).union(a.intersect(b_in_omega)).members,
        (lhs_mixed, a.intersect(b).union(a.intersect(b_in_space)).members),
        (coerced_a.intersect(b.union(b_in_omega)).members,
         coerced_a.intersect(b).union(coerced_a.intersect(b_in_omega)).members),
        (f"event {{{a_label}}} coerced into universe {universe_b.name!r}: "
         f"dropped {sorted(a.members - coerced_a.members)}",),
    )


def computed_or_refused(compute, *args):
    try:
        return compute(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


@st.composite
def spaces_with_atoms(draw):
    """A space of two or three universes of one to four labels each, its bit
    order unlike sorted order, and two labels of it, one now and then a
    stranger."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    names = draw(st.permutations([f"x{i}" for i in range(sum(sizes))]))
    cuts = list(itertools.accumulate([0] + sizes))
    space = OutcomeSpace(tuple(Universe(f"u{k}", tuple(names[lo:hi]))
                               for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))))
    label = st.sampled_from(names)
    if draw(st.integers(0, 9)) == 0:
        label = st.one_of(label, st.just("stranger"))
    return space, draw(label), draw(label)


def trace_fields(a_label: str, b_label: str, space: OutcomeSpace) -> list:
    trace = eq10_trace(a_label, b_label, space)
    assert (trace.a_label, trace.b_label) == (a_label, b_label)
    assert trace.all_equal_to_atom
    assert trace.verdict == f"distributive, {a_label} = {a_label}"
    return [(line.expression, line.value) for line in trace.lines]


def demo_fields(a_label: str, b_label: str, space: OutcomeSpace) -> tuple:
    demo = universe_mismatch_demo(a_label, b_label, space)
    assert (demo.a_label, demo.b_label) == (a_label, b_label)
    assert demo.flag_raised == (demo.lhs_mixed != demo.rhs_omega)
    assert demo.flag == (MISMATCH_FLAG if demo.flag_raised else "")
    for pair in (demo.consistent_space, demo.consistent_universe):
        assert pair.equal == (pair.lhs == pair.rhs)
    return (demo.lhs_mixed, demo.rhs_omega,
            (demo.consistent_space.lhs, demo.consistent_space.rhs),
            (demo.consistent_universe.lhs, demo.consistent_universe.rhs),
            demo.coercions)


class TestDemosAgainstInlineSides:
    """``eq10_trace`` and ``universe_mismatch_demo`` take the sides of the
    distribution law from ``distributes_classical``; the inline evaluation they
    replaced gives every record field the same value, or the same refusal."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=spaces_with_atoms())
    def test_eq10_trace(self, case):
        space, a_label, b_label = case
        assert (computed_or_refused(trace_fields, a_label, b_label, space)
                == computed_or_refused(inline_eq10_trace, a_label, b_label, space))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=spaces_with_atoms())
    def test_mismatch_demo(self, case):
        space, a_label, b_label = case
        assert (computed_or_refused(demo_fields, a_label, b_label, space)
                == computed_or_refused(inline_mismatch_demo, a_label, b_label, space))
