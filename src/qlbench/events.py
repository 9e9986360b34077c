"""Finite outcome universes, their disjoint union, and universe-relative set algebra.

Complementation always takes an explicit universe argument; there is no
default.  An implicit complementation universe is exactly how the classical
distribution law appears to fail, so the choice is made unforgeable here and
the fallacy can only be reproduced through an explicit coercion flag.

Events combine only within one ``OutcomeSpace`` object, and a universe counts
as part of a space only when it is one of that space's own universes: spaces
and universes are told apart by identity, not by value.
"""

from __future__ import annotations

from .errors import InvariantViolationError, PreconditionError, QLBenchError


class SpaceMismatchError(QLBenchError, ValueError):
    """Events from different outcome spaces were combined."""


class ComplementUniverseError(PreconditionError):
    """An event reaches outside its chosen complementation universe."""


class Universe:
    """One experiment's outcome set: an ordered tuple of distinct labels."""

    __slots__ = ("name", "outcomes")

    def __init__(self, name: str, outcomes: tuple[str, ...]) -> None:
        outcomes = tuple(str(o) for o in outcomes)
        if not outcomes:
            raise InvariantViolationError(f"universe {name!r} is empty")
        if len(set(outcomes)) != len(outcomes):
            raise InvariantViolationError(f"universe {name!r} has duplicate labels")
        self.name, self.outcomes = str(name), outcomes


class OutcomeSpace:
    """Disjoint union of universes; labels are globally distinct."""

    __slots__ = ("universes", "labels", "label_bits")

    def __init__(self, universes: tuple[Universe, ...]) -> None:
        universes = tuple(universes)
        if not universes:
            raise InvariantViolationError("outcome space needs at least one universe")
        seen: set[str] = set()
        for u in universes:
            overlap = seen.intersection(u.outcomes)
            if overlap:
                raise InvariantViolationError(
                    f"label(s) {sorted(overlap)} appear in more than one universe"
                )
            seen.update(u.outcomes)
        self.universes = universes
        self.labels = tuple(label for u in universes for label in u.outcomes)
        # Each label's bit in an event's mask: labels[k] is 1 << k.
        self.label_bits = {label: 1 << k for k, label in enumerate(self.labels)}

    def mask_of(self, labels) -> int:
        """The mask of distinct labels of this space; KeyError for any other label."""
        return sum(map(self.label_bits.__getitem__, labels))

    def labels_of(self, mask: int) -> frozenset[str]:
        """The labels whose bits are set in ``mask``."""
        return frozenset(label for label, bit in self.label_bits.items() if mask & bit)

    def universe_of(self, label: str) -> Universe:
        for u in self.universes:
            if label in u.outcomes:
                return u
        raise PreconditionError(f"label {label!r} not in this outcome space")

    def event(self, labels) -> EventSet:
        """The event of ``labels``, each of which must be a label of this space."""
        members = frozenset(map(str, labels))
        try:
            mask = self.mask_of(members)
        except KeyError:
            stray = sorted(members.difference(self.labels))
            raise InvariantViolationError(f"label(s) {stray} not in the outcome space") from None
        return EventSet(self, mask)

    def atom(self, label: str) -> EventSet:
        return self.event([label])


class EventSet:
    """A finite subset of an outcome space's labels, held as a bitmask.

    Bit ``k`` of ``mask`` stands for ``space.labels[k]``.  The constructor
    takes a mask known to lie in ``space``; ``OutcomeSpace.event`` builds an
    event from labels and checks them.
    """

    __slots__ = ("space", "mask")

    def __init__(self, space: OutcomeSpace, mask: int) -> None:
        self.space, self.mask = space, mask

    @property
    def members(self) -> frozenset[str]:
        """The frozenset of the mask's labels."""
        return self.space.labels_of(self.mask)

    def _check_space(self, other: EventSet) -> OutcomeSpace:
        if self.space is not other.space:
            raise SpaceMismatchError("events belong to different outcome spaces")
        return self.space

    def union(self, other: EventSet) -> EventSet:
        return EventSet(self._check_space(other), self.mask | other.mask)

    def intersect(self, other: EventSet) -> EventSet:
        return EventSet(self._check_space(other), self.mask & other.mask)

    __or__ = union
    __and__ = intersect

    def __repr__(self) -> str:
        return "{" + ", ".join(sorted(self.members)) + "}"


def complement_relative(event: EventSet, within: Universe | OutcomeSpace) -> EventSet:
    """Complement of ``event`` relative to an explicitly chosen universe.

    ``within`` may be one Universe of the event's space or the whole space.
    Members outside the chosen universe are refused: complementing an event
    relative to a universe that does not contain it is precisely the misuse
    this module exists to make impossible by accident.
    """
    space = event.space
    if isinstance(within, OutcomeSpace):
        if within is not space:
            raise SpaceMismatchError("complement universe from a different outcome space")
        pool = space.mask_of(space.labels)
        label = "the whole outcome space"
    else:
        if within not in space.universes:
            raise SpaceMismatchError("complement universe from a different outcome space")
        pool = space.mask_of(within.outcomes)
        label = f"universe {within.name!r}"
    stray = event.mask & ~pool
    if stray:
        raise ComplementUniverseError(
            f"event member(s) {sorted(space.labels_of(stray))} lie outside {label}"
        )
    return EventSet(space, pool & ~event.mask)


def restricted_to(event: EventSet, within: Universe, *, coerce: bool = False) -> EventSet:
    """View an event inside one universe.

    Refuses a universe of another space, and members outside ``within``
    unless ``coerce`` is set, which drops them.  Coercion is the deliberate,
    logged act of confusing universes; callers record that they did it.
    """
    space = event.space
    if within not in space.universes:
        raise SpaceMismatchError("complement universe from a different outcome space")
    pool = space.mask_of(within.outcomes)
    stray = event.mask & ~pool
    if stray and not coerce:
        raise ComplementUniverseError(
            f"event member(s) {sorted(space.labels_of(stray))} lie outside universe "
            f"{within.name!r}; pass coerce=True to drop them deliberately"
        )
    return EventSet(space, event.mask & pool)


class ClassicalDistributivityVerdict:
    __slots__ = ("lhs", "rhs", "distributive")

    def __init__(self, lhs: EventSet, rhs: EventSet, distributive: bool) -> None:
        self.lhs, self.rhs, self.distributive = lhs, rhs, distributive


def distributes_classical(a: EventSet, b: EventSet, c: EventSet) -> ClassicalDistributivityVerdict:
    """Evaluate a ∩ (b ∪ c) against (a ∩ b) ∪ (a ∩ c) as finite sets."""
    space = a._check_space(b)
    b._check_space(c)
    lhs = a.mask & (b.mask | c.mask)
    rhs = (a.mask & b.mask) | (a.mask & c.mask)
    return ClassicalDistributivityVerdict(
        lhs=EventSet(space, lhs),
        rhs=EventSet(space, rhs),
        distributive=lhs == rhs,
    )


class TraceLine:
    __slots__ = ("expression", "value")

    def __init__(self, expression: str, value: frozenset[str]) -> None:
        self.expression, self.value = expression, value


class ComplementChainTrace:
    """Step-by-step expansion of a ∩ (b ∪ b') with complements taken in X."""

    __slots__ = ("a_label", "b_label", "lines")

    def __init__(self, a_label: str, b_label: str, lines: tuple[TraceLine, ...]) -> None:
        self.a_label, self.b_label, self.lines = a_label, b_label, lines

    @property
    def all_equal_to_atom(self) -> bool:
        return all(line.value == frozenset([self.a_label]) for line in self.lines)

    @property
    def verdict(self) -> str:
        if self.all_equal_to_atom:
            return f"distributive, {self.a_label} = {self.a_label}"
        return "chain broke: some line differs from the starting atom"


def eq10_trace(a_label: str, b_label: str, space: OutcomeSpace) -> ComplementChainTrace:
    """Expand a ∩ (b ∪ b'_X) step by step, all complements relative to X.

    Every line evaluates to {a}: with a consistent complementation universe
    the chain is distributive all the way down to the terminal rule that
    distinct atoms intersect to the empty set.
    """
    labels = space.labels
    for label in (a_label, b_label):
        if label not in labels:
            raise PreconditionError(f"label {label!r} is not an atom of the space")

    atom = {label: space.atom(label) for label in labels}
    cx = {label: complement_relative(atom[label], space) for label in labels}
    a = atom[a_label]
    b = atom[b_label]
    b_rest = [x for x in labels if x != b_label]

    def big_union(events):
        out = EventSet(space, 0)
        for e in events:
            out = out.union(e)
        return out

    law = distributes_classical(a, b, cx[b_label])
    lines = [
        TraceLine(f"{a_label} ∩ X", a.intersect(space.event(labels)).members),
        TraceLine(f"{a_label} ∩ ({b_label} ∪ {b_label}'_X)", law.lhs.members),
        TraceLine(f"({a_label} ∩ {b_label}) ∪ ({a_label} ∩ {b_label}'_X)", law.rhs.members),
        TraceLine(
            f"({a_label} ∩ {b_label}) ∪ [{a_label} ∩ ({' ∪ '.join(b_rest)})]",
            distributes_classical(a, b, big_union(atom[x] for x in b_rest)).rhs.members,
        ),
        TraceLine(
            f"{a_label} ∩ [" + " ∪ ".join(f"({x} ∪ {x}'_X)" for x in labels) + "]",
            a.intersect(big_union(atom[x].union(cx[x]) for x in labels)).members,
        ),
        TraceLine(
            " ∪ ".join(f"({a_label} ∩ {x}) ∪ ({a_label} ∩ {x}'_X)" for x in labels),
            big_union(distributes_classical(a, atom[x], cx[x]).rhs for x in labels).members,
        ),
        TraceLine(a_label, a.members),
    ]
    return ComplementChainTrace(a_label=a_label, b_label=b_label, lines=tuple(lines))


MISMATCH_FLAG = "inequality manufactured by complement-universe mismatch"


class SideBySide:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: frozenset[str], rhs: frozenset[str]) -> None:
        self.lhs, self.rhs = lhs, rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


class MismatchReport:
    """Three evaluations of a ∩ (b ∪ b') = (a ∩ b) ∪ (a ∩ b').

    ``mixed`` complements b in X on the left and in its own universe on the
    right, manufacturing the inequality; the two consistent evaluations agree
    on both sides.
    """

    __slots__ = ("a_label", "b_label", "lhs_mixed", "rhs_omega", "flag_raised", "flag",
                 "consistent_space", "consistent_universe", "coercions")

    def __init__(self, a_label: str, b_label: str, lhs_mixed: frozenset[str],
                 rhs_omega: frozenset[str], flag_raised: bool, flag: str,
                 consistent_space: SideBySide, consistent_universe: SideBySide,
                 coercions: tuple[str, ...]) -> None:
        self.a_label, self.b_label = a_label, b_label
        self.lhs_mixed, self.rhs_omega = lhs_mixed, rhs_omega
        self.flag_raised, self.flag = flag_raised, flag
        self.consistent_space, self.consistent_universe = consistent_space, consistent_universe
        self.coercions = coercions


def universe_mismatch_demo(a_label: str, b_label: str, space: OutcomeSpace) -> MismatchReport:
    """Reproduce the complement-universe confusion on purpose, with a logged flag.

    Requires the two atoms to come from distinct universes; the confusion is
    only possible across incompatible contexts.
    """
    universe_a = space.universe_of(a_label)
    universe_b = space.universe_of(b_label)
    if universe_a is universe_b:
        raise PreconditionError(
            "atoms from the same universe: the demo needs incompatible contexts"
        )

    a = space.atom(a_label)
    b = space.atom(b_label)
    b_in_space = complement_relative(b, space)
    b_in_omega = complement_relative(b, universe_b)
    coerced_a = restricted_to(a, universe_b, coerce=True)
    # b' is taken in X, in Ω_b, and in Ω_b with a coerced there
    in_space = distributes_classical(a, b, b_in_space)
    in_omega = distributes_classical(a, b, b_in_omega)
    in_universe = distributes_classical(coerced_a, b, b_in_omega)

    lhs_mixed = in_space.lhs.members
    rhs_omega = in_omega.rhs.members
    flag_raised = lhs_mixed != rhs_omega
    consistent_space = SideBySide(lhs=lhs_mixed, rhs=in_space.rhs.members)
    coercions = (
        f"event {{{a_label}}} coerced into universe {universe_b.name!r}: "
        f"dropped {sorted(a.members - coerced_a.members)}",
    )
    consistent_universe = SideBySide(lhs=in_universe.lhs.members, rhs=in_universe.rhs.members)

    return MismatchReport(
        a_label=a_label,
        b_label=b_label,
        lhs_mixed=lhs_mixed,
        rhs_omega=rhs_omega,
        flag_raised=flag_raised,
        flag=MISMATCH_FLAG if flag_raised else "",
        consistent_space=consistent_space,
        consistent_universe=consistent_universe,
        coercions=coercions,
    )
