"""Bivalent noncontextual assignments over families of shared rays.

A ray family declares unit rays (identified up to phase) and bases, each
basis naming pairwise-orthogonal rays.  The search looks for a 0/1 value per
ray such that every basis carries exactly one 1; a ray shared between bases
has a single value by construction, which is what noncontextuality means
here.  Orthogonality between rays that never share a declared basis is not
constrained unless the stricter pairwise-exclusive variant is switched on.
"""

from __future__ import annotations

from itertools import chain, combinations
from pathlib import Path

import numpy as np

from .config import ConfigSemanticError, Line, parse_lines
from .errors import InvariantViolationError, PreconditionError
from .hilbert import _MAX_WIDTH, _frozen, is_integer, unit_vectors, vector_rows

RAY_TOL = 1e-9
_BINARY = bytes.maketrans(b"01", b"\0\1")  # "0"/"1" digits to 0/1 bytes

BUILTIN_FAMILIES = {
    "ks18-d4": "ks18_d4.rays",
    "triads-d3": "triads_d3.rays",
}
_parsed_builtins: dict[str, RayFamily] = {}  # package data, unchanged while the process runs


class RayFamily:
    """Unit rays in dimension >= 3, the rows of one read-only (n, dim) complex
    matrix, plus bases given as tuples of int ray indices.  The constructor
    stores a family checked here; ``from_vectors`` checks outside vectors.

    A refusal names what is at fault in the error's ``part``: ``("dim", 0,
    0)``, ``("ray", k, 0)``, or ``("basis", b, p)`` for entry p of basis b.
    """

    __slots__ = ("dim", "rays", "bases")

    def __init__(self, dim: int, rays: np.ndarray, bases: tuple[tuple[int, ...], ...]) -> None:
        self.dim, self.rays, self.bases = dim, _frozen(rays), bases

    @classmethod
    def from_vectors(cls, dim: int, vectors, bases) -> RayFamily:
        """Build a family from arbitrary nonzero vectors (normalized here)."""
        rays, k = vector_rows(vectors, dim)
        if k is not None:
            raise InvariantViolationError(f"ray {k} has length {rays[k].size}, expected {dim}",
                                          ("ray", k, 0))
        finite = np.isfinite(rays).all(axis=1)
        if finite.all():
            rays, k = unit_vectors(np.ascontiguousarray(rays), axis=1)  # rows summed in one order
            if k is not None:
                raise InvariantViolationError(f"ray {k} is a zero vector", ("ray", k, 0))
        if dim < 3:
            raise InvariantViolationError("ray families need ambient dimension >= 3", ("dim", 0, 0))
        if dim > _MAX_WIDTH:  # so wide that only a family of no rays gets here
            raise InvariantViolationError(f"ray families need ambient dimension <= {_MAX_WIDTH}",
                                          ("dim", 0, 0))
        if not finite.all():
            k = int(np.argmin(finite))
            raise InvariantViolationError(f"ray {k} has a non-finite entry", ("ray", k, 0))
        bases, index = _basis_index(dim, len(rays), bases)
        if bases:
            # each basis's declared pairs (p, q), p < q, in row-major order, so
            # the first fault found is the first in basis order
            first, second = zip(*combinations(range(dim), 2))
            overlaps = abs(np.add.reduce(rays[index[:, first]] * rays[index[:, second]].conj(),
                                         axis=2))
            bad = ~(overlaps <= RAY_TOL)
            if bad.any():
                b, pair = np.argwhere(bad)[0]
                p, q = first[pair], second[pair]
                raise InvariantViolationError(
                    f"rays {bases[b][p]} and {bases[b][q]} in basis {b} are not orthogonal",
                    ("basis", int(b), q))
        return cls(dim, rays, bases)


def _basis_index(dim: int, n: int, bases) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """``bases`` as tuples of ints and as one (len(bases), dim) index array, once
    each names ``dim`` distinct integer indices below ``n``.  All bases are decided
    at once, and walked one by one only to name the first fault."""
    bases = tuple(map(tuple, bases))
    plain = set(map(type, chain(*bases))) <= {int}  # no numpy integer to convert
    if set(map(len, bases)) <= {dim} and (plain or all(map(is_integer, chain(*bases)))):
        try:
            index = np.fromiter(chain(*bases), np.intp, len(bases) * dim).reshape(-1, dim)
        except OverflowError:  # an index beyond intp, so out of range
            pass
        else:
            ordered = np.sort(index, axis=1)
            if not bases or (ordered[:, 0].min() >= 0 and ordered[:, -1].max() < n
                             and (ordered[:, 1:] != ordered[:, :-1]).all()):
                return (bases if plain else tuple(map(tuple, index.tolist()))), index
    for b, basis in enumerate(bases):
        for p, i in enumerate(basis):
            if not is_integer(i):
                raise InvariantViolationError(f"basis {b} names {i!r}, not a ray index",
                                              ("basis", b, p))
        if len(basis) != dim or len(set(basis)) != dim:
            raise InvariantViolationError(f"basis {b} must name {dim} distinct rays",
                                          ("basis", b, 0))
        for p, i in enumerate(basis):
            if not 0 <= i < n:
                raise InvariantViolationError(f"basis {b} references unknown ray {i}",
                                              ("basis", b, p))


class AssignmentSearchResult:
    """Outcome of the exhaustive backtracking search."""

    __slots__ = ("assignment", "proved_none", "nodes")

    def __init__(self, assignment: tuple[int, ...] | None, proved_none: bool, nodes: int) -> None:
        self.assignment, self.proved_none, self.nodes = assignment, proved_none, nodes

    @property
    def found(self) -> bool:
        return self.assignment is not None


def search_bivalent_assignment(family: RayFamily, *,
                               exclusive_pairs: bool = False) -> AssignmentSearchResult:
    """Exhaustive backtracking for a 0/1 assignment with exactly one 1 per basis.

    Rays are ordered most-constrained first (descending basis membership).
    Unit propagation forces the obvious consequences of each decision: a ray
    at 1 forces its mates (every other ray of its bases) to 0, and a basis
    with all but one ray at 0 and no 1 forces the last one to 1.
    ``proved_none`` is returned only after the whole decision tree is
    exhausted; ``nodes`` counts decisions tried, not propagated forcings.

    With ``exclusive_pairs`` set, at most one of any two orthogonal rays may
    take the value 1, whether or not they share a declared basis: the rays
    orthogonal to a ray, read off the Gram matrix ``|R Rᴴ| <= RAY_TOL``, are
    among its mates too.

    The state is two bitmasks over the rays, ``ones`` and ``zeros``; each
    basis and each ray's mates are a mask, formed once before the search.
    """
    n = len(family.rays)
    bits = [1 << r for r in range(n)]
    masks: list[list[int]] = [[] for _ in range(n)]  # per ray, the masks of its bases
    mates = [0] * n  # per ray, the mask of the rays a 1 on it forces to 0
    for basis in family.bases:
        mask = 0
        for ray in basis:
            mask |= bits[ray]
        for ray in basis:
            masks[ray].append(mask)
            mates[ray] |= mask
    # each ray in a basis has its own bit among its mates; no ray is its own mate
    mates = [mate ^ bit if mate else 0 for mate, bit in zip(mates, bits)]
    # the rays' bits, most-constrained first; the sort is stable, even reversed, so
    # ties keep index order
    counts = list(map(len, masks))
    order = [bits[r] for r in sorted(range(n), key=counts.__getitem__, reverse=True)]
    if exclusive_pairs:  # a unit ray is not orthogonal to itself, so no ray is its own mate
        packed = np.packbits(np.abs(family.rays @ family.rays.conj().T) <= RAY_TOL, axis=1,
                             bitorder="little")
        width, rows = packed.shape[1], packed.tobytes()  # one row of ``width`` bytes per ray
        mates = [mate | int.from_bytes(rows[r * width:r * width + width], "little")
                 for r, mate in enumerate(mates)]

    def propagate(ones: int, zeros: int, pending: int, value: int) -> tuple[int, int] | None:
        """The two masks after setting the ray of bit ``pending`` to ``value``
        and everything it forces, or None on a conflict."""
        if value:
            ones |= pending
        else:
            zeros |= pending
        while pending:
            low = pending & -pending
            pending ^= low
            r = low.bit_length() - 1
            if ones & low:  # every 1 is popped, so this settles each basis that gets a 1
                if mates[r] & ones:
                    return None
                fresh = mates[r] & ~zeros
                zeros |= fresh
                pending |= fresh
                continue
            for mask in masks[r]:
                # a basis with its 1 was settled when the 1 was popped; one with
                # a single open ray and no 1 forces that ray to 1
                if mask & ones:
                    continue
                fresh = mask & ~zeros
                if not fresh:
                    return None
                if fresh & (fresh - 1):
                    continue
                ones |= fresh
                pending |= fresh
        return ones, zeros

    # Depth-first over an explicit stack of open decisions (position in
    # ``order``, value, the masks before it), trying 1 then 0 at each; every
    # ray before a decision's position in ``order`` is assigned while it is open.
    nodes = 0
    stack: list[tuple[int, int, int, int]] = []
    pos, value, ones, zeros = 0, 1, 0, 0
    while True:
        assigned = ones | zeros
        while pos < n and assigned & order[pos]:
            pos += 1
        if pos == n:
            # ones's bits, lowest first, below a leading 1 that keeps n = 0 empty
            assignment = tuple(format(ones | 1 << n, "b")[:0:-1].encode().translate(_BINARY))
            return AssignmentSearchResult(assignment=assignment, proved_none=False, nodes=nodes)
        nodes += 1
        state = propagate(ones, zeros, order[pos], value)
        if state is not None:
            stack.append((pos, value, ones, zeros))
            ones, zeros = state
            value = 1
            continue
        if value == 1:
            value = 0
            continue
        while stack:
            pos, value, ones, zeros = stack.pop()
            if value == 1:
                value = 0
                break
        else:
            return AssignmentSearchResult(assignment=None, proved_none=True, nodes=nodes)


def parse_ray_family(text: str) -> RayFamily:
    """Parse the line-oriented ray-family format.

    Lines: ``dim N``; ``ray c1 c2 ... cN`` (complex literals, unnormalized
    allowed); ``basis i1 ... iN`` (0-based indices into the file's rays).
    ``#`` starts a comment.  Errors name a line and column (``ray-family line
    L, column C: ...``), those that :class:`RayFamily` finds included: it
    names the ray or basis at fault, and the line that declared it is given.
    """
    dim: int | None = None
    vectors: list[list[complex]] = []
    bases: list[tuple[int, ...]] = []
    lines: dict[str, list[Line]] = {"dim": [], "ray": [], "basis": []}

    def set_dim(line: Line) -> None:
        nonlocal dim
        if dim is not None:
            raise line.error("'dim' already given", 0, ConfigSemanticError)
        line.need(1, "one integer")
        dim = line.number(int, 1)
        lines["dim"].append(line)

    def ray(line: Line) -> None:
        if dim is None:
            raise line.error("'dim' must come before 'ray'", 0)
        vectors.append(line.numbers(complex))
        lines["ray"].append(line)

    def basis(line: Line) -> None:
        bases.append(tuple(line.numbers(int)))
        lines["basis"].append(line)

    parse_lines(text, {"dim": set_dim, "ray": ray, "basis": basis}, "ray-family")
    if dim is None:
        raise InvariantViolationError("ray-family file declares no dimension")
    try:
        return RayFamily.from_vectors(dim, vectors, bases)
    except InvariantViolationError as exc:
        if exc.part is None:
            raise
        kind, index, position = exc.part
        raise lines[kind][index].error(str(exc), position + 1, ConfigSemanticError) from None


def load_ray_family(path) -> RayFamily:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ray_family(handle.read())


def builtin_family(name: str) -> RayFamily:
    """Shipped fixtures: ``ks18-d4`` (no assignment exists) and ``triads-d3``,
    each parsed once per process; every call gets its own record."""
    try:
        filename = BUILTIN_FAMILIES[name]
    except KeyError:
        raise PreconditionError(
            f"unknown builtin family {name!r}; choices: {sorted(BUILTIN_FAMILIES)}"
        ) from None
    parsed = _parsed_builtins.get(name)
    if parsed is None:
        parsed = _parsed_builtins[name] = load_ray_family(Path(__file__).parent / "data" / filename)
    return RayFamily(parsed.dim, parsed.rays.copy(), parsed.bases)
