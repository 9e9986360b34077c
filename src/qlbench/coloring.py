"""Bivalent noncontextual assignments over families of shared rays.

A ray family declares unit rays (identified up to phase) and bases, each
basis naming pairwise-orthogonal rays.  The search looks for a 0/1 value per
ray such that every basis carries exactly one 1; a ray shared between bases
has a single value by construction, which is what noncontextuality means
here.  Orthogonality between rays that never share a declared basis is not
constrained unless the stricter pairwise-exclusive variant is switched on.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .config import ConfigSemanticError, Line, format_complex, parse_lines
from .errors import InvariantViolationError, PreconditionError

RAY_TOL = 1e-9

BUILTIN_FAMILIES = {
    "ks18-d4": "ks18_d4.rays",
    "triads-d3": "triads_d3.rays",
}


@dataclass(frozen=True)
class RayFamily:
    """Unit rays in dimension >= 3 plus bases given as ray-index tuples."""

    dim: int
    rays: tuple[np.ndarray, ...]
    bases: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 3:
            raise InvariantViolationError("ray families need ambient dimension >= 3")
        rays = []
        for k, ray in enumerate(self.rays):
            vec = np.asarray(ray, dtype=complex).reshape(-1)
            if vec.size != self.dim:
                raise InvariantViolationError(f"ray {k} has length {vec.size}, expected {self.dim}")
            if not abs(float(np.linalg.norm(vec)) - 1.0) <= RAY_TOL:
                raise InvariantViolationError(f"ray {k} is not unit-norm")
            vec.setflags(write=False)
            rays.append(vec)
        bases = tuple(tuple(int(i) for i in basis) for basis in self.bases)
        for b_idx, basis in enumerate(bases):
            if len(basis) != self.dim or len(set(basis)) != self.dim:
                raise InvariantViolationError(
                    f"basis {b_idx} must name {self.dim} distinct rays"
                )
            for i in basis:
                if not 0 <= i < len(rays):
                    raise InvariantViolationError(f"basis {b_idx} references unknown ray {i}")
            for pos, i in enumerate(basis):
                for j in basis[pos + 1:]:
                    if not abs(np.vdot(rays[i], rays[j])) <= RAY_TOL:
                        raise InvariantViolationError(
                            f"rays {i} and {j} in basis {b_idx} are not orthogonal"
                        )
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "bases", bases)

    @classmethod
    def from_vectors(cls, dim: int, vectors, bases) -> RayFamily:
        """Build a family from arbitrary nonzero vectors (normalized here)."""
        rays = []
        for vec in vectors:
            v = np.asarray(vec, dtype=complex).reshape(-1)
            norm = float(np.linalg.norm(v))
            if norm == 0.0:
                raise InvariantViolationError("zero vector cannot define a ray")
            rays.append(v / norm)
        return cls(dim=dim, rays=tuple(rays), bases=tuple(bases))


def identify_rays(vectors, tol: float = RAY_TOL) -> list[int]:
    """Group unit vectors into rays: same id iff |<u|v>| >= 1 - tol.

    Phase-insensitive, so a vector and any phase multiple of it share an id.
    """
    ids: list[int] = []
    representatives: list[np.ndarray] = []
    for vec in vectors:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if abs(float(np.linalg.norm(v)) - 1.0) > tol:
            raise PreconditionError("non-unit input vector")
        if representatives and v.size != representatives[0].size:
            raise PreconditionError("vectors of mixed dimension")
        for rid, rep in enumerate(representatives):
            if abs(np.vdot(rep, v)) >= 1.0 - tol:
                ids.append(rid)
                break
        else:
            ids.append(len(representatives))
            representatives.append(v)
    return ids


@dataclass(frozen=True)
class AssignmentSearchResult:
    """Outcome of the exhaustive backtracking search."""

    assignment: tuple[int, ...] | None
    proved_none: bool
    nodes: int

    @property
    def found(self) -> bool:
        return self.assignment is not None


def search_bivalent_assignment(
    family: RayFamily, *, exclusive_pairs: bool = False, ortho_tol: float = RAY_TOL
) -> AssignmentSearchResult:
    """Exhaustive backtracking for a 0/1 assignment with exactly one 1 per basis.

    Rays are ordered most-constrained first (descending basis membership).
    Unit propagation forces the obvious consequences of each decision: once a
    basis has its 1 the rest of its rays are 0, and a basis with all but one
    ray at 0 forces the last one to 1.  ``proved_none`` is returned only
    after the whole decision tree is exhausted; ``nodes`` counts decisions
    tried, not propagated forcings.

    With ``exclusive_pairs`` set, at most one of any two orthogonal rays may
    take the value 1, whether or not they share a declared basis.
    """
    n = len(family.rays)
    membership: list[list[int]] = [[] for _ in range(n)]
    for b_idx, basis in enumerate(family.bases):
        for ray in basis:
            membership[ray].append(b_idx)
    order = sorted(range(n), key=lambda r: (-len(membership[r]), r))

    ortho_neighbors: list[list[int]] = [[] for _ in range(n)]
    if exclusive_pairs:
        for i in range(n):
            for j in range(i + 1, n):
                if abs(np.vdot(family.rays[i], family.rays[j])) <= ortho_tol:
                    ortho_neighbors[i].append(j)
                    ortho_neighbors[j].append(i)

    values = [-1] * n
    ones = [0] * len(family.bases)
    unassigned = [len(basis) for basis in family.bases]
    trail: list[int] = []
    nodes = 0

    def propagate(ray: int, value: int) -> bool:
        queue = [(ray, value)]
        while queue:
            r, v = queue.pop()
            if values[r] != -1:
                if values[r] != v:
                    return False
                continue
            # Counter updates must cover every basis of r before any conflict
            # return, because undo() reverses the full membership of r.
            values[r] = v
            trail.append(r)
            conflict = False
            for b in membership[r]:
                unassigned[b] -= 1
                if v == 1:
                    ones[b] += 1
                if ones[b] > 1 or (unassigned[b] == 0 and ones[b] == 0):
                    conflict = True
            if conflict:
                return False
            for b in membership[r]:
                # a basis with its 1 forces its other rays to 0; one with a
                # single open ray and no 1 forces that ray to 1
                forced = 0 if ones[b] == 1 else 1 if unassigned[b] == 1 else -1
                if forced != -1:
                    queue.extend((other, forced) for other in family.bases[b]
                                 if values[other] == -1)
            if v == 1 and exclusive_pairs:
                for other in ortho_neighbors[r]:
                    if values[other] == 1:
                        return False
                    if values[other] == -1:
                        queue.append((other, 0))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            r = trail.pop()
            v = values[r]
            values[r] = -1
            for b in membership[r]:
                unassigned[b] += 1
                if v == 1:
                    ones[b] -= 1

    # Depth-first over an explicit stack of open decisions (position in
    # ``order``, value, trail mark), trying 1 then 0 at each; every ray before
    # a decision's position in ``order`` is assigned while it is open.
    stack: list[tuple[int, int, int]] = []
    pos, value = 0, 1
    while True:
        while pos < n and values[order[pos]] != -1:
            pos += 1
        if pos < n:
            nodes += 1
            mark = len(trail)
            if propagate(order[pos], value):
                stack.append((pos, value, mark))
                value = 1
                continue
            undo(mark)
            if value == 1:
                value = 0
                continue
        elif all(count == 1 for count in ones):
            return AssignmentSearchResult(assignment=tuple(values), proved_none=False, nodes=nodes)
        while stack:
            pos, value, mark = stack.pop()
            undo(mark)
            if value == 1:
                value = 0
                break
        else:
            return AssignmentSearchResult(assignment=None, proved_none=True, nodes=nodes)


def parse_ray_family(text: str) -> RayFamily:
    """Parse the line-oriented ray-family format.

    Lines: ``dim N``; ``ray c1 c2 ... cN`` (complex literals, unnormalized
    allowed); ``basis i1 ... iN`` (0-based indices into the rays declared so
    far).  ``#`` starts a comment.  Errors in a line name its line and column
    (``ray-family line L, column C: ...``).
    """
    dim: int | None = None
    vectors: list[list[complex]] = []
    bases: list[tuple[int, ...]] = []

    def set_dim(line: Line) -> None:
        nonlocal dim
        if dim is not None:
            raise line.error("'dim' already given", 0, ConfigSemanticError)
        line.need(1, "one integer")
        dim = line.number(int, 1)

    def ray(line: Line) -> None:
        if dim is None:
            raise line.error("'dim' must come before 'ray'", 0)
        vectors.append(line.numbers(complex))

    parse_lines(text, {"dim": set_dim, "ray": ray,
                       "basis": lambda line: bases.append(tuple(line.numbers(int)))},
                "ray-family")
    if dim is None:
        raise InvariantViolationError("ray-family file declares no dimension")
    return RayFamily.from_vectors(dim, vectors, bases)


def dump_ray_family(family: RayFamily) -> str:
    lines = [f"dim {family.dim}"]
    for ray in family.rays:
        lines.append("ray " + " ".join(map(format_complex, ray)))
    for basis in family.bases:
        lines.append("basis " + " ".join(str(i) for i in basis))
    return "\n".join(lines) + "\n"


def load_ray_family(path) -> RayFamily:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ray_family(handle.read())


def builtin_family(name: str) -> RayFamily:
    """Shipped fixtures: ``ks18-d4`` (no assignment exists) and ``triads-d3``."""
    try:
        filename = BUILTIN_FAMILIES[name]
    except KeyError:
        raise PreconditionError(
            f"unknown builtin family {name!r}; choices: {sorted(BUILTIN_FAMILIES)}"
        ) from None
    text = resources.files(__package__).joinpath("data", filename).read_text(encoding="utf-8")
    return parse_ray_family(text)
