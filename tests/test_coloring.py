import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbench import coloring
from qlbench.coloring import (
    BUILTIN_FAMILIES,
    RAY_TOL,
    AssignmentSearchResult,
    RayFamily,
    _basis_index,
    builtin_family,
    load_ray_family,
    parse_ray_family,
    search_bivalent_assignment,
)
from qlbench.config import format_complex
from qlbench.errors import InvariantViolationError, PreconditionError
from qlbench.hilbert import unit_vectors

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def dump_ray_family(family: RayFamily) -> str:
    """The family in the ray-family file format, as ``parse_ray_family`` reads it."""
    lines = [f"dim {family.dim}"]
    for ray in family.rays:
        lines.append("ray " + " ".join(map(format_complex, ray)))
    for basis in family.bases:
        lines.append("basis " + " ".join(str(i) for i in basis))
    return "\n".join(lines) + "\n"


def exhaustive_colorable(family: RayFamily) -> bool:
    """Independent oracle: enumerate one chosen ray per basis and test
    whether any choice set hits every basis exactly once."""
    for choice in itertools.product(*[list(basis) for basis in family.bases]):
        ones = set(choice)
        if all(sum(1 for r in basis if r in ones) == 1 for basis in family.bases):
            return True
    return False


def assignment_is_valid(family: RayFamily, assignment) -> bool:
    return all(sum(assignment[r] for r in basis) == 1 for basis in family.bases)


def recursive_search(family: RayFamily, *, exclusive_pairs: bool = False) -> AssignmentSearchResult:
    """Oracle: the recursive depth-first search that the iterative one
    replaced, unchanged.  Python's recursion limit stops it at about 1000
    decisions deep."""
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
                if abs(np.vdot(family.rays[i], family.rays[j])) <= RAY_TOL:
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
                if ones[b] == 1:
                    queue.extend((other, 0) for other in family.bases[b] if values[other] == -1)
                elif unassigned[b] == 1:
                    queue.extend((other, 1) for other in family.bases[b] if values[other] == -1)
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

    def next_ray() -> int | None:
        for r in order:
            if values[r] == -1:
                return r
        return None

    def dfs() -> bool:
        nonlocal nodes
        ray = next_ray()
        if ray is None:
            return all(count == 1 for count in ones)
        for value in (1, 0):
            nodes += 1
            mark = len(trail)
            if propagate(ray, value) and dfs():
                return True
            undo(mark)
        return False

    if dfs():
        return AssignmentSearchResult(assignment=tuple(values), proved_none=False, nodes=nodes)
    return AssignmentSearchResult(assignment=None, proved_none=True, nodes=nodes)


def trail_search(family: RayFamily, *, exclusive_pairs: bool = False) -> AssignmentSearchResult:
    """Oracle: the explicit-stack search with a trail, an undo and per-basis
    counters that the bitmask search replaced, unchanged."""
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
                if abs(np.vdot(family.rays[i], family.rays[j])) <= RAY_TOL:
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


def per_basis_mask_search(family: RayFamily, *,
                          exclusive_pairs: bool = False) -> AssignmentSearchResult:
    """Oracle: the bitmask search before a ray at 1 cleared its mates in one
    mask operation, unchanged: each popped ray walks the masks of its bases,
    and the rays orthogonal to a ray at 1 are cleared on a separate branch."""
    n = len(family.rays)
    bits = [1 << r for r in range(n)]
    masks: list[list[int]] = [[] for _ in range(n)]  # per ray, the masks of its bases
    for basis in family.bases:
        mask = sum(map(bits.__getitem__, basis))
        for ray in basis:
            masks[ray].append(mask)
    # the rays' bits, most-constrained first; the sort is stable, so ties keep index order
    order = [bits[r] for r in sorted(range(n), key=lambda r: -len(masks[r]))]
    if exclusive_pairs:  # per ray, the mask of the rays orthogonal to it
        rays = family.rays
        packed = np.packbits(np.abs(rays @ rays.conj().T) <= RAY_TOL, axis=1, bitorder="little")
        neighbours = [int.from_bytes(bytes(row), "little") for row in packed.tolist()]

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
            if exclusive_pairs and ones & low:
                if neighbours[r] & ones:
                    return None
                fresh = neighbours[r] & ~zeros
                zeros |= fresh
                pending |= fresh
            for mask in masks[r]:
                # a basis with its 1 forces its other rays to 0; one with a
                # single open ray and no 1 forces that ray to 1
                one = mask & ones
                if one:
                    if one & (one - 1):
                        return None
                    fresh = mask & ~(ones | zeros)
                    zeros |= fresh
                else:
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
            assignment = tuple(1 if ones & bit else 0 for bit in bits)
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


def per_basis_checks(dim: int, rays: np.ndarray, bases) -> tuple[tuple[int, ...], ...]:
    """Oracle: the basis checks of ``RayFamily`` before it decided all bases at
    once, unchanged: one Python element at a time, then the orthogonality
    gather.  The bases as int tuples, or the refusal of the first fault."""
    bases = tuple(tuple(int(i) for i in basis) for basis in bases)
    for b, basis in enumerate(bases):
        if len(basis) != dim or len(set(basis)) != dim:
            raise InvariantViolationError(f"basis {b} must name {dim} distinct rays",
                                          ("basis", b, 0))
        for p, i in enumerate(basis):
            if not 0 <= i < len(rays):
                raise InvariantViolationError(f"basis {b} references unknown ray {i}",
                                              ("basis", b, p))
    if bases:
        frames = rays[np.array(bases)]
        overlaps = np.abs(frames @ frames.conj().transpose(0, 2, 1))
        bad = np.triu(~(overlaps <= RAY_TOL), 1)
        if bad.any():
            b, p, q = np.argwhere(bad)[0]
            raise InvariantViolationError(
                f"rays {bases[b][p]} and {bases[b][q]} in basis {b} are not orthogonal",
                ("basis", int(b), int(q)))
    return bases


def random_rotation(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def triad_tree(rng, triads: int) -> RayFamily:
    """Triads in dimension 3, each sharing one ray with an earlier triad:
    a tree of bases, so an assignment always exists."""
    rays = list(random_rotation(rng, 3).T)
    bases = [(0, 1, 2)]
    for _ in range(triads - 1):
        shared = int(rng.choice(bases[int(rng.integers(len(bases)))]))
        u = rays[shared]
        p = np.cross(u, rng.normal(size=3)).conj()
        p /= np.linalg.norm(p)
        q = np.cross(u, p).conj()
        rays += [p, q / np.linalg.norm(q)]
        bases.append((shared, len(rays) - 2, len(rays) - 1))
    return RayFamily.from_vectors(3, rays, bases)


def peres_rays() -> tuple[list[np.ndarray], list[tuple[int, int, int]]]:
    """Peres' 33 rays in dimension 3 (components 0, ±1, √2) and their 16
    orthogonal triads."""
    s2 = math.sqrt(2.0)
    rays: list[np.ndarray] = []
    for seed in ((0, 0, 1), (0, 1, 1), (0, -1, 1), (0, 1, s2), (0, -1, s2),
                 (1, 1, s2), (1, -1, s2), (-1, 1, s2), (-1, -1, s2)):
        for perm in sorted(set(itertools.permutations(seed))):
            v = np.array(perm, dtype=float) / np.linalg.norm(perm)
            if not any(abs(abs(v @ r) - 1.0) < 1e-9 for r in rays):
                rays.append(v)
    triads = [t for t in itertools.combinations(range(len(rays)), 3)
              if all(abs(rays[i] @ rays[j]) < 1e-9 for i, j in itertools.combinations(t, 2))]
    return rays, triads


PERES_RAYS, PERES_TRIADS = peres_rays()


class TestRayFamilyValidation:
    def test_rejects_low_dimension(self):
        with pytest.raises(InvariantViolationError):
            RayFamily.from_vectors(2, [[1, 0], [0, 1]], [(0, 1)])

    def test_rejects_non_orthogonal_basis(self):
        with pytest.raises(InvariantViolationError):
            RayFamily.from_vectors(
                3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]], [(0, 1, 2)]
            )

    def test_rejects_short_basis(self):
        with pytest.raises(InvariantViolationError):
            RayFamily.from_vectors(3, [[1, 0, 0], [0, 1, 0]], [(0, 1)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_rejects_non_finite_ray(self, bad):
        # ray 3 is in no basis, so only its finiteness check can refuse it
        with pytest.raises(InvariantViolationError, match="ray 3 has a non-finite entry"):
            RayFamily.from_vectors(3, ([1, 0, 0], [0, 1, 0], [0, 0, 1], [bad, 0, 0]), ((0, 1, 2),))

    @pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e200])
    def test_rays_of_any_finite_magnitude_load(self, scale):
        family = parse_ray_family(
            f"dim 3\nray {scale} 0 0\nray 0 {scale}j 0\nray 0 0 1\nbasis 0 1 2\n")
        assert np.array_equal(family.rays, np.diag([1, 1j, 1]))

    def test_rays_are_one_read_only_matrix(self):
        family = RayFamily.from_vectors(3, [[2, 0, 0], [0, 1j, 0], [[0], [0], [3]]], [(0, 1, 2)])
        assert family.rays.shape == (3, 3) and family.rays.dtype == complex
        assert np.array_equal(family.rays, np.diag([1, 1j, 1]))
        with pytest.raises(ValueError):
            family.rays[0, 0] = 0.0

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ray_norm_at_ray_tol(self, factor, sign):
        # a finite ray of any length is scaled to unit length, not refused
        rays = ([1.0 + sign * factor * RAY_TOL, 0, 0], [0, 1, 0], [0, 0, 1])
        family = RayFamily.from_vectors(3, rays, ((0, 1, 2),))
        assert np.array_equal(family.rays, np.eye(3))

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_ray_overlap_at_ray_tol(self, factor, accepted):
        # the overlap of rays 0 and 1 is eps; their norms are 1 within eps**2 / 2
        eps = factor * RAY_TOL
        rays = ([1.0, 0, 0], [eps, math.sqrt(1.0 - eps * eps), 0], [0, 0, 1])
        if accepted:
            RayFamily.from_vectors(3, rays, ((0, 1, 2),))
        else:
            with pytest.raises(InvariantViolationError):
                RayFamily.from_vectors(3, rays, ((0, 1, 2),))

    def test_constructor_stores_its_arguments(self):
        rays, bases = np.zeros((2, 2), dtype=complex), ((0, 5),)
        family = RayFamily(2, rays, bases)
        assert family.dim == 2 and family.rays is rays and family.bases is bases
        assert not rays.flags.writeable


FAULTS = ("short", "long", "duplicate", "above", "negative", "skew", "empty", "any")


@st.composite
def planted_bases(draw, dims=(3, 4)):
    """Rays: some orthonormal frames in a dimension drawn from ``dims``, then
    one ray skew to every ray of the first frame.  Bases: frames in a drawn
    order, with faults planted in some (so some bases come out ragged), as
    lists or numpy integer arrays."""
    dim, frames = draw(st.sampled_from(dims)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rays = np.vstack([random_rotation(rng, dim).T for _ in range(frames)])
    rays = np.vstack([rays, rays[:dim].sum(axis=0) / math.sqrt(dim)])
    n = len(rays)
    bases = [[k * dim + i for i in draw(st.permutations(range(dim)))]
             for k in draw(st.lists(st.integers(0, frames - 1), max_size=6))]
    faults = st.tuples(st.sampled_from(FAULTS), st.integers(0, 5), st.integers(0, dim),
                       st.integers(0, n + 3))
    for fault, b, p, value in draw(st.lists(faults, max_size=3)):
        if not bases:
            break
        basis = bases[b % len(bases)]
        if fault == "empty" or not basis:
            basis.clear()
        elif fault == "short":
            del basis[p % len(basis)]
        elif fault == "long":
            basis.insert(p, value % n)
        elif fault == "duplicate":
            basis[p % len(basis)] = basis[(p + 1) % len(basis)]
        else:
            basis[p % len(basis)] = {"above": n + value % 3, "negative": -1 - value % 3,
                                     "skew": n - 1, "any": value - 3}[fault]
    if draw(st.booleans()):
        bases = [np.array(basis, dtype=draw(st.sampled_from((np.int64, np.int32))))
                 for basis in bases]
    return dim, rays, bases


def built_or_refused(make) -> tuple:
    """What ``make`` returns, or the class, text and part of its refusal."""
    try:
        return ("accepted", make())
    except InvariantViolationError as exc:
        return ("refused", type(exc), str(exc), exc.part)


class TestBasisChecks:
    """All bases decided at once, against the per-basis checks they replaced."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=planted_bases())
    def test_matches_the_per_basis_checks(self, case):
        dim, rays, bases = case
        got = built_or_refused(lambda: RayFamily.from_vectors(dim, rays, bases).bases)
        assert got == built_or_refused(lambda: per_basis_checks(dim, rays, bases))
        if got[0] == "accepted":
            assert all(type(i) is int for basis in got[1] for i in basis)

    @pytest.mark.parametrize("basis, position", [
        ((0, 1.7, 2.9), 1), ((0, 1, 2.0), 2), ((0, 1, np.float64(2)), 2),
        ((True, 1, 2), 0), ((0, np.True_, 2), 1), ((0, "1", 2), 1), ((0, 1, None), 2),
    ])
    def test_refuses_non_integer_indices(self, basis, position):
        with pytest.raises(InvariantViolationError, match="not a ray index") as info:
            RayFamily.from_vectors(3, np.eye(3), [(0, 1, 2), basis])
        assert info.value.part == ("basis", 1, position)

    def test_numpy_integers_are_indices(self):
        family = RayFamily.from_vectors(3, np.eye(3),
                                        [np.array([2, 0, 1]), (np.int32(0), 1, np.uint8(2))])
        assert family.bases == ((2, 0, 1), (0, 1, 2))
        assert all(type(i) is int for basis in family.bases for i in basis)

    @pytest.mark.parametrize("index", [2 ** 70, -2 ** 70, np.uint64(2 ** 64 - 1)])
    def test_indices_beyond_intp_are_unknown_rays(self, index):
        with pytest.raises(InvariantViolationError, match="unknown ray") as info:
            RayFamily.from_vectors(3, np.eye(3), [(0, 1, index)])
        assert info.value.part == ("basis", 0, 2)


def _ray_matrix(dim: int, rays) -> np.ndarray:
    """A fresh (n, dim) complex matrix whose row k is ``rays[k]`` flattened:
    the read ``RayFamily.from_vectors`` made before ``hilbert.vector_rows``
    served it, which refused a generator."""
    try:
        return np.array(rays, dtype=complex).reshape(len(rays), dim)
    except ValueError:  # a ray of the wrong length, or rays of mixed shapes
        for k, ray in enumerate(rays):
            if np.size(ray) != dim:
                raise InvariantViolationError(f"ray {k} has length {np.size(ray)}, expected {dim}",
                                              ("ray", k, 0)) from None
        return np.array([np.ravel(ray) for ray in rays], dtype=complex)


def reference_family(dim: int, vectors, bases) -> RayFamily:
    """Oracle: ``RayFamily.from_vectors`` as it was when the constructor checked
    its arguments, unchanged but for the text that names a non-finite ray:
    ``from_vectors`` normalized finite rays and refused a zero one, then the
    constructor checked the dimension, every ray's norm (a non-finite ray
    included) and the bases."""
    rays = _ray_matrix(dim, vectors)
    if np.isfinite(rays).all():  # a non-finite ray is refused at the norm check
        rays, k = unit_vectors(rays, axis=1)
        if k is not None:
            raise InvariantViolationError(f"ray {k} is a zero vector", ("ray", k, 0))
    bases = tuple(bases)
    if dim < 3:
        raise InvariantViolationError("ray families need ambient dimension >= 3", ("dim", 0, 0))
    rays = _ray_matrix(dim, rays)
    unit = np.isfinite(rays).all(axis=1)
    if unit.all():  # the norm of an infinite entry warns on its way to NaN
        unit = abs(np.linalg.norm(rays, axis=1) - 1.0) <= RAY_TOL
    if not unit.all():
        k = int(np.argmin(unit))
        raise InvariantViolationError(f"ray {k} has a non-finite entry", ("ray", k, 0))
    bases, index = _basis_index(dim, len(rays), bases)
    if bases:
        frames = rays[index]
        overlaps = np.abs(frames @ frames.conj().transpose(0, 2, 1))
        bad = np.triu(~(overlaps <= RAY_TOL), 1)
        if bad.any():
            b, p, q = np.argwhere(bad)[0]
            raise InvariantViolationError(
                f"rays {bases[b][p]} and {bases[b][q]} in basis {b} are not orthogonal",
                ("basis", int(b), int(q)))
    return RayFamily(dim, rays, bases)


RAY_FAULTS = ("zero", "nan", "inf", "-inf", "imaginary-nan", "short", "long", "near-unit", "skew")


@st.composite
def planted_rays(draw):
    """A ``planted_bases`` case in dimension 2, 3 or 4, its rays a list: in
    half the cases one ray of a frame is tilted towards the next one by 0.99,
    1.01 or 100 times ``RAY_TOL``, and then faults are planted in up to three
    rays: a zero ray, a NaN or ±inf entry, one entry too few or too many, a
    length 0.99 or 1.01 ``RAY_TOL`` off 1, or a skew ray of any finite
    magnitude."""
    dim, rays, bases = draw(planted_bases(dims=(2, 3, 4)))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(rays) - 2))  # a ray of a frame, not the last, skew one
        rays[k] = rays[k] + draw(st.sampled_from((0.99, 1.01, 100.0))) * RAY_TOL * (
            rays[k - k % dim + (k + 1) % dim])
    rays = list(rays)
    faults = st.tuples(st.sampled_from(RAY_FAULTS), st.integers(0, len(rays) - 1),
                       st.integers(0, dim - 1))
    for fault, k, p in draw(st.lists(faults, max_size=3)):
        ray = rays[k].copy()
        entry = slice(p % max(ray.size, 1), p % max(ray.size, 1) + 1)  # empty for an empty ray
        if fault == "zero":
            ray[:] = 0.0
        elif fault in ("nan", "inf", "-inf"):
            ray[entry] = float(fault)
        elif fault == "imaginary-nan":
            ray[entry] = ray[entry].real + complex(0.0, math.nan)
        elif fault == "short":
            ray = ray[:-1]
        elif fault == "long":
            ray = np.append(ray, 0.5)
        elif fault == "near-unit":
            with np.errstate(invalid="ignore"):  # an infinite entry times 1 + 0j has a NaN part
                ray *= 1.0 + draw(st.sampled_from((0.99, 1.01, -0.99, -1.01))) * RAY_TOL
        else:
            parts = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)
            ray = np.array(draw(st.lists(parts, min_size=dim, max_size=dim)), dtype=complex)
        rays[k] = ray
    return dim, rays, bases


def family_fields(family: RayFamily) -> tuple:
    rays = family.rays
    return (family.dim, rays.dtype, rays.shape, rays.tobytes(), rays.flags.writeable,
            rays.flags.c_contiguous, family.bases)


RAY_LAYOUTS = ("C array", "Fortran array", "column stack", "list of arrays", "lists", "generator")


def ray_layout(rays: list, layout: str):
    """The rays of a ``planted_rays`` case in ``layout``; the array layouts
    need rays of one length, and a ragged case is a list of arrays or, for a
    column stack, a list of (length, 1) columns."""
    uniform = len({ray.size for ray in rays}) == 1
    if layout == "C array" and uniform:
        return np.array(rays)
    if layout == "Fortran array" and uniform:
        return np.asfortranarray(rays)
    if layout == "column stack":
        return np.array(rays)[:, :, None] if uniform else [ray[:, None] for ray in rays]
    if layout == "lists":
        return [ray.tolist() for ray in rays]
    if layout == "generator":
        return (ray for ray in rays)
    return rays


class TestFromVectorsAgainstReference:
    """``from_vectors`` runs every check the constructor ran, in the same
    order, on rays in any layout; the reference reads them as a list."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=planted_rays(), layout=st.sampled_from(RAY_LAYOUTS))
    def test_matches_the_checked_constructor(self, case, layout):
        dim, rays, bases = case
        vectors = ray_layout(rays, layout)
        got = built_or_refused(lambda: family_fields(RayFamily.from_vectors(dim, vectors, bases)))
        assert got == built_or_refused(lambda: family_fields(reference_family(dim, rays, bases)))

    def test_a_generator_of_rays_builds_the_family(self):
        family = RayFamily.from_vectors(3, (r for r in np.eye(3)), [(0, 1, 2)])
        assert family_fields(family) == family_fields(reference_family(3, list(np.eye(3)),
                                                                       [(0, 1, 2)]))

    @pytest.mark.parametrize("dim, refusal", [
        (3, ("ray 2 has a non-finite entry", ("ray", 2, 0))),
        (2, ("ray families need ambient dimension >= 3", ("dim", 0, 0))),
    ])
    def test_a_zero_ray_is_not_named_beside_a_non_finite_one(self, dim, refusal):
        # the zero check runs only when every ray is finite, and the dimension
        # check runs before the finiteness check
        rays = [np.eye(dim)[0], np.zeros(dim), np.full(dim, math.nan)]
        got = built_or_refused(lambda: RayFamily.from_vectors(dim, rays, ()))
        assert got == built_or_refused(lambda: reference_family(dim, rays, ()))
        assert got[2:] == refusal


class TestBuiltinCache:
    """Each shipped file is parsed once per process; each call gets its own record."""

    @staticmethod
    def parse(name: str) -> RayFamily:
        return load_ray_family(Path(coloring.__file__).parent / "data" / BUILTIN_FAMILIES[name])

    def test_each_file_is_parsed_once(self, monkeypatch):
        monkeypatch.setattr(coloring, "_parsed_builtins", {})
        loaded = []
        monkeypatch.setattr(coloring, "load_ray_family",
                            lambda path: loaded.append(Path(path).name) or load_ray_family(path))
        for _ in range(3):
            for name in BUILTIN_FAMILIES:
                builtin_family(name)
        assert sorted(loaded) == sorted(BUILTIN_FAMILIES.values())

    @pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
    def test_each_call_gets_its_own_read_only_record(self, name):
        first, second, fresh = builtin_family(name), builtin_family(name), self.parse(name)
        assert first is not second
        assert not np.shares_memory(first.rays, second.rays)
        for family in (first, second):
            assert (family.dim, family.bases) == (fresh.dim, fresh.bases)
            assert np.array_equal(family.rays, fresh.rays)
            with pytest.raises(ValueError):
                family.rays[0, 0] = 0.0

    def test_reassigning_an_attribute_leaves_the_next_call_alone(self):
        first = builtin_family("ks18-d4")
        first.dim, first.rays, first.bases = 3, np.eye(3), ((0, 1, 2),)
        again, fresh = builtin_family("ks18-d4"), self.parse("ks18-d4")
        assert (again.dim, again.bases) == (fresh.dim, fresh.bases)
        assert np.array_equal(again.rays, fresh.rays)


class TestSearchColorable:
    def test_single_triad(self):
        family = RayFamily.from_vectors(
            3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(0, 1, 2)]
        )
        result = search_bivalent_assignment(family)
        assert result.found
        assert assignment_is_valid(family, result.assignment)

    def test_two_disjoint_triads(self):
        family = builtin_family("triads-d3")
        result = search_bivalent_assignment(family)
        assert result.found
        assert result.nodes <= 9
        assert assignment_is_valid(family, result.assignment)

    def test_sum_rule_is_exact(self):
        family = builtin_family("triads-d3")
        result = search_bivalent_assignment(family)
        for basis in family.bases:
            assert sum(result.assignment[r] for r in basis) == 1


class TestSearchUncolorable:
    def test_eighteen_ray_family_structure(self):
        family = builtin_family("ks18-d4")
        assert family.dim == 4
        assert len(family.rays) == 18
        assert len(family.bases) == 9
        counts = [0] * 18
        for basis in family.bases:
            for r in basis:
                counts[r] += 1
        assert counts == [2] * 18

    def test_backtracker_proves_none(self):
        family = builtin_family("ks18-d4")
        result = search_bivalent_assignment(family)
        assert result.proved_none
        assert result.assignment is None
        assert result.nodes <= 2 ** 18

    def test_exhaustive_oracle_agrees(self):
        family = builtin_family("ks18-d4")
        assert not exhaustive_colorable(family)

    def test_oracle_and_search_agree_on_colorable_family(self):
        family = builtin_family("triads-d3")
        assert exhaustive_colorable(family)
        assert search_bivalent_assignment(family).found


class TestExclusivePairsFlag:
    def build(self):
        # u is orthogonal to e1 but shares no declared basis with it
        return RayFamily.from_vectors(
            3,
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]],
            [(0, 1, 2)],
        )

    def test_default_search_ignores_undeclared_orthogonality(self):
        result = search_bivalent_assignment(self.build())
        assert result.found
        assert result.assignment == (1, 0, 0, 1)

    def test_exclusive_variant_forbids_orthogonal_double_ones(self):
        family = self.build()
        result = search_bivalent_assignment(family, exclusive_pairs=True)
        assert result.found
        for i, j in itertools.combinations(range(len(family.rays)), 2):
            if abs(np.vdot(family.rays[i], family.rays[j])) <= 1e-9:
                assert result.assignment[i] + result.assignment[j] <= 1

    @pytest.mark.parametrize("factor, orthogonal", [(0.99, True), (1.01, False)])
    def test_undeclared_overlap_at_ray_tol(self, factor, orthogonal):
        # rays 3 and 4 share no basis and overlap by eps; neither is orthogonal
        # to ray 0, the basis's 1, so each is tried at 1 in turn
        eps = factor * RAY_TOL
        u, w = np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0])
        u, w = u / np.linalg.norm(u), w / np.linalg.norm(w)
        rays = ([1, 0, 0], [0, 1, 0], [0, 0, 1], u, eps * u + math.sqrt(1.0 - eps * eps) * w)
        family = RayFamily.from_vectors(3, rays, [(0, 1, 2)])
        assert abs(np.vdot(family.rays[3], family.rays[4])) == pytest.approx(eps, rel=1e-6)
        result = search_bivalent_assignment(family, exclusive_pairs=True)
        assert result.assignment == (1, 0, 0, 1, 0 if orthogonal else 1)
        assert search_bivalent_assignment(family).assignment == (1, 0, 0, 1, 1)
        TestIterativeSearch.assert_same(family, exclusive_pairs=True)


class TestRayFamilyFiles:
    def test_round_trip(self):
        family = builtin_family("ks18-d4")
        again = parse_ray_family(dump_ray_family(family))
        assert again.dim == family.dim
        assert again.bases == family.bases
        for u, v in zip(again.rays, family.rays):
            assert abs(abs(np.vdot(u, v)) - 1.0) < 1e-12

    def test_normalizes_on_load(self):
        family = parse_ray_family(
            "dim 3\nray 2 0 0\nray 0 3 0\nray 0 0 -5\nbasis 0 1 2\n"
        )
        for ray in family.rays:
            assert abs(np.linalg.norm(ray) - 1.0) < 1e-12

    def test_reports_bad_line(self):
        with pytest.raises(InvariantViolationError, match="line 2"):
            parse_ray_family("dim 3\nray x y z\n")

    def test_unknown_builtin(self):
        with pytest.raises(PreconditionError):
            builtin_family("nope")


def signed_rays(dim: int) -> np.ndarray:
    """The rays of C^dim whose entries are 0 or ±1, one per sign pair, scaled
    to unit length: two of them are orthogonal exactly when their integer
    dot product is 0."""
    vectors = [v for v in itertools.product((0, 1, -1), repeat=dim)
               if any(v) and v[np.flatnonzero(v)[0]] == 1]
    return np.array(vectors, dtype=complex) / np.linalg.norm(vectors, axis=1)[:, None]


SIGNED_RAYS_D4 = signed_rays(4)


@st.composite
def mixed_families(draw):
    """A family for the search alone, stored with the unchecked constructor:
    4 to 16 of the 40 signed rays of C^4 and up to 10 bases, each 3 or 4
    pairwise-orthogonal rays among them in a drawn order.  So some rays lie
    in no basis, many orthogonal pairs share no basis, and 3- and 4-ray bases
    mix.  In half the cases the rays are rotated and rephased, which leaves
    their overlaps within rounding, and in some a random ray in no basis is
    added."""
    picked = draw(st.lists(st.integers(0, len(SIGNED_RAYS_D4) - 1), min_size=4, max_size=16,
                           unique=True))
    rays = SIGNED_RAYS_D4[picked]
    orthogonal = np.abs(rays @ rays.conj().T) < 0.5
    cliques = [c for size in (3, 4) for c in itertools.combinations(range(len(rays)), size)
               if all(orthogonal[i, j] for i, j in itertools.combinations(c, 2))]
    bases = ()
    if cliques:
        chosen = draw(st.lists(st.sampled_from(cliques), max_size=10))
        bases = tuple(tuple(draw(st.permutations(c))) for c in chosen)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        phases = np.exp(2j * np.pi * rng.random(len(rays)))
        rays = (rays @ random_rotation(rng, 4).T) * phases[:, None]
    if draw(st.booleans()):
        extra = rng.normal(size=4) + 1j * rng.normal(size=4)
        rays = np.vstack([rays, extra / np.linalg.norm(extra)])
    return RayFamily(4, rays, bases)


class TestIterativeSearch:
    """The bitmask search against the three searches it replaced, the
    recursive search, the trail-and-undo search and the per-basis mask
    search: same assignment, same verdict, same node count."""

    @staticmethod
    def assert_same(family, exclusive_pairs):
        got = search_bivalent_assignment(family, exclusive_pairs=exclusive_pairs)
        for oracle in (recursive_search, trail_search, per_basis_mask_search):
            want = oracle(family, exclusive_pairs=exclusive_pairs)
            assert (got.assignment, got.proved_none, got.nodes) == (
                want.assignment, want.proved_none, want.nodes)
        if got.found:
            assert assignment_is_valid(family, got.assignment)

    def test_peres_family_shape(self):
        assert (len(PERES_RAYS), len(PERES_TRIADS)) == (33, 16)
        family = RayFamily.from_vectors(3, PERES_RAYS, PERES_TRIADS)
        assert search_bivalent_assignment(family, exclusive_pairs=True).proved_none

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), triads=st.integers(1, 60),
           exclusive_pairs=st.booleans())
    def test_matches_recursive_on_triad_trees(self, seed, triads, exclusive_pairs):
        family = triad_tree(np.random.default_rng(seed), triads)
        self.assert_same(family, exclusive_pairs)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), drop=st.sets(st.integers(0, 15), max_size=12),
           exclusive_pairs=st.booleans())
    def test_matches_recursive_on_peres_subfamilies(self, seed, drop, exclusive_pairs):
        rotation = random_rotation(np.random.default_rng(seed), 3)
        rays = [rotation @ ray for ray in PERES_RAYS]
        bases = [t for i, t in enumerate(PERES_TRIADS) if i not in drop]
        self.assert_same(RayFamily.from_vectors(3, rays, bases), exclusive_pairs)

    @pytest.mark.parametrize("exclusive_pairs", [False, True])
    def test_matches_recursive_on_peres_less_one_triad(self, exclusive_pairs):
        # with exclusive_pairs, the whole family and three of these are proved-none
        for drop in range(-1, 16):
            bases = [t for i, t in enumerate(PERES_TRIADS) if i != drop]
            self.assert_same(RayFamily.from_vectors(3, PERES_RAYS, bases), exclusive_pairs)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(drop=st.sets(st.integers(0, 8), max_size=8), exclusive_pairs=st.booleans())
    def test_matches_recursive_on_ks18_subfamilies(self, drop, exclusive_pairs):
        ks18 = builtin_family("ks18-d4")
        bases = tuple(b for i, b in enumerate(ks18.bases) if i not in drop)
        self.assert_same(RayFamily(4, ks18.rays, bases), exclusive_pairs)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(family=mixed_families(), exclusive_pairs=st.booleans())
    def test_matches_the_oracles_on_mixed_families(self, family, exclusive_pairs):
        self.assert_same(family, exclusive_pairs)

    def test_1200_disjoint_triads_find_an_assignment(self):
        # deeper than Python's default recursion limit of 1000
        rng = np.random.default_rng(1200)
        rays = [ray for _ in range(1200) for ray in random_rotation(rng, 3).T]
        family = RayFamily.from_vectors(3, rays, [(3 * k, 3 * k + 1, 3 * k + 2)
                                                  for k in range(1200)])
        result = search_bivalent_assignment(family)
        assert result.found
        assert result.nodes == 1200
        assert assignment_is_valid(family, result.assignment)


class TestPinnedNodeCounts:
    """Node counts the search has given since before a ray at 1 cleared its
    mates in one mask operation, held apart from any oracle."""

    def test_ks18(self):
        result = search_bivalent_assignment(builtin_family("ks18-d4"))
        assert (result.proved_none, result.nodes) == (True, 48)

    def test_peres_with_exclusive_pairs(self):
        family = RayFamily.from_vectors(3, PERES_RAYS, PERES_TRIADS)
        result = search_bivalent_assignment(family, exclusive_pairs=True)
        assert (result.proved_none, result.nodes) == (True, 46)

    def test_triad_tree_of_100(self):
        family = triad_tree(np.random.default_rng(100), 100)
        result = search_bivalent_assignment(family)
        assert (result.found, result.nodes) == (True, 50)
        assert assignment_is_valid(family, result.assignment)
