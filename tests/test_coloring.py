import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbench.coloring import (
    RAY_TOL,
    AssignmentSearchResult,
    RayFamily,
    builtin_family,
    parse_ray_family,
    search_bivalent_assignment,
)
from qlbench.config import format_complex
from qlbench.errors import InvariantViolationError, PreconditionError

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
    @pytest.mark.parametrize("make", [RayFamily, RayFamily.from_vectors])
    def test_rejects_non_finite_ray(self, make, bad):
        # ray 3 is in no basis, so only its norm check can refuse it
        with pytest.raises(InvariantViolationError, match="ray 3 is not unit-norm"):
            make(3, ([1, 0, 0], [0, 1, 0], [0, 0, 1], [bad, 0, 0]), ((0, 1, 2),))

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

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ray_norm_at_ray_tol(self, factor, accepted, sign):
        rays = ([1.0 + sign * factor * RAY_TOL, 0, 0], [0, 1, 0], [0, 0, 1])
        if accepted:
            RayFamily(3, rays, ((0, 1, 2),))
        else:
            with pytest.raises(InvariantViolationError):
                RayFamily(3, rays, ((0, 1, 2),))

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_ray_overlap_at_ray_tol(self, factor, accepted):
        # the overlap of rays 0 and 1 is eps; their norms are 1 within eps**2 / 2
        eps = factor * RAY_TOL
        rays = ([1.0, 0, 0], [eps, math.sqrt(1.0 - eps * eps), 0], [0, 0, 1])
        if accepted:
            RayFamily(3, rays, ((0, 1, 2),))
        else:
            with pytest.raises(InvariantViolationError):
                RayFamily(3, rays, ((0, 1, 2),))


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


class TestIterativeSearch:
    """The bitmask search against both oracles, the recursive search and the
    trail-and-undo search: same assignment, same verdict, same node count."""

    @staticmethod
    def assert_same(family, exclusive_pairs):
        got = search_bivalent_assignment(family, exclusive_pairs=exclusive_pairs)
        for oracle in (recursive_search, trail_search):
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
