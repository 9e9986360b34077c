import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    full_subspace,
    random_nested_pair,
    random_subspace,
    random_unitary,
    zero_subspace,
)
from qlbench import lattice
from qlbench.config import DEFAULT_SEED
from qlbench.errors import DimensionMismatchError, InvariantViolationError, PreconditionError
from qlbench.hilbert import MAX_DIM, unit_vectors
from qlbench.lattice import (
    FRAME_TOL,
    INCLUSION_TOL,
    RANK_TOL,
    LatticeAxiomReport,
    Subspace,
    _equal_stacked,
    _inclusion_matrix,
    _includes_stacked,
    _join_stacked,
    _kept,
    _meet_stacked,
    _orthocomplement_stacked,
    _padded_frames,
    _residual,
    _stack,
    _subspace,
    absorption_holds,
    absorption_holds_stacked,
    check_lattice_axioms,
    de_morgan_holds,
    de_morgan_holds_stacked,
    distributes,
    includes,
    join,
    meet,
    orthocomplement,
    orthomodular_holds,
    orthomodular_holds_stacked,
    subspace_equal,
)
from qlbench.sampling import _gaussian_complex, random_nested_pairs, random_subspaces, rng_from

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ray(*coords):
    return Subspace.ray(list(coords))


def is_full(s: Subspace) -> bool:
    return s.dim == s.ambient_dim


def outcomes(report: LatticeAxiomReport) -> list[tuple]:
    """Each check of ``report`` as (name, checked, passed, counterexample)."""
    return [(c.name, c.checked, c.passed, c.counterexample) for c in report.checks]


def by_name(report: LatticeAxiomReport, name: str) -> tuple:
    (check,) = (check for check in outcomes(report) if check[0] == name)
    return check


def e(i, dim):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestMeet:
    def test_distinct_rays_in_dim2_intersect_trivially(self):
        result = meet(ray(1, 0), ray(INV_SQRT2, INV_SQRT2))
        assert result.is_zero

    def test_idempotent(self):
        a = ray(0.6, 0.8)
        assert subspace_equal(meet(a, a), a)

    def test_plane_intersection_is_shared_ray(self):
        a = Subspace.from_vectors(3, [e(0, 3), e(1, 3)])
        b = Subspace.from_vectors(3, [e(1, 3), e(2, 3)])
        result = meet(a, b)
        # containment both ways pins the result to the shared ray
        assert result.dim == 1
        assert includes(result, Subspace.ray(e(1, 3)))
        assert includes(Subspace.ray(e(1, 3)), result)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            meet(ray(1, 0), Subspace.ray(e(0, 3)))


class TestJoin:
    def test_orthogonal_rays_span_everything(self):
        assert is_full(join(ray(1, 0), ray(0, 1)))

    def test_oblique_rays_span_everything(self):
        # rank of the concatenated frame, checked independently
        stacked = np.column_stack([[1.0, 0.0], [INV_SQRT2, INV_SQRT2]])
        assert np.linalg.matrix_rank(stacked) == 2
        assert is_full(join(ray(1, 0), ray(INV_SQRT2, INV_SQRT2)))

    def test_zero_is_identity_element(self):
        a = ray(0.6, 0.8)
        assert subspace_equal(join(a, zero_subspace(2)), a)


class TestOrthocomplement:
    def test_standard_ray(self):
        assert subspace_equal(orthocomplement(ray(1, 0)), ray(0, 1))

    def test_zero_subspace(self):
        assert is_full(orthocomplement(zero_subspace(2)))

    def test_oblique_ray(self):
        result = orthocomplement(ray(INV_SQRT2, INV_SQRT2))
        assert subspace_equal(result, ray(INV_SQRT2, -INV_SQRT2))

    def test_dimensions_are_complementary(self):
        rng = rng_from(201)
        for _ in range(30):
            dim = int(rng.integers(1, 5))
            sub = random_subspace(rng, dim)
            assert orthocomplement(sub).dim == dim - sub.dim


class TestIncludes:
    def test_zero_in_anything(self):
        assert includes(zero_subspace(3), random_subspace(rng_from(1), 3))

    def test_axis_in_plane(self):
        plane = Subspace.from_vectors(3, [e(0, 3), e(1, 3)])
        assert includes(Subspace.ray(e(0, 3)), plane)

    def test_oblique_ray_not_in_axis(self):
        # projection residual of (1,1)/sqrt(2) onto e1 has norm 1/sqrt(2)
        v = np.array([INV_SQRT2, INV_SQRT2])
        residual = v - np.array([1.0, 0.0]) * v[0]
        assert abs(np.linalg.norm(residual) - INV_SQRT2) < 1e-12
        assert not includes(ray(INV_SQRT2, INV_SQRT2), ray(1, 0))


class TestLatticeAxioms:
    def test_small_sample_passes(self):
        sample = [zero_subspace(2), ray(1, 0), full_subspace(2)]
        report = check_lattice_axioms(sample)
        assert report.all_passed

    def test_hundred_random_subspaces_pass(self):
        rng = rng_from(DEFAULT_SEED)
        sample = [random_subspace(rng, 3) for _ in range(100)]
        report = check_lattice_axioms(sample, seed=DEFAULT_SEED)
        assert report.all_passed
        assert len(report.checks) == 6

    def test_double_complement_spot_check(self):
        a = ray(INV_SQRT2, INV_SQRT2)
        assert subspace_equal(orthocomplement(orthocomplement(a)), a)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            check_lattice_axioms([ray(1, 0), Subspace.ray(e(0, 3))])

    def test_empty_sample_rejected(self):
        with pytest.raises(PreconditionError):
            check_lattice_axioms([])

    @pytest.mark.parametrize("factor, passed", [(0.99, True), (1.01, False), (1.3, False)])
    def test_antisymmetry_fails_on_mutually_included_unequal_planes(self, factor, passed):
        # a = span(e1, e2) and b = span(b1, e2), b1 = cos t e1 + sin t e3, stored as
        # (x ± e2)/√2 frames: each frame vector is t/√2 from the other plane, inside
        # INCLUSION_TOL, but the projectors differ by cos t sin t ≈ t
        t = factor * INCLUSION_TOL
        e1, e2, e3 = (e(k, 4) for k in range(3))
        b1 = math.cos(t) * e1 + math.sin(t) * e3
        a, b = (Subspace(np.column_stack([(x + e2) * INV_SQRT2, (x - e2) * INV_SQRT2]))
                for x in (e1, b1))
        assert includes(a, b) and includes(b, a)
        name = "antisymmetry: a ⊆ b and b ⊆ a imply a = b"
        check = by_name(check_lattice_axioms([a, b]), name)
        if passed:
            assert check == (name, 4, True, None)
        else:
            # row-major pairs: (0, 0) holds, (0, 1) is the second
            assert check == (name, 2, False, "sample[0], sample[1]")


class TestDistributes:
    def test_witness_triple_fails_distribution(self):
        a = ray(1, 0)
        b = ray(INV_SQRT2, INV_SQRT2)
        c = orthocomplement(b)
        verdict = distributes(a, b, c)
        assert not verdict.distributive
        assert verdict.lhs.dim == 1
        assert verdict.rhs.dim == 0
        assert subspace_equal(verdict.lhs, a)

    def test_comparable_elements_distribute(self):
        a = ray(1, 0)
        verdict = distributes(a, a, ray(0, 1))
        assert verdict.distributive
        assert subspace_equal(verdict.lhs, a)
        assert subspace_equal(verdict.rhs, a)

    def test_near_tolerance_rays_get_a_verdict(self):
        # a ∧ b = a within RANK_TOL, but a ∧ (b ∨ c) = 0: the tolerance
        # decisions are not transitive, so rhs is not inside lhs
        a, b, c = (ray(1, t) for t in (3.115e-10, 2.130e-10, 1.519e-10))
        verdict = distributes(a, b, c)
        assert (verdict.lhs.dim, verdict.rhs.dim) == (0, 1)
        assert not verdict.distributive

    def test_near_axis_triples_get_a_verdict(self):
        tilts = 10.0 ** np.random.default_rng(0).uniform(-11, -8, size=(3000, 3))
        verdicts = [distributes(*(ray(1, t) for t in row)) for row in tilts.tolist()]
        # both sides lie in a, so they are equal exactly when their dimensions are
        assert all(max(v.lhs.dim, v.rhs.dim) <= 1 for v in verdicts)
        assert all(v.distributive == (v.lhs.dim == v.rhs.dim) for v in verdicts)
        # the triples whose rhs escapes lhs are in the sweep
        assert any(v.rhs.dim > v.lhs.dim for v in verdicts)

    def test_commuting_triples_distribute(self):
        rng = rng_from(202)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            unitary = random_unitary(rng, dim)
            subs = []
            for _ in range(3):
                mask = rng.integers(0, 2, size=dim).astype(bool)
                cols = [unitary[:, i] for i in range(dim) if mask[i]]
                subs.append(Subspace.from_vectors(dim, cols))
            verdict = distributes(*subs)
            assert verdict.distributive


class TestOrthomodular:
    def test_ray_inside_full_space(self):
        assert orthomodular_holds(ray(1, 0), full_subspace(2))

    def test_equal_subspaces(self):
        a = ray(0.6, 0.8)
        assert orthomodular_holds(a, a)

    def test_precondition_violation_is_an_error(self):
        with pytest.raises(PreconditionError):
            orthomodular_holds(ray(1, 0), ray(0, 1))

    def test_random_nested_pairs(self):
        rng = rng_from(203)
        for _ in range(300):
            dim = int(rng.integers(2, 5))
            inner, outer = random_nested_pair(rng, dim)
            assert orthomodular_holds(inner, outer)


class TestAlgebraicLaws:
    def test_meet_join_commutative_associative(self):
        rng = rng_from(204)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a, b, c = (random_subspace(rng, dim) for _ in range(3))
            assert subspace_equal(meet(a, b), meet(b, a))
            assert subspace_equal(join(a, b), join(b, a))
            assert subspace_equal(meet(meet(a, b), c), meet(a, meet(b, c)))
            assert subspace_equal(join(join(a, b), c), join(a, join(b, c)))

    def test_absorption(self):
        rng = rng_from(205)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            a, b = random_subspace(rng, dim), random_subspace(rng, dim)
            assert absorption_holds(a, b)

    def test_de_morgan(self):
        rng = rng_from(206)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            a, b = random_subspace(rng, dim), random_subspace(rng, dim)
            assert de_morgan_holds(a, b)


# -- the slow paths, kept as oracles for the principal-angle meet and the batched check --


def oracle_meet(a, b):
    """The meet through De Morgan: the complement of the join of the complements."""
    return orthocomplement(join(orthocomplement(a), orthocomplement(b)))


def oracle_inclusion_matrix(inner, outer):
    return np.array([[includes(a, b) for b in outer] for a in inner], dtype=bool)


def inclusion_matrix(inner, outer):
    """``_inclusion_matrix`` on the padded frames of ``inner`` and of the
    complements of ``outer``."""
    return _inclusion_matrix(_padded_frames(inner),
                             _padded_frames([orthocomplement(b) for b in outer]))


def projector_gap(a, b):
    """max|P_a − P_b| over the entries of the two orthogonal projectors."""
    return float(np.max(np.abs(a.frame @ a.frame.conj().T - b.frame @ b.frame.conj().T)))


def oracle_check_lattice_axioms(sample, *, pair_limit=4000, triple_limit=4000, seed=0):
    """The per-pair ``includes`` loop, stopping at the first failure of each
    axiom, as the ``outcomes`` of its report."""
    n = len(sample)
    rng = np.random.default_rng(seed)
    if n * n <= pair_limit:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [tuple(p) for p in rng.integers(0, n, size=(pair_limit, 2))]
    if n ** 3 <= triple_limit:
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    else:
        triples = [tuple(t) for t in rng.integers(0, n, size=(triple_limit, 3))]
    singles = [(i,) for i in range(n)]
    inc = lambda i, j: includes(sample[i], sample[j])
    comp = lambda i: orthocomplement(sample[i])
    axioms = [
        ("reflexivity: a ⊆ a", singles, lambda i: inc(i, i)),
        ("antisymmetry: a ⊆ b and b ⊆ a imply a = b", pairs,
         lambda i, j: not (inc(i, j) and inc(j, i))
         or projector_gap(sample[i], sample[j]) <= INCLUSION_TOL),
        ("transitivity: a ⊆ b ⊆ c implies a ⊆ c", triples,
         lambda i, j, k: not (inc(i, j) and inc(j, k)) or inc(i, k)),
        ("involution: (a')' = a", singles,
         lambda i: subspace_equal(orthocomplement(comp(i)), sample[i])),
        ("complement disjointness: a ∧ a' = 0", singles,
         lambda i: oracle_meet(sample[i], comp(i)).is_zero),
        ("order reversal: a ⊆ b iff b' ⊆ a'", pairs,
         lambda i, j: inc(i, j) == includes(comp(j), comp(i))),
    ]
    checks = []
    for name, cases, predicate in axioms:
        failure, count = None, 0
        for case in cases:
            count += 1
            if not predicate(*case):
                failure = ", ".join(f"sample[{k}]" for k in case)
                break
        checks.append((name, count, failure is None, failure))
    return checks


def _gaussian(rng, dim, k):
    return rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))


def shared_part_pair(rng, dim):
    """(a, b, shared dim): a random common part plus independent extras for each."""
    shared = int(rng.integers(0, dim + 1))
    common = _gaussian(rng, dim, shared)
    a, b = (
        Subspace.from_vectors(
            dim, np.column_stack([common, _gaussian(rng, dim, int(rng.integers(0, dim - shared + 1)))]).T
        )
        for _ in range(2)
    )
    return a, b, shared


def tilted_ray(dim, sine):
    """The unit vector cos θ e0 + sin θ e1 in C^dim, as a ray."""
    v = np.zeros(dim)
    v[0], v[1] = math.sqrt(1.0 - sine * sine), sine
    return Subspace.ray(v)


class TestMeetAgainstDeMorganOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        kind=st.sampled_from(("random", "nested", "shared")),
    )
    def test_same_dimension_and_subspace(self, seed, dim, kind):
        rng = rng_from(seed)
        if kind == "random":
            a, b = random_subspace(rng, dim), random_subspace(rng, dim)
        elif kind == "nested":
            a, b = random_nested_pair(rng, dim)
        else:
            a, b, shared = shared_part_pair(rng, dim)
            # independent Gaussian extras are in general position with probability one
            assert meet(a, b).dim == max(shared, a.dim + b.dim - dim)
        for left, right in ((a, b), (b, a)):
            fast, slow = meet(left, right), oracle_meet(left, right)
            assert fast.dim == slow.dim
            assert subspace_equal(fast, slow)
            assert includes(fast, left) and includes(fast, right)
        if kind == "nested":
            assert subspace_equal(meet(a, b), a)


class TestInclusionMatrixAgainstIncludes:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), n=st.integers(1, 40))
    def test_every_pair(self, seed, dim, n):
        rng = rng_from(seed)
        sample = [random_subspace(rng, dim) for _ in range(n)]
        if n >= 2:  # nested members make true off-diagonal inclusions
            sample[:2] = random_nested_pair(rng, dim)
        complements = [orthocomplement(s) for s in sample]
        for inner, outer in ((sample, sample), (complements, complements), (sample, complements)):
            assert np.array_equal(inclusion_matrix(inner, outer), oracle_inclusion_matrix(inner, outer))

    def test_rows_larger_than_one_block(self):
        rng = rng_from(207)
        sample = [random_subspace(rng, 8) for _ in range(130)]  # 130 * 8 * 8 > 2**13 entries a row
        assert np.array_equal(inclusion_matrix(sample, sample), oracle_inclusion_matrix(sample, sample))


class TestAxiomCheckAgainstPerPairLoop:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 5),
        n=st.integers(1, 12),
        limit=st.sampled_from((20, 4000)),
        plant=st.booleans(),
    )
    def test_counts_and_counterexamples(self, seed, dim, n, limit, plant):
        rng = rng_from(seed)
        sample = [random_subspace(rng, dim) for _ in range(n)]
        if plant:
            # inclusion at INCLUSION_TOL is not transitive: 0.6 tol + 0.6 tol > tol
            chain = [tilted_ray(dim, t * INCLUSION_TOL) for t in (0.0, 0.6, 1.2)]
            for k, ray_k in zip(rng.choice(n + 3, size=3, replace=False), chain):
                sample.insert(int(k), ray_k)
        # Hypothesis forbids function-scoped fixtures such as monkeypatch
        with mock.patch.object(lattice, "TUPLE_LIMIT", limit):
            report = check_lattice_axioms(sample, seed=seed)
        assert outcomes(report) == oracle_check_lattice_axioms(
            sample, pair_limit=limit, triple_limit=limit, seed=seed)

    def test_transitivity_counterexample_is_the_first_failing_triple(self):
        sample = [tilted_ray(2, t * INCLUSION_TOL) for t in (0.0, 0.6, 1.2)]
        check = by_name(check_lattice_axioms(sample), "transitivity: a ⊆ b ⊆ c implies a ⊆ c")
        # row-major order: (0,0,0) .. (0,1,1) hold, (0,1,2) is the sixth triple
        assert check == (
            "transitivity: a ⊆ b ⊆ c implies a ⊆ c", 6, False, "sample[0], sample[1], sample[2]"
        )


def unstacked(stack):
    """The items of a stack as checked subspaces, so each frame is orthonormal."""
    return [Subspace(frame[:, :k]) for frame, k in zip(stack.frames, stack.dims.tolist())]


PAIR_KINDS = ("random", "nested", "shared", "zero", "full", "meet", "join", "inclusion")

# the quantity each planted kind puts next to its tolerance: the sine of the
# angle between two rays decides their meet and their inclusion, and the
# smaller singular value of their two frame vectors, √2 sin(θ/2), their join
PLANTED_SINES = {"meet": RANK_TOL, "join": math.sqrt(2.0) * RANK_TOL, "inclusion": INCLUSION_TOL}


def draw_pair(rng, dim, kind, factor):
    """A pair of subspaces of C^dim of the given kind; the planted kinds are
    two rays, turned by a Haar unitary, whose deciding quantity is ``factor``
    times its tolerance."""
    if kind in PLANTED_SINES and dim >= 2:
        unitary = random_unitary(rng, dim)
        sine = factor * PLANTED_SINES[kind]
        return (Subspace.ray(unitary[:, 0]),
                Subspace.ray(unitary @ tilted_ray(dim, sine).frame[:, 0]))
    if kind == "nested":
        return random_nested_pair(rng, dim)
    if kind == "shared":
        return shared_part_pair(rng, dim)[:2]
    if kind == "zero":
        return zero_subspace(dim), random_subspace(rng, dim)
    if kind == "full":
        return random_subspace(rng, dim), full_subspace(dim)
    return random_subspace(rng, dim), random_subspace(rng, dim)


class TestStackedAgainstPerPair:
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_planted_pairs_sit_on_the_side_of_their_threshold(self, factor):
        rng = rng_from(209)
        below = factor < 1
        for dim in (2, 5, 8):
            pairs = {kind: draw_pair(rng, dim, kind, factor) for kind in PLANTED_SINES}
            assert meet(*pairs["meet"]).dim == (1 if below else 0)
            assert join(*pairs["join"]).dim == (1 if below else 2)
            assert includes(*pairs["inclusion"]) is below
            a, b = (_stack([s]) for s in pairs["meet"])
            assert _meet_stacked(a, b).dims.tolist() == [1 if below else 0]
            a, b = (_stack([s]) for s in pairs["join"])
            assert _join_stacked(a, b).dims.tolist() == [1 if below else 2]
            a, b = (_stack([s]) for s in pairs["inclusion"])
            assert _includes_stacked(a, b).tolist() == [below]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(PAIR_KINDS), min_size=1, max_size=10),
        factor=st.sampled_from((0.99, 1.01)),
        swap=st.booleans(),
    )
    def test_operations_and_laws(self, seed, dim, kinds, factor, swap):
        rng = rng_from(seed)
        pairs = [draw_pair(rng, dim, kind, factor) for kind in kinds]
        if swap:
            pairs = [(b, a) for a, b in pairs]
        a, b = (list(side) for side in zip(*pairs))
        first, second = _stack(a), _stack(b)
        for stacked, single in (
            (_join_stacked(first, second), [join(x, y) for x, y in pairs]),
            (_meet_stacked(first, second), [meet(x, y) for x, y in pairs]),
            (_orthocomplement_stacked(first), [orthocomplement(x) for x in a]),
        ):
            assert stacked.dims.tolist() == [s.dim for s in single]
            # a plane spanned by two rays 1e-10 apart is fixed only to ~1e-6
            assert all(subspace_equal(x, y) for x, y, kind in zip(unstacked(stacked), single, kinds)
                       if kind not in PLANTED_SINES)
        assert _includes_stacked(first, second).tolist() == [includes(x, y) for x, y in pairs]
        assert absorption_holds_stacked(a, b).tolist() == [absorption_holds(x, y) for x, y in pairs]
        assert de_morgan_holds_stacked(a, b).tolist() == [de_morgan_holds(x, y) for x, y in pairs]
        nested = [(x, y) for x, y in pairs if includes(x, y)]
        if nested:
            inner, outer = (list(side) for side in zip(*nested))
            assert (orthomodular_holds_stacked(inner, outer).tolist()
                    == [orthomodular_holds(x, y) for x, y in nested])

    def test_rows_larger_than_one_block(self):
        rng = rng_from(210)
        a = random_subspaces(rng, 8, 130)  # 64 rows of 2 * 8 * 8 entries fill a block
        b = a[1:] + a[:1]
        inner, outer = random_nested_pairs(rng, 8, 130)
        assert absorption_holds_stacked(a, b).tolist() == [absorption_holds(x, y) for x, y in zip(a, b)]
        assert de_morgan_holds_stacked(a, b).tolist() == [de_morgan_holds(x, y) for x, y in zip(a, b)]
        assert (orthomodular_holds_stacked(inner, outer).tolist()
                == [orthomodular_holds(x, y) for x, y in zip(inner, outer)])

    def test_orthomodular_needs_every_pair_nested(self):
        inner, outer = random_nested_pairs(rng_from(211), 3, 5)
        inner[3], outer[3] = ray(1, 0, 0), ray(0, 1, 0)
        with pytest.raises(PreconditionError):
            orthomodular_holds_stacked(inner, outer)

    def test_mismatched_inputs_are_refused(self):
        with pytest.raises(PreconditionError):
            absorption_holds_stacked([ray(1, 0)], [])
        with pytest.raises(DimensionMismatchError):
            de_morgan_holds_stacked([ray(1, 0)], [Subspace.ray(e(0, 3))])
        assert absorption_holds_stacked([], []).tolist() == []


# -- the whole-stack kernels and the per-pair forms, which factorize or project
# every pair, kept as oracles for the pairs that the stacked kernels and the
# per-pair functions settle by rank --


def whole_stack_join(a, b):
    u, s, _ = np.linalg.svd(np.concatenate([a.frames, b.frames], axis=2), full_matrices=False)
    return _kept(u, np.sum(s > RANK_TOL, axis=1))


def whole_stack_meet(a, b):
    d = a.frames.shape[-1]
    padding = np.eye(d) * (np.arange(d) >= a.dims[:, None])[:, None, :]
    extended = np.concatenate([_residual(a.frames, b.frames), padding], axis=1)
    _, sines, vh = np.linalg.svd(extended, full_matrices=False)
    directions = vh[:, ::-1].conj().swapaxes(1, 2)
    return _kept(a.frames @ directions, np.sum(sines <= RANK_TOL, axis=1))


def whole_stack_includes(a, b):
    residual = _residual(a.frames, b.frames)
    return np.linalg.norm(residual, axis=1).max(axis=1) <= INCLUSION_TOL


def summed_rank_frame(columns):
    """``_orthonormal_frame`` with its rank counted by ``np.sum``."""
    if columns.shape[1] == 0:
        return columns
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL))
    return np.ascontiguousarray(u[:, :rank])


def factorizing_join(a, b):
    return _subspace(summed_rank_frame(np.hstack([a.frame, b.frame])))


def factorizing_orthocomplement(a):
    if a.is_zero:
        return full_subspace(a.ambient_dim)
    u = np.linalg.svd(a.frame, full_matrices=True)[0]
    return _subspace(np.ascontiguousarray(u[:, a.dim:]))


def factorizing_meet(a, b):
    if a.is_zero:
        return a
    _, sines, vh = np.linalg.svd(_residual(a.frame, b.frame), full_matrices=False)
    return _subspace(a.frame @ vh[sines <= RANK_TOL].conj().T)


def factorizing_includes(a, b):
    if a.is_zero:
        return True
    return float(np.max(np.linalg.norm(_residual(a.frame, b.frame), axis=0))) <= INCLUSION_TOL


def factorizing_equal(a, b):
    return factorizing_includes(a, b) and factorizing_includes(b, a)


def factorizing_distributes(a, b, c):
    """(lhs dim, rhs dim, distributive) of ``distributes`` from the factorizing forms."""
    lhs = factorizing_meet(a, factorizing_join(b, c))
    rhs = factorizing_join(factorizing_meet(a, b), factorizing_meet(a, c))
    return lhs.dim, rhs.dim, factorizing_equal(lhs, rhs)


def factorizing_laws(a, b):
    """The absorption, De Morgan and orthomodular verdicts from the factorizing
    forms, the last None when a ⊄ b."""
    join, meet, comp, equal = (factorizing_join, factorizing_meet,
                               factorizing_orthocomplement, factorizing_equal)
    absorption = equal(meet(a, join(a, b)), a) and equal(join(a, meet(a, b)), a)
    de_morgan = equal(comp(meet(a, b)), join(comp(a), comp(b)))
    orthomodular = equal(join(a, meet(b, comp(a))), b) if factorizing_includes(a, b) else None
    return absorption, de_morgan, orthomodular


def per_pair_laws(a, b):
    return (absorption_holds(a, b), de_morgan_holds(a, b),
            orthomodular_holds(a, b) if includes(a, b) else None)


def same_as_factorizing(got, want):
    """Equal dimensions and mutual inclusion by the factorizing oracle."""
    return got.dim == want.dim and factorizing_equal(got, want)


SIDE_KINDS = ("zero", "full", "proper")


def planted_subspace(rng, dim, kind):
    """A random subspace of C^dim, zero, full or of a rank strictly between,
    as ``kind`` says; in C^1 every subspace is zero or full."""
    ranks = {"zero": lambda: 0, "full": lambda: dim,
             "proper": lambda: int(rng.integers(1, dim)) if dim > 1 else int(rng.integers(0, 2))}
    return random_subspace(rng, dim, ranks[kind]())


def planted_stack(rng, dim, kinds):
    return _stack([planted_subspace(rng, dim, kind) for kind in kinds])


class TestSkipByRankAgainstWholeStack:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 5),
        kinds=st.lists(st.tuples(st.sampled_from(SIDE_KINDS), st.sampled_from(SIDE_KINDS)),
                       min_size=1, max_size=12),
    )
    @example(seed=0, dim=1, kinds=[("proper", "proper")] * 4)
    @example(seed=1, dim=3, kinds=[("zero", "proper"), ("proper", "full"), ("full", "zero")])
    @example(seed=2, dim=4, kinds=[("proper", "proper")] * 5)
    @example(seed=3, dim=2, kinds=[("proper", "zero")])
    @example(seed=4, dim=3, kinds=[("proper", "proper")])
    def test_operations(self, seed, dim, kinds):
        rng = rng_from(seed)
        a, b = (planted_stack(rng, dim, side) for side in zip(*kinds))
        proper = (0 < a.dims) & (a.dims < dim) & (0 < b.dims) & (b.dims < dim)
        slow = {"join": whole_stack_join(a, b), "meet": whole_stack_meet(a, b)}
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            fast = {"join": _join_stacked(a, b), "meet": _meet_stacked(a, b)}
            included, equal = _includes_stacked(a, b), _equal_stacked(a, b)
        # one call per kernel with a pair to factorize, on those pairs alone
        assert [len(call.args[0]) for call in svd.call_args_list] == [proper.sum()] * (2 * proper.any())
        for name, got in fast.items():
            want = slow[name]
            assert got.dims.tolist() == want.dims.tolist(), name
            assert whole_stack_includes(got, want).all() and whole_stack_includes(want, got).all(), name
            # each item keeps zero columns after its dimension
            assert not np.any(got.frames * (np.arange(dim) >= got.dims[:, None])[:, None, :]), name
        assert included.tolist() == whole_stack_includes(a, b).tolist()
        assert equal.tolist() == (whole_stack_includes(a, b) & whole_stack_includes(b, a)).tolist()

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_pairs_with_a_zero_or_full_side_make_no_svd(self, dim):
        rng = rng_from(212)
        kinds = [(x, y) for x in SIDE_KINDS for y in SIDE_KINDS if "proper" not in (x, y)]
        a, b = (planted_stack(rng, dim, side) for side in zip(*kinds))
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("no SVD expected")):
            joined, met = _join_stacked(a, b), _meet_stacked(a, b)
        assert joined.dims.tolist() == [max(x, y) for x, y in zip(a.dims.tolist(), b.dims.tolist())]
        assert met.dims.tolist() == [min(x, y) for x, y in zip(a.dims.tolist(), b.dims.tolist())]


class TestRankRulesAgainstFactorizing:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        kinds=st.tuples(*[st.sampled_from(SIDE_KINDS)] * 3),
    )
    @example(seed=0, dim=1, kinds=("proper", "proper", "proper"))
    @example(seed=1, dim=2, kinds=("proper", "zero", "full"))
    @example(seed=2, dim=8, kinds=("full", "proper", "proper"))
    @example(seed=3, dim=5, kinds=("proper", "proper", "proper"))
    def test_operations_laws_and_distribution(self, seed, dim, kinds):
        rng = rng_from(seed)
        a, b, c = (planted_subspace(rng, dim, kind) for kind in kinds)
        for x in (a, b, c):
            assert same_as_factorizing(orthocomplement(x), factorizing_orthocomplement(x))
        # (a, a) is a nested pair, proper whenever a is
        for x, y in ((a, b), (b, a), (a, c), (c, b), (a, a)):
            assert same_as_factorizing(join(x, y), factorizing_join(x, y))
            assert same_as_factorizing(meet(x, y), factorizing_meet(x, y))
            assert includes(x, y) == factorizing_includes(x, y)
            assert subspace_equal(x, y) == factorizing_equal(x, y)
            assert per_pair_laws(x, y) == factorizing_laws(x, y)
        verdict = distributes(a, b, c)
        assert (verdict.lhs.dim, verdict.rhs.dim, verdict.distributive) == factorizing_distributes(a, b, c)

    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_full_frame_at_the_gram_tolerance(self, dim, sign):
        # a Haar unitary with one column stretched or shrunk to a Gram error of
        # 0.99 FRAME_TOL: it leaves sines up to that size, just below RANK_TOL
        rng = rng_from(213)
        frame = random_unitary(rng, dim)
        frame[:, 0] *= math.sqrt(1.0 + sign * 0.99 * FRAME_TOL)
        full = Subspace(frame)
        assert 0.98 * FRAME_TOL < np.max(np.abs(frame.conj().T @ frame - np.eye(dim))) <= FRAME_TOL
        for rank in range(dim + 1):
            a = random_subspace(rng, dim, rank)
            for x, y in ((a, full), (full, a)):
                assert same_as_factorizing(join(x, y), factorizing_join(x, y))
                assert same_as_factorizing(meet(x, y), factorizing_meet(x, y))
                assert includes(x, y) == factorizing_includes(x, y)

    def test_mismatched_ambient_dimensions_are_refused_before_the_rules(self):
        plane = Subspace.from_vectors(3, [e(0, 3), e(1, 3)])
        for a, b in ((zero_subspace(2), full_subspace(3)), (full_subspace(2), plane), (ray(1, 0), plane)):
            for operation in (join, meet, includes, subspace_equal):
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(DimensionMismatchError):
                        operation(x, y)

    def test_the_bounds_the_rules_rest_on(self):
        # a full frame's sines are its Gram error, and a frame of k > dim b
        # vectors leaves a residual of at least 1/√k against b
        assert FRAME_TOL <= RANK_TOL
        assert 1.0 / math.sqrt(MAX_DIM) > INCLUSION_TOL

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_settled_pairs_make_no_factorization(self, dim):
        rng = rng_from(214)
        sides = {kind: planted_subspace(rng, dim, kind) for kind in SIDE_KINDS}
        pairs = [(x, y) for x in SIDE_KINDS for y in SIDE_KINDS if (x, y) != ("proper", "proper")]
        # proper sides of unequal dimensions settle inclusion and equality
        wider, narrower = (random_subspace(rng, dim, k) for k in (dim - 1, 1))
        refuse = AssertionError("no factorization expected")
        with mock.patch.object(np.linalg, "svd", side_effect=refuse), \
                mock.patch.object(lattice, "_residual", side_effect=refuse):
            for x, y in pairs:
                a, b = sides[x], sides[y]
                assert join(a, b).dim == max(a.dim, b.dim)
                assert meet(a, b).dim == min(a.dim, b.dim)
                assert includes(a, b) is (a.dim <= b.dim)
                assert subspace_equal(a, b) is (a.dim == b.dim)
            for kind in ("zero", "full"):
                assert orthocomplement(sides[kind]).dim == dim - sides[kind].dim
            if dim > 2:
                assert not includes(wider, narrower)
                assert not subspace_equal(wider, narrower) and not subspace_equal(narrower, wider)


class TestStackedSampling:
    @given(seed=st.integers(0, 2**64 - 1),
           shape=st.one_of(st.integers(0, 8), st.tuples(st.integers(0, 8), st.integers(0, 8))))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_gaussian_complex_matches_the_sum_of_two_draws(self, seed, shape):
        # the oracle is the two-temporary expression; the draws are never zero,
        # so adding 1j * b to a changes no bit
        one, other = rng_from(seed), rng_from(seed)
        expected = one.normal(size=shape) + 1j * one.normal(size=shape)
        got = _gaussian_complex(other, shape)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert one.bit_generator.state == other.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_ranks_frames_and_nesting(self, dim):
        def draw():
            rng = rng_from(dim)
            sample = random_subspaces(rng, dim, 200)
            return sample, *random_nested_pairs(rng, dim, 200)

        sample, inner, outer = draw()
        assert {s.dim for s in sample} == set(range(dim + 1))
        assert {s.dim for s in outer} == set(range(1, dim + 1))
        assert all(includes(x, y) for x, y in zip(inner, outer))
        drawn = sample + inner + outer
        for s in drawn:
            gram = s.frame.conj().T @ s.frame
            assert s.frame.shape == (dim, s.dim)
            assert np.max(np.abs(gram - np.eye(s.dim)), initial=0.0) <= FRAME_TOL
            assert not s.frame.flags.writeable
        again = [s for side in draw() for s in side]
        assert all(np.array_equal(x.frame, y.frame) for x, y in zip(drawn, again))


class TestThresholds:
    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("factor, meet_dim", [(0.99, 1), (1.01, 0)])
    def test_meet_of_a_tilted_ray(self, dim, factor, meet_dim):
        axis = Subspace.ray(e(0, dim))
        tilted = tilted_ray(dim, factor * RANK_TOL)
        assert meet(axis, tilted).dim == meet_dim
        assert meet(tilted, axis).dim == meet_dim

    @pytest.mark.parametrize("factor, included", [(0.99, True), (1.01, False)])
    def test_inclusion_of_a_tilted_ray(self, factor, included):
        # the residual is spread over two coordinates, so only its norm decides
        sine = factor * INCLUSION_TOL
        axis = Subspace.ray(e(0, 3))
        tilted = Subspace.ray([math.sqrt(1.0 - sine * sine), sine * INV_SQRT2, sine * INV_SQRT2])
        assert includes(tilted, axis) is included is factorizing_includes(tilted, axis)
        assert includes(axis, tilted) is included is factorizing_includes(axis, tilted)
        matrix = inclusion_matrix([tilted, axis], [tilted, axis])
        assert matrix.tolist() == [[True, included], [included, True]]


class TestFromVectors:
    @pytest.mark.parametrize("vectors, dim", [
        ([[1e-11, 0]], 1),
        ([[1e-200, 0]], 1),
        ([[1, 0], [0, 1e-11]], 2),
        ([[0, 0], [1e-300, 1e-300]], 1),
        ([[0, 0]], 0),
    ])
    def test_rank_does_not_depend_on_length(self, vectors, dim):
        assert Subspace.from_vectors(2, vectors).dim == dim

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(0.0, float("nan"))])
    def test_non_finite_entry_refused(self, bad):
        with pytest.raises(InvariantViolationError, match="non-finite"):
            Subspace.ray([bad, 0])
        with pytest.raises(InvariantViolationError, match="non-finite"):
            Subspace.from_vectors(2, [[1, 0], [0, bad]])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), count=st.integers(1, 4))
    def test_power_of_two_scaling_leaves_span_unchanged(self, data, dim, count):
        parts = st.lists(st.integers(-4, 4), min_size=2 * dim, max_size=2 * dim)
        vectors = [np.array(p[:dim]) + 1j * np.array(p[dim:])
                   for p in data.draw(st.lists(parts, min_size=count, max_size=count))]
        powers = data.draw(st.lists(st.integers(-900, 900), min_size=count, max_size=count))
        plain = Subspace.from_vectors(dim, vectors)
        scaled = Subspace.from_vectors(dim, [np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)
                                             for v, k in zip(vectors, powers)])
        assert scaled.dim == plain.dim
        assert np.array_equal(scaled.frame, plain.frame)


def column_stack_from_vectors(ambient_dim, vectors):
    """``Subspace.from_vectors`` reading every input vector by vector and
    stacking the columns with ``np.column_stack``."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    for v in vecs:
        if v.size != ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {v.size} in ambient dimension {ambient_dim}"
            )
    lattice._check_ambient(ambient_dim)
    if not vecs:
        return _subspace(np.zeros((ambient_dim, 0), dtype=complex))
    columns = np.column_stack(vecs)
    if not np.isfinite(columns).all():
        raise InvariantViolationError("vector has a non-finite entry")
    return _subspace(summed_rank_frame(unit_vectors(columns, axis=0)[0]))


def built_or_refused(build, ambient_dim, vectors):
    """The frame's shape, layout and bytes, or the refusal's class and text."""
    try:
        frame = build(ambient_dim, vectors).frame
    except Exception as exc:  # the refusal is the outcome compared
        return type(exc), str(exc)
    return frame.shape, frame.flags.c_contiguous, frame.tobytes()


def same_as_column_stack(ambient_dim, make_vectors):
    return (built_or_refused(Subspace.from_vectors, ambient_dim, make_vectors())
            == built_or_refused(column_stack_from_vectors, ambient_dim, make_vectors()))


@st.composite
def spanning_sets(draw):
    """(dim, rows): up to MAX_DIM + 2 Gaussian rows in C^dim, some of them
    combinations of earlier rows, zero, or scaled by a power of two."""
    dim, count = draw(st.integers(1, MAX_DIM)), draw(st.integers(1, MAX_DIM + 2))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    rows = _gaussian_complex(rng, (count, dim))
    for i in range(1, count):
        kind = draw(st.sampled_from(["free", "combination", "zero", "scaled"]))
        if kind == "combination":
            rows[i] = _gaussian_complex(rng, i) @ rows[:i]
        elif kind == "zero":
            rows[i] = 0.0
        elif kind == "scaled":
            power = draw(st.integers(-1000, 1000))
            rows[i] = np.ldexp(rows[i].real, power) + 1j * np.ldexp(rows[i].imag, power)
    return dim, rows


class TestFromVectorsAgainstColumnStack:
    """``from_vectors`` converts a (k, d) array at once and reads other input
    vector by vector; both give the frame of the column-stacked form, bit for
    bit, and refuse what it refuses with the same error."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(spanning=spanning_sets(),
           layout=st.sampled_from(["array", "fortran", "real", "list of arrays", "lists"]))
    def test_frames_are_bit_identical(self, spanning, layout):
        dim, rows = spanning
        forms = {"array": lambda: rows, "fortran": lambda: np.asfortranarray(rows),
                 "real": lambda: rows.real, "list of arrays": lambda: list(rows),
                 "lists": lambda: rows.tolist()}
        assert same_as_column_stack(dim, forms[layout])

    @pytest.mark.parametrize("dim, make_vectors", [
        (2, lambda: [[1, 0], [1]]),
        (2, lambda: [[1, 0], [0, 1, 0]]),
        (2, lambda: np.ones((2, 3))),
        (2, lambda: (v for v in [[1, 0], [1, 1j]])),
        (2, lambda: iter([])),
        (3, lambda: []),
        (3, lambda: np.empty((0, 3))),
        (2, lambda: [[1, 0], [0, float("nan")]]),
        (2, lambda: np.array([[1, float("inf")]])),
        (2, lambda: [[1, 0], [0, 1], [1, 1j]]),
        (3, lambda: np.array([[[1], [0], [0]], [[0], [1], [1]]])),
        (1, lambda: [1, 2]),
        (9, lambda: [np.ones(9)]),
        (0, lambda: []),
        (2, lambda: [["1", "0"], ["x", "1"]]),
    ], ids=["ragged", "wrong-length", "wrong-length-array", "generator", "empty-iterator",
            "empty-list", "empty-array", "nan", "inf", "k>d", "column-arrays", "scalars",
            "ambient-9", "ambient-0", "not-numbers"])
    def test_other_input_is_read_vector_by_vector(self, dim, make_vectors):
        assert same_as_column_stack(dim, make_vectors)

    def test_an_array_makes_one_svd_and_no_column_stack(self):
        rows = _gaussian_complex(rng_from(215), (3, 5))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(np, "column_stack", side_effect=AssertionError("no column_stack")):
            assert Subspace.from_vectors(5, rows).dim == 3
        assert svd.call_count == 1

    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("factor, rank", [(0.99, 1), (1.01, 2)])
    def test_singular_value_at_rank_tol(self, dim, factor, rank):
        # e0 and e0 + ε e1, at unit length, have smallest singular value ε/√2
        vectors = np.array([e(0, dim), e(0, dim) + math.sqrt(2.0) * factor * RANK_TOL * e(1, dim)])
        smallest = np.linalg.svd(unit_vectors(vectors.T.astype(complex), axis=0)[0],
                                 compute_uv=False)[-1]
        assert abs(smallest / (factor * RANK_TOL) - 1.0) < 1e-3
        assert Subspace.from_vectors(dim, vectors).dim == rank
        assert same_as_column_stack(dim, lambda: vectors)
        a, b = (Subspace.ray(v) for v in vectors)
        assert join(a, b).dim == rank
        assert join(a, b).frame.tobytes() == factorizing_join(a, b).frame.tobytes()


class TestJoinAndIncludesAgainstReplacedForms:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, MAX_DIM))
    def test_join_frames_and_inclusion_verdicts(self, seed, dim):
        # pairs that share a random part, and nested pairs, whose residuals are rounding
        rng = rng_from(seed)
        a, b, _ = shared_part_pair(rng, dim)
        inner, outer = random_nested_pair(rng, dim)
        for x, y in ((a, b), (b, a), (inner, outer), (outer, inner), (a, a)):
            if 0 < x.dim < dim and 0 < y.dim < dim:
                assert join(x, y).frame.tobytes() == factorizing_join(x, y).frame.tobytes()
                if x.dim <= y.dim:
                    assert includes(x, y) is factorizing_includes(x, y)

    @pytest.mark.parametrize("dim", [4, 6, 8])
    @pytest.mark.parametrize("factor, included", [(0.99, True), (1.01, False)])
    def test_residual_at_inclusion_tol(self, dim, factor, included):
        # a plane holding e1 and e0 tilted by the planted sine off span(e0, e1),
        # its residual spread over two coordinates
        sine = factor * INCLUSION_TOL
        tilted = math.sqrt(1.0 - sine * sine) * e(0, dim) + sine * INV_SQRT2 * (e(2, dim) + e(3, dim))
        plane = Subspace(np.column_stack([tilted, e(1, dim)]))
        axes = Subspace(np.eye(dim)[:, :2])
        for x, y in ((plane, axes), (axes, plane)):
            assert includes(x, y) is included is factorizing_includes(x, y)


class TestTrustedFrames:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(float("nan"), 0.0)])
    def test_non_finite_frame_rejected(self, bad):
        with pytest.raises(InvariantViolationError):
            Subspace([[bad], [0.0]])

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gram_error_at_frame_tol(self, factor, accepted, sign):
        frame = [[math.sqrt(1.0 + sign * factor * FRAME_TOL)], [0.0]]
        if accepted:
            Subspace(frame)
        else:
            with pytest.raises(InvariantViolationError):
                Subspace(frame)

    def test_user_frame_is_still_checked(self):
        with pytest.raises(InvariantViolationError):
            Subspace(np.array([[1.0], [1.0]]))
        with pytest.raises(InvariantViolationError):
            Subspace(np.array([[1.0, 0.6], [0.0, 0.8]]))

    def test_built_frames_are_read_only_and_orthonormal(self):
        rng = rng_from(208)
        a, b = random_subspace(rng, 4, 2), random_subspace(rng, 4, 3)
        built = [
            join(a, b), meet(a, b), orthocomplement(a), Subspace.from_vectors(4, []),
            orthocomplement(zero_subspace(4)), orthocomplement(full_subspace(4)),
            Subspace.from_vectors(4, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1j, 0, 1]]),
        ]
        for s in built:
            assert not s.frame.flags.writeable
            assert s.frame.dtype == complex
            assert np.allclose(s.frame.conj().T @ s.frame, np.eye(s.dim), atol=1e-12)
            assert Subspace(s.frame) == s

    @pytest.mark.parametrize("ambient", [0, 9])
    def test_ambient_dimension_is_checked_on_every_path(self, ambient):
        for build in (lambda d: Subspace.from_vectors(d, []), lambda d: Subspace(np.eye(d)),
                      lambda d: Subspace.from_vectors(d, [np.ones(d)])):
            with pytest.raises(InvariantViolationError):
                build(ambient)
