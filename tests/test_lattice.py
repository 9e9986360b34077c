import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbench.errors import DimensionMismatchError, InvariantViolationError, PreconditionError
from qlbench.lattice import (
    FRAME_TOL,
    INCLUSION_TOL,
    RANK_TOL,
    AxiomCheck,
    LatticeAxiomReport,
    Subspace,
    _inclusion_matrix,
    _includes_stacked,
    _join_stacked,
    _meet_stacked,
    _orthocomplement_stacked,
    _padded_frames,
    _stack,
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
from qlbench.sampling import (
    DEFAULT_SEED,
    random_nested_pair,
    random_nested_pairs,
    random_subspace,
    random_subspaces,
    random_unitary,
    rng_from,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ray(*coords):
    return Subspace.ray(list(coords))


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
        assert join(ray(1, 0), ray(0, 1)).is_full

    def test_oblique_rays_span_everything(self):
        # rank of the concatenated frame, checked independently
        stacked = np.column_stack([[1.0, 0.0], [INV_SQRT2, INV_SQRT2]])
        assert np.linalg.matrix_rank(stacked) == 2
        assert join(ray(1, 0), ray(INV_SQRT2, INV_SQRT2)).is_full

    def test_zero_is_identity_element(self):
        a = ray(0.6, 0.8)
        assert subspace_equal(join(a, Subspace.zero(2)), a)


class TestOrthocomplement:
    def test_standard_ray(self):
        assert subspace_equal(orthocomplement(ray(1, 0)), ray(0, 1))

    def test_zero_subspace(self):
        assert orthocomplement(Subspace.zero(2)).is_full

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
        assert includes(Subspace.zero(3), random_subspace(rng_from(1), 3))

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
        sample = [Subspace.zero(2), ray(1, 0), Subspace.full(2)]
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
        check = check_lattice_axioms([a, b]).by_name(name)
        if passed:
            assert check == AxiomCheck(name, 4, True, None)
        else:
            # row-major pairs: (0, 0) holds, (0, 1) is the second
            assert check == AxiomCheck(name, 2, False, "sample[0], sample[1]")


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
        assert orthomodular_holds(ray(1, 0), Subspace.full(2))

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
    """The per-pair ``includes`` loop, stopping at the first failure of each axiom."""
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
        checks.append(AxiomCheck(name, count, failure is None, failure))
    return LatticeAxiomReport(tuple(checks))


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
        kwargs = dict(pair_limit=limit, triple_limit=limit, seed=seed)
        assert check_lattice_axioms(sample, **kwargs) == oracle_check_lattice_axioms(sample, **kwargs)

    def test_transitivity_counterexample_is_the_first_failing_triple(self):
        sample = [tilted_ray(2, t * INCLUSION_TOL) for t in (0.0, 0.6, 1.2)]
        check = check_lattice_axioms(sample).by_name("transitivity: a ⊆ b ⊆ c implies a ⊆ c")
        # row-major order: (0,0,0) .. (0,1,1) hold, (0,1,2) is the sixth triple
        assert check == AxiomCheck(
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
        return Subspace.zero(dim), random_subspace(rng, dim)
    if kind == "full":
        return random_subspace(rng, dim), Subspace.full(dim)
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


class TestStackedSampling:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_same_draws_and_frames_as_one_at_a_time(self, dim):
        one, many = rng_from(dim), rng_from(dim)
        for expected, got in (
            ([random_subspace(one, dim) for _ in range(60)], random_subspaces(many, dim, 60)),
            (list(zip(*(random_nested_pair(one, dim) for _ in range(60)))),
             random_nested_pairs(many, dim, 60)),
        ):
            for x, y in zip(np.ravel(expected), np.ravel(got)):
                assert x.frame.shape == y.frame.shape
                assert np.array_equal(x.frame, y.frame)
                assert not y.frame.flags.writeable
            assert one.bit_generator.state == many.bit_generator.state


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
        assert includes(tilted, axis) is included
        assert includes(axis, tilted) is included
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

    def test_constructor_takes_only_a_frame(self):
        assert list(inspect.signature(Subspace).parameters) == ["frame"]

    def test_built_frames_are_read_only_and_orthonormal(self):
        rng = rng_from(208)
        a, b = random_subspace(rng, 4, 2), random_subspace(rng, 4, 3)
        built = [
            join(a, b), meet(a, b), orthocomplement(a), Subspace.zero(4), Subspace.full(4),
            Subspace.from_vectors(4, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1j, 0, 1]]),
        ]
        for s in built:
            assert not s.frame.flags.writeable
            assert s.frame.dtype == complex
            assert np.allclose(s.frame.conj().T @ s.frame, np.eye(s.dim), atol=1e-12)
            assert Subspace(s.frame) == s

    @pytest.mark.parametrize("ambient", [0, 9])
    def test_ambient_dimension_is_checked_on_every_path(self, ambient):
        for build in (Subspace.zero, Subspace.full,
                      lambda d: Subspace.from_vectors(d, [np.ones(d)])):
            with pytest.raises(InvariantViolationError):
                build(ambient)
