"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import math
import time

import numpy as np

from conftest import (
    marginal_over_second,
    random_basis_pair,
    random_commuting_pair,
    random_direction_pair,
    random_nested_pair,
    random_state,
    random_subspace,
    truth_table_distributivity,
)
from qlbench.coloring import RayFamily, builtin_family, search_bivalent_assignment
from qlbench.config import DEFAULT_SEED
from qlbench.events import (
    OutcomeSpace,
    Universe,
    distributes_classical,
    eq10_trace,
    universe_mismatch_demo,
)
from qlbench.hidden import (
    CHAIN_BROKEN,
    audit_no_go,
    build_qm_equivalent_model,
    exact_sequential,
    simulate_sequential,
)
from qlbench.hilbert import spin_direction_basis
from qlbench.lattice import (
    Subspace,
    absorption_holds,
    check_lattice_axioms,
    de_morgan_holds,
    distributes,
    orthocomplement,
    orthomodular_holds,
    subspace_equal,
)
from qlbench.sampling import rng_from
from qlbench.stats import (
    born_distribution,
    commutation_defect,
    joint_exists,
    nondistribution_defect,
    sequential_distribution,
    within_binomial_bound,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}  {number:2d}. {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_acceptance_01_subspace_nondistributivity_witness(z_plus):
    a = Subspace.ray(z_plus.amplitudes)
    b = Subspace.ray([INV_SQRT2, INV_SQRT2])
    c = orthocomplement(b)
    distributes(a, b, c)  # warm-up: first LAPACK call is not the op's cost
    elapsed = min(
        _timed(lambda: distributes(a, b, c)) for _ in range(5)
    )
    verdict = distributes(a, b, c)
    ok = (
        not verdict.distributive
        and verdict.lhs.dim == 1
        and verdict.rhs.dim == 0
        and subspace_equal(verdict.lhs, a)
        and elapsed < 1e-3
    )
    report(1, "subspace witness: lhs = a (dim 1), rhs = 0 (dim 0), nondistributive, < 1 ms", ok)


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_acceptance_02_classical_distribution_and_chain():
    start = time.perf_counter()
    ok = True

    for n_labels in range(1, 6):
        labels = [f"t{i}" for i in range(n_labels)]
        space = OutcomeSpace((Universe("omega", tuple(labels)),))
        subsets = [
            space.event([labels[i] for i in range(n_labels) if mask >> i & 1])
            for mask in range(2 ** n_labels)
        ]
        for a, b, c in itertools.product(subsets, repeat=3):
            if not distributes_classical(a, b, c).distributive:
                ok = False

    labels8 = [f"t{i}" for i in range(8)]
    space8 = OutcomeSpace((Universe("omega", tuple(labels8)),))
    rng = rng_from(DEFAULT_SEED)
    for _ in range(10_000):
        picks = rng.integers(0, 2, size=(3, 8))
        a, b, c = (
            space8.event([labels8[i] for i in range(8) if row[i]]) for row in picks
        )
        if not distributes_classical(a, b, c).distributive:
            ok = False

    for a_label, b_label in itertools.product(labels8, repeat=2):
        if not eq10_trace(a_label, b_label, space8).all_equal_to_atom:
            ok = False

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, f"classical law exhaustive+random, chain trace ends at the atom ({elapsed:.2f} s < 1 s)", ok)


def test_acceptance_03_complement_universe_mismatch():
    space = OutcomeSpace(
        (Universe("omega_a", ("a1", "a2")), Universe("omega_b", ("b1", "b2")))
    )
    demo = universe_mismatch_demo("a1", "b1", space)
    ok = (
        demo.lhs_mixed == {"a1"}
        and demo.rhs_omega == set()
        and demo.flag_raised
        and demo.consistent_space.equal
        and demo.consistent_universe.equal
        and len(demo.coercions) == 1
    )
    report(3, "mismatch demo: lhs {a}, rhs empty, flag raised, consistent sides equal, coercion logged", ok)


def test_acceptance_04_commutation_defect(z_plus, z_basis, x_basis):
    defect = commutation_defect(z_plus, z_basis, x_basis)
    ok = abs(defect - 0.25) <= 1e-12

    rng = rng_from(DEFAULT_SEED + 4)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        state = random_state(rng, dim)
        first, second = random_commuting_pair(rng, dim)
        if commutation_defect(state, first, second) > 1e-12:
            ok = False
    report(4, "commutation defect 0.25 for the witness pair; 0 for 100 commuting pairs", ok)


def test_acceptance_05_marginal_identity_vs_nondistribution(z_plus, z_basis, x_basis):
    rng = rng_from(DEFAULT_SEED)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        state = random_state(rng, dim)
        first, second = random_basis_pair(rng, dim)
        table = sequential_distribution(state, first, second)
        gap = float(
            np.max(np.abs(marginal_over_second(table).probs - born_distribution(state, first).probs))
        )
        if gap > 1e-9:
            ok = False
        if commutation_defect(state, first, second) > 1e-3:
            largest = max(
                max(nondistribution_defect(state, first, i, second) for i in range(first.size)),
                max(nondistribution_defect(state, second, j, first) for j in range(second.size)),
            )
            if largest <= 1e-3:
                ok = False

    defect = nondistribution_defect(z_plus, z_basis, 0, x_basis)
    ok = ok and abs(defect - 0.5) <= 1e-12
    report(5, "marginal identity holds on 1000 draws; nondistribution defect 0.5 for the witness", ok)


def test_acceptance_06_joint_existence(z_plus, z_basis, x_basis):
    forward = sequential_distribution(z_plus, z_basis, x_basis)
    reverse = sequential_distribution(z_plus, x_basis, z_basis)
    verdict = joint_exists(forward, reverse)
    ok = (not verdict.exists) and abs(verdict.witness.asymmetry - 0.25) <= 1e-12

    rng = rng_from(DEFAULT_SEED + 4)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        state = random_state(rng, dim)
        first, second = random_commuting_pair(rng, dim)
        t_ab = sequential_distribution(state, first, second)
        t_ba = sequential_distribution(state, second, first)
        if not joint_exists(t_ab, t_ba).exists:
            ok = False
    report(6, "no joint for the witness pair (asymmetry 0.25); joint exists for commuting pairs", ok)


def test_acceptance_07_value_definite_ensembles_reproduce_statistics():
    start = time.perf_counter()
    rng = rng_from(DEFAULT_SEED + 7)
    ok = truth_table_distributivity().all_equal
    for _ in range(100):
        state = random_state(rng, 2)
        d1, d2 = random_direction_pair(rng)
        first = spin_direction_basis(*d1)
        second = spin_direction_basis(*d2)

        model = build_qm_equivalent_model(state, first, second)
        hv_ab = exact_sequential(model, ("A", "B"))
        hv_ba = exact_sequential(model, ("B", "A"))
        qm_ab = sequential_distribution(state, first, second)
        qm_ba = sequential_distribution(state, second, first)
        if float(np.max(np.abs(hv_ab.entries - qm_ab.entries))) > 1e-9:
            ok = False
        if float(np.max(np.abs(hv_ba.entries - qm_ba.entries))) > 1e-9:
            ok = False

        audit = audit_no_go(state, first, second)
        if not (audit.members_value_definite and audit.members_distributive):
            ok = False
        if audit.qm_commutation_defect > 1e-6 and audit.chain_verdict != CHAIN_BROKEN:
            ok = False

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(7, f"100 direction pairs: ensembles match chain statistics, chain breaks when noncommuting ({elapsed:.2f} s < 5 s)", ok)


def test_acceptance_08_monte_carlo_convergence(z_plus, z_basis, x_basis):
    start = time.perf_counter()
    model = build_qm_equivalent_model(z_plus, z_basis, x_basis)
    n = 100_000
    hits = 0
    for run in range(100):
        good = True
        for offset, order in enumerate([("A", "B"), ("B", "A")]):
            exact = exact_sequential(model, order)
            empirical = simulate_sequential(model, order, n, seed=DEFAULT_SEED + 2 * run + offset)
            if not within_binomial_bound(exact, empirical, n):
                good = False
        hits += good
    elapsed = time.perf_counter() - start
    ok = hits >= 99 and elapsed < 30.0
    report(8, f"Monte-Carlo within 4σ per entry in {hits}/100 seeded runs ({elapsed:.2f} s < 30 s)", ok)


def test_acceptance_09_bivalent_assignment_search():
    start = time.perf_counter()
    triad = RayFamily.from_vectors(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(0, 1, 2)])
    single = search_bivalent_assignment(triad)
    disjoint = search_bivalent_assignment(builtin_family("triads-d3"))
    uncolorable = search_bivalent_assignment(builtin_family("ks18-d4"))
    elapsed = time.perf_counter() - start
    ok = (
        single.found
        and disjoint.found
        and uncolorable.proved_none
        and uncolorable.nodes <= 2 ** 18
        and elapsed < 10.0
    )
    report(9, f"assignments found for triads; proved-none for the 18-ray family ({elapsed:.2f} s < 10 s)", ok)


def test_acceptance_10_lattice_laws():
    start = time.perf_counter()
    ok = True
    per_dim = 334  # about 1000 subspaces / pairs over dims 2-4
    for dim in (2, 3, 4):
        rng = rng_from(DEFAULT_SEED + dim)
        sample = [random_subspace(rng, dim) for _ in range(per_dim)]
        if not check_lattice_axioms(sample, seed=DEFAULT_SEED).all_passed:
            ok = False
        for left, right in zip(sample, sample[1:] + sample[:1]):
            if not absorption_holds(left, right):
                ok = False
            if not de_morgan_holds(left, right):
                ok = False
        for _ in range(per_dim):
            inner, outer = random_nested_pair(rng, dim)
            if not orthomodular_holds(inner, outer):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(10, f"axioms, absorption, De Morgan, orthomodular on ~1000 samples per law ({elapsed:.2f} s < 10 s)", ok)
