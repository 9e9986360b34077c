"""logic-sweep: the distribution law in three logics, no sequential statistics.

The control for quantum-sweep and the workload for changes to ``events``,
``lattice`` and ``coloring``.  The pool has a fixed composition (per 50
cases: 20 events, 20 lattice, 10 coloring) and a fixed shape (universe
sizes, dimensions and ranks), so every seed gives the same mix at the same
cost and only the labels, subspaces and rays differ:

- events: exhaustive (b, c) subset pairs against one a over 2..4 labels (the
  load shape of acceptance criterion 2), random triples over 6..12 labels,
  the Eq (10) complement chain, and the universe-mismatch demo with one
  accepted and one refused relative complement on a two-universe space;
- lattice: single random triples through ``distributes`` in d = 2..8, the
  witness triple (a, b, b'), the absorption, De Morgan and orthomodular laws,
  and small-sample ``check_lattice_axioms`` batches, so a batching change that
  slows single calls shows;
- coloring: ``ks18-d4`` and a rotated Peres 33-ray family (with
  ``exclusive_pairs``) must be proved-none, ``triads-d3`` and chains of
  100..200 triads (201..401 rays) must be found.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from qlbench import coloring, events, lattice
from quantum_sweep import gaussian

BLOCK = (
    ("ev_exhaustive", 4), ("ev_random", 8), ("ev_eq10", 4), ("ev_mismatch", 4),
    ("lat_triple", 10), ("lat_witness", 4), ("lat_laws", 5), ("lat_axioms", 1),
    ("col_ks18", 3), ("col_peres", 3), ("col_triads", 2), ("col_chain", 2),
)
BLOCKS = 10
EXHAUSTIVE_LABELS = (2, 3, 4)
RANDOM_LABELS = (6, 7, 8, 9, 10, 11, 12)
RANDOM_TRIPLES = 8
EQ10_LABELS = (3, 4, 5, 6, 7, 8)
LATTICE_DIMS = (2, 3, 4, 5, 6, 7, 8)
AXIOM_DIMS = (2, 3, 4)
AXIOM_SAMPLE = 8
CHAIN_TRIADS = (100, 150, 200)
SHAPE_SEED = 0          # sizes and ranks, so every seed gives the pool the same cost


class Inputs(NamedTuple):
    """One case's generated data; each kind uses the fields it needs."""

    dim: int = 0
    labels: tuple = ()
    masks: tuple = ()            # event kinds: bitmasks over ``labels``, for the oracle
    sets: tuple = ()             # event kinds: the same events as label sets
    frames: tuple = ()           # lattice kinds: (k, dim) arrays of raw spanning vectors
    rays: np.ndarray | None = None
    bases: tuple = ()
    seed: int = 0


def _raw_subspace(rng, dim: int, k: int) -> np.ndarray:
    return gaussian(rng, (k, dim))


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def peres_rays() -> tuple[np.ndarray, tuple]:
    """Peres' 33 rays in dimension 3 (components from 0, ±1, √2) and their
    16 orthogonal triads."""
    s2 = math.sqrt(2.0)
    rays: list[np.ndarray] = []
    for seed in ((0, 0, 1), (0, 1, 1), (0, -1, 1), (0, 1, s2), (0, -1, s2),
                 (1, 1, s2), (1, -1, s2), (-1, 1, s2), (-1, -1, s2)):
        for perm in sorted(set(itertools.permutations(seed))):
            v = np.array(perm, dtype=float) / np.linalg.norm(perm)
            if not any(abs(abs(v @ r) - 1.0) < 1e-9 for r in rays):
                rays.append(v)
    triads = tuple(
        t for t in itertools.combinations(range(len(rays)), 3)
        if all(abs(rays[i] @ rays[j]) < 1e-9 for i, j in itertools.combinations(t, 2))
    )
    return np.array(rays), triads


def triad_chain(rng, triads: int) -> tuple[np.ndarray, tuple]:
    """Triads in dimension 3 where each shares one ray with the next: a tree
    of bases, so a bivalent assignment always exists."""
    rays = np.linalg.qr(gaussian(rng, (3, 3)))[0].T.tolist()
    bases = [(0, 1, 2)]
    for w in gaussian(rng, (triads - 1, 3)).tolist():
        shared = bases[-1][2]
        p = _unit(_conj_cross(rays[shared], w))
        rays += [p, _unit(_conj_cross(rays[shared], p))]
        bases.append((shared, len(rays) - 2, len(rays) - 1))
    return np.array(rays), tuple(bases)


def _conj_cross(u, w) -> list:
    """conj(u × w): orthogonal to both u and w in C^3."""
    return [(u[1] * w[2] - u[2] * w[1]).conjugate(), (u[2] * w[0] - u[0] * w[2]).conjugate(),
            (u[0] * w[1] - u[1] * w[0]).conjugate()]


def _unit(v: list) -> list:
    norm = sum(abs(x) ** 2 for x in v) ** 0.5
    return [x / norm for x in v]


def _case(kind: str, i: int, rng, shape, peres) -> Inputs:
    """Case ``i`` of ``kind``: ``shape`` draws the sizes and ranks that set its
    cost, the same for every seed, and ``rng`` draws the rest."""
    if kind == "ev_exhaustive":
        n = EXHAUSTIVE_LABELS[i % len(EXHAUSTIVE_LABELS)]
        labels = _labels("t", n)
        return Inputs(labels=labels, masks=(int(rng.integers(2 ** n)),),
                      sets=tuple(_members(labels, m) for m in range(2 ** n)))
    if kind == "ev_random":
        n = RANDOM_LABELS[i % len(RANDOM_LABELS)]
        labels = _labels("t", n)
        masks = tuple(map(tuple, rng.integers(0, 2 ** n, size=(RANDOM_TRIPLES, 3)).tolist()))
        sets = tuple(tuple(_members(labels, m) for m in triple) for triple in masks)
        return Inputs(labels=labels, masks=masks, sets=sets)
    if kind == "ev_eq10":
        n = EQ10_LABELS[i % len(EQ10_LABELS)]
        return Inputs(labels=_labels("t", n), masks=tuple(int(x) for x in rng.integers(0, n, 2)))
    if kind == "ev_mismatch":
        n_a, n_b = (int(x) for x in shape.integers(2, 5, size=2))
        a, b = int(rng.integers(n_a)), int(rng.integers(n_b))
        labels_a, labels_b = _labels("a", n_a), _labels("b", n_b)
        inside = int(rng.integers(1, 2 ** n_a))        # a nonempty event of omega_a
        straddle = frozenset([labels_a[int(rng.integers(n_a))], labels_b[int(rng.integers(n_b))]])
        return Inputs(labels=(labels_a, labels_b), masks=(a, b, inside),
                      sets=(_members(labels_a, inside), straddle))
    if kind == "lat_triple":
        d = LATTICE_DIMS[i % len(LATTICE_DIMS)]
        ranks = shape.integers(0, d + 1, size=3).tolist()
        return Inputs(dim=d, frames=tuple(_raw_subspace(rng, d, k) for k in ranks))
    if kind == "lat_witness":
        d = LATTICE_DIMS[i % len(LATTICE_DIMS)]
        k = int(shape.integers(1, d))
        return Inputs(dim=d, frames=(_raw_subspace(rng, d, 1), _raw_subspace(rng, d, k)))
    if kind == "lat_laws":
        d = LATTICE_DIMS[i % len(LATTICE_DIMS)]
        ka, kb = shape.integers(0, d + 1, size=2).tolist()
        outer = _raw_subspace(rng, d, int(shape.integers(1, d + 1)))
        inner = gaussian(rng, (int(shape.integers(0, outer.shape[0] + 1)), outer.shape[0])) @ outer
        return Inputs(dim=d, frames=(_raw_subspace(rng, d, ka), _raw_subspace(rng, d, kb),
                                     inner, outer))
    if kind == "lat_axioms":
        d = AXIOM_DIMS[i % len(AXIOM_DIMS)]
        # ranks cycle over 0..d so every seed gives the batch the same cost
        frames = tuple(_raw_subspace(rng, d, k % (d + 1)) for k in range(AXIOM_SAMPLE))
        return Inputs(dim=d, frames=frames, seed=int(rng.integers(2 ** 31)))
    if kind == "col_peres":
        rays, triads = peres
        unitary = np.linalg.qr(gaussian(rng, (3, 3)))[0]
        phases = np.exp(2j * np.pi * rng.random(len(rays)))
        return Inputs(dim=3, rays=(rays @ unitary.T) * phases[:, None], bases=triads)
    if kind == "col_chain":
        rays, bases = triad_chain(rng, CHAIN_TRIADS[i % len(CHAIN_TRIADS)])
        return Inputs(dim=3, rays=rays, bases=bases)
    return Inputs()                                  # builtin families take no input


def make_pool(seed: int) -> list[tuple[str, Inputs]]:
    rng, shape = np.random.default_rng(seed), np.random.default_rng(SHAPE_SEED)
    peres = peres_rays()
    cases = []
    for kind, per_block in BLOCK:
        cases += [(kind, _case(kind, i, rng, shape, peres)) for i in range(per_block * BLOCKS)]
    return [cases[i] for i in rng.permutation(len(cases))]


def layer_table() -> dict:
    return {
        "universe": ("events.construct", events.Universe),
        "space": ("events.construct", events.OutcomeSpace),
        "event": ("events.construct", events.OutcomeSpace.event),
        "distributes_classical": ("events.distributes_classical", events.distributes_classical),
        "eq10": ("events.eq10_trace", events.eq10_trace),
        "mismatch": ("events.universe_mismatch_demo", events.universe_mismatch_demo),
        "complement": ("events.complement_relative", events.complement_relative),
        "subspace": ("lattice.construct", lattice.Subspace.from_vectors),
        "orthocomplement": ("lattice.construct", lattice.orthocomplement),
        "distributes": ("lattice.distributes", lattice.distributes),
        "absorption": ("lattice.laws", lattice.absorption_holds),
        "de_morgan": ("lattice.laws", lattice.de_morgan_holds),
        "orthomodular": ("lattice.laws", lattice.orthomodular_holds),
        "axioms": ("lattice.check_lattice_axioms", lattice.check_lattice_axioms),
        "builtin": ("coloring.construct", coloring.builtin_family),
        "family": ("coloring.construct", coloring.RayFamily.from_vectors),
        "search": ("coloring.search_bivalent_assignment", coloring.search_bivalent_assignment),
    }


def _members(labels, mask: int) -> frozenset:
    return frozenset(label for k, label in enumerate(labels) if mask >> k & 1)


# -- events ----------------------------------------------------------------------


def _space(L, *universes):
    return L.space(tuple(L.universe(f"omega{k}", labels) for k, labels in enumerate(universes)))


def run_exhaustive(c: Inputs, L, counts):
    space = _space(L, c.labels)
    subsets = [L.event(space, members) for members in c.sets]
    a = subsets[c.masks[0]]
    return [L.distributes_classical(a, b, cc) for b in subsets for cc in subsets]


def check_exhaustive(c: Inputs, out) -> bool:
    n = 2 ** len(c.labels)
    a = c.masks[0]
    expected = [_members(c.labels, a & (b | cc)) for b in range(n) for cc in range(n)]
    return len(out) == n * n and all(
        v.distributive and v.lhs.members == e and v.rhs.members == e
        for v, e in zip(out, expected)
    )


def run_random(c: Inputs, L, counts):
    space = _space(L, c.labels)
    return [
        L.distributes_classical(*(L.event(space, members) for members in triple))
        for triple in c.sets
    ]


def check_random(c: Inputs, out) -> bool:
    return len(out) == len(c.masks) and all(
        v.distributive and v.lhs.members == _members(c.labels, a & (b | cc))
        for v, (a, b, cc) in zip(out, c.masks)
    )


def run_eq10(c: Inputs, L, counts):
    space = _space(L, c.labels)
    return L.eq10(c.labels[c.masks[0]], c.labels[c.masks[1]], space)


def check_eq10(c: Inputs, out) -> bool:
    atom = frozenset([c.labels[c.masks[0]]])
    return out.all_equal_to_atom and len(out.lines) == 7 and all(
        line.value == atom for line in out.lines
    )


def run_mismatch(c: Inputs, L, counts):
    labels_a, labels_b = c.labels
    a, b, _inside = c.masks
    inside, straddle = c.sets
    space = _space(L, labels_a, labels_b)
    omega_a, omega_b = space.universes
    demo = L.mismatch(labels_a[a], labels_b[b], space)
    complement = L.complement(L.event(space, inside), omega_a)
    mixed = L.event(space, straddle)
    try:
        L.complement(mixed, omega_b)
        refused = False
    except events.ComplementUniverseError:
        refused = True
        counts["events.complement_relative.refused"] += 1
    return demo, complement.members, refused


def check_mismatch(c: Inputs, out) -> bool:
    demo, complement, refused = out
    labels_a, _labels_b = c.labels
    a, _b, inside = c.masks
    return (
        demo.flag_raised and demo.flag == events.MISMATCH_FLAG
        and demo.lhs_mixed == frozenset([labels_a[a]]) and demo.rhs_omega == frozenset()
        and demo.consistent_space.equal and demo.consistent_universe.equal
        and complement == _members(labels_a, (2 ** len(labels_a) - 1) & ~inside)
        and refused
    )


# -- lattice ---------------------------------------------------------------------


def generic_meet_dims(d: int, da: int, db: int, dc: int) -> tuple[int, int]:
    """dim a ∧ (b ∨ c) and dim (a ∧ b) ∨ (a ∧ c) for subspaces in general
    position, which independent Gaussian frames are with probability one."""
    lhs = max(0, da + min(d, db + dc) - d)
    rhs = max(0, da + db - d) + max(0, da + dc - d) - max(0, da + db + dc - 2 * d)
    return lhs, rhs


def _subspaces(c: Inputs, L):
    return [L.subspace(c.dim, frame) for frame in c.frames]


def run_triple(c: Inputs, L, counts):
    v = L.distributes(*_subspaces(c, L))
    return v.distributive, v.lhs.dim, v.rhs.dim


def check_triple(c: Inputs, out) -> bool:
    lhs, rhs = generic_meet_dims(c.dim, *(f.shape[0] for f in c.frames))
    return out == (lhs == rhs, lhs, rhs)


def run_witness(c: Inputs, L, counts):
    a, b = _subspaces(c, L)
    v = L.distributes(a, b, L.orthocomplement(b))
    return v.distributive, v.lhs.dim, v.rhs.dim


def check_witness(c: Inputs, out) -> bool:
    return out == (False, 1, 0)


def run_laws(c: Inputs, L, counts):
    a, b, inner, outer = _subspaces(c, L)
    return L.absorption(a, b), L.de_morgan(a, b), L.orthomodular(inner, outer)


def check_laws(c: Inputs, out) -> bool:
    return out == (True, True, True)


def run_axioms(c: Inputs, L, counts):
    report = L.axioms(_subspaces(c, L), seed=c.seed)
    return report.all_passed, tuple(check.checked for check in report.checks)


def check_axioms(c: Inputs, out) -> bool:
    n = len(c.frames)
    return out == (True, (n, n * n, n ** 3, n, n, n * n))


# -- coloring --------------------------------------------------------------------


def _search(L, counts, family, **options):
    result = L.search(family, **options)
    counts["coloring.search.nodes"] += result.nodes
    return result, family.bases


def run_ks18(c: Inputs, L, counts):
    return _search(L, counts, L.builtin("ks18-d4"))


def run_triads(c: Inputs, L, counts):
    return _search(L, counts, L.builtin("triads-d3"))


def run_peres(c: Inputs, L, counts):
    return _search(L, counts, L.family(c.dim, c.rays, c.bases), exclusive_pairs=True)


def run_chain(c: Inputs, L, counts):
    return _search(L, counts, L.family(c.dim, c.rays, c.bases))


def check_proved_none(c: Inputs, out) -> bool:
    result, _bases = out
    return result.proved_none and result.assignment is None


def check_found(c: Inputs, out) -> bool:
    result, bases = out
    values = result.assignment
    return (
        not result.proved_none and values is not None
        and set(values) <= {0, 1}
        and all(sum(values[i] for i in basis) == 1 for basis in bases)
    )


CASES = {
    "ev_exhaustive": (run_exhaustive, check_exhaustive),
    "ev_random": (run_random, check_random),
    "ev_eq10": (run_eq10, check_eq10),
    "ev_mismatch": (run_mismatch, check_mismatch),
    "lat_triple": (run_triple, check_triple),
    "lat_witness": (run_witness, check_witness),
    "lat_laws": (run_laws, check_laws),
    "lat_axioms": (run_axioms, check_axioms),
    "col_ks18": (run_ks18, check_proved_none),
    "col_peres": (run_peres, check_proved_none),
    "col_triads": (run_triads, check_found),
    "col_chain": (run_chain, check_found),
}
