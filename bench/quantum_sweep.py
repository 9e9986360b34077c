"""quantum-sweep: sequential statistics and hidden-variable ensembles.

``hilbert``, ``stats`` and ``hidden`` do all the work; ``lattice``,
``events`` and ``coloring`` do none.  The pool has a fixed composition, so
every seed gives the same mix of case kinds, dimensions and trial counts and
only the states and bases differ:

- 40% ``table``: ordered tables both ways, the marginal identity, the
  commutation and nondistribution defects and joint existence, in d = 2..8
  weighted toward qubits; every eighth pair commutes and must give zero
  defect and an existing joint;
- 25% ``hv``: the value-definite model, its exact tables against the direct
  chain, and the no-go audit, in d = 2..4;
- 35% ``mc``: Monte-Carlo runs of the model at d = 2 in both orders, with
  trial counts cycling over 1e2..1e5, so a change that trades small-n cost
  for large-n gain moves ``latency_p99_ms`` and not ``latency_p50_ms``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qlbench import hidden, hilbert, stats

TABLE_DIMS = (2, 2, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8)
HV_DIMS = (2, 2, 3, 4)
MC_TRIALS = (100, 1_000, 10_000, 100_000)
COMPOSITION = (("table", 160), ("hv", 100), ("mc", 140))

TABLE_TOL = 1e-10        # qlbench tables against the numpy chain rule
HV_MATCH_TOL = 1e-9      # the hv-exact command's own criterion
JOINT_TOL = 1e-9         # joint_exists' default tolerance
AUDIT_DEFECT_TOL = 1e-6  # audit_no_go's default defect tolerance
ZERO_DEFECT = 1e-12      # a commuting pair's defect is zero up to rounding
MC_DELTA = 1e-9          # per-entry false-alarm probability of the Monte-Carlo oracle
ORDERS = (("A", "B"), ("B", "A"))


class Inputs(NamedTuple):
    psi: np.ndarray          # raw, unnormalized amplitudes
    u: np.ndarray            # columns are the first basis
    v: np.ndarray            # columns are the second basis
    target: int
    commuting: bool
    trials: int
    seed: int


def gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, (dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _inputs(rng, dim: int, *, commuting=False, trials=0) -> Inputs:
    u = haar_unitary(rng, dim)
    v = u[:, rng.permutation(dim)] if commuting else haar_unitary(rng, dim)
    return Inputs(
        psi=gaussian(rng, dim), u=u, v=v, target=int(rng.integers(dim)),
        commuting=commuting, trials=trials, seed=int(rng.integers(2**31)),
    )


def make_pool(seed: int) -> list[tuple[str, Inputs]]:
    rng = np.random.default_rng(seed)
    cases = []
    for kind, count in COMPOSITION:
        for i in range(count):
            if kind == "table":
                cases.append((kind, _inputs(rng, TABLE_DIMS[i % len(TABLE_DIMS)],
                                            commuting=i % 8 == 7)))
            elif kind == "hv":
                cases.append((kind, _inputs(rng, HV_DIMS[i % len(HV_DIMS)])))
            else:
                cases.append((kind, _inputs(rng, 2, trials=MC_TRIALS[i % len(MC_TRIALS)])))
    return [cases[i] for i in rng.permutation(len(cases))]


def layer_table() -> dict:
    return {
        "state": ("hilbert.construct", hilbert.StateVector.normalized),
        "basis": ("hilbert.construct", hilbert.MeasurementBasis.from_vectors),
        "sequential": ("stats.sequential_distribution", stats.sequential_distribution),
        "born": ("stats.born_distribution", stats.born_distribution),
        "commutation_defect": ("stats.commutation_defect", stats.commutation_defect),
        "nondistribution_defect": ("stats.nondistribution_defect", stats.nondistribution_defect),
        "joint_exists": ("stats.joint_exists", stats.joint_exists),
        "within_bound": ("stats.within_binomial_bound", stats.within_binomial_bound),
        "build_model": ("hidden.build_qm_equivalent_model", hidden.build_qm_equivalent_model),
        "exact": ("hidden.exact_sequential", hidden.exact_sequential),
        "audit": ("hidden.audit_no_go", hidden.audit_no_go),
        "simulate": ("hidden.simulate_sequential", hidden.simulate_sequential),
    }


# -- the numpy oracle: the chain rule as two matrix products -------------------


def chain_table(psi, first, then) -> np.ndarray:
    """entries[i, j] = |<f_i|psi>|^2 |<t_j|f_i>|^2 for unit ``psi``."""
    p = np.abs(first.conj().T @ psi) ** 2
    return p[:, None] * np.abs(first.conj().T @ then) ** 2


def _expected(c: Inputs):
    psi = c.psi / np.linalg.norm(c.psi)
    ab = chain_table(psi, c.u, c.v)
    ba = chain_table(psi, c.v, c.u)
    return psi, ab, ba, float(np.max(np.abs(ab - ba.T)))


def _close(actual, expected, tol=TABLE_TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(actual) - expected)) <= tol)


def mc_bound(p: np.ndarray, n: int, delta: float = MC_DELTA) -> np.ndarray:
    """Bernstein bound on |frequency - p| that n correct trials exceed with
    probability at most ``delta``: about 6.5 sigma at large n, and never
    tripped by the lumpy small-n*p counts a plain sigma bound trips on."""
    t = math.log(2.0 / delta)
    return t / (3 * n) + np.sqrt((t / (3 * n)) ** 2 + 2 * t * p * (1 - p) / n)


# -- cases ---------------------------------------------------------------------


def run_table(c: Inputs, L, counts):
    state, a, b = L.state(c.psi), L.basis(c.u.T), L.basis(c.v.T)
    ab = L.sequential(state, a, b)
    ba = L.sequential(state, b, a)
    born = L.born(state, a)
    defect = L.commutation_defect(state, a, b)
    nondist = L.nondistribution_defect(state, a, c.target, b)
    joint = L.joint_exists(ab, ba)
    return ab.entries, ba.entries, born.probs, defect, nondist, joint.exists


def check_table(c: Inputs, out) -> bool:
    ab, ba, born, defect, nondist, exists = out
    _psi, exp_ab, exp_ba, exp_defect = _expected(c)
    exp_nondist = abs(exp_ab.sum(axis=1)[c.target] - exp_ba[:, c.target].sum())
    return (
        _close(ab, exp_ab) and _close(ba, exp_ba)
        and _close(born, exp_ab.sum(axis=1))
        and _close(ab.sum(axis=1), born, 1e-12)          # the marginal identity
        and abs(defect - exp_defect) <= TABLE_TOL
        and abs(nondist - exp_nondist) <= TABLE_TOL
        and exists == (exp_defect <= JOINT_TOL)
        and (not c.commuting or defect <= ZERO_DEFECT)
    )


def run_hv(c: Inputs, L, counts):
    state, a, b = L.state(c.psi), L.basis(c.u.T), L.basis(c.v.T)
    model = L.build_model(state, a, b)
    exact = [L.exact(model, order).entries for order in ORDERS]
    direct = [L.sequential(state, a, b).entries, L.sequential(state, b, a).entries]
    audit = L.audit(state, a, b)
    return exact, direct, audit


def check_hv(c: Inputs, out) -> bool:
    exact, direct, audit = out
    _psi, exp_ab, exp_ba, exp_defect = _expected(c)
    dim = c.psi.size
    return (
        all(_close(e, d, HV_MATCH_TOL) for e, d in zip(exact, direct))
        and _close(exact[0], exp_ab) and _close(exact[1], exp_ba)
        and audit.member_count == dim * dim
        and audit.members_value_definite and audit.members_distributive
        and audit.defects_match
        and audit.noncommuting == (exp_defect > AUDIT_DEFECT_TOL)
        and audit.chain_verdict == (hidden.CHAIN_BROKEN if audit.noncommuting
                                    else hidden.CHAIN_NOT_EXERCISED)
        and abs(audit.qm_commutation_defect - exp_defect) <= TABLE_TOL
    )


def run_mc(c: Inputs, L, counts):
    state, a, b = L.state(c.psi), L.basis(c.u.T), L.basis(c.v.T)
    model = L.build_model(state, a, b)
    empirical = []
    for offset, order in enumerate(ORDERS):
        exact = L.exact(model, order)
        table = L.simulate(model, order, c.trials, c.seed + offset)
        L.within_bound(exact, table, c.trials)
        empirical.append(table.entries)
    counts["hidden.simulate_sequential.trials"] += len(ORDERS) * c.trials
    return empirical


def check_mc(c: Inputs, out) -> bool:
    _psi, exp_ab, exp_ba, _defect = _expected(c)
    for table, expected in zip(out, (exp_ab, exp_ba)):
        hits = table * c.trials
        if np.max(np.abs(hits - np.round(hits))) > 1e-6 or round(hits.sum()) != c.trials:
            return False
        if np.any(np.abs(table - expected) > mc_bound(expected, c.trials)):
            return False
    return True


CASES = {
    "table": (run_table, check_table),
    "hv": (run_hv, check_hv),
    "mc": (run_mc, check_mc),
}
