"""cli-suite: every command in a fresh interpreter, as a user waits for it.

A round is the 13 commands plus two bad inputs, each one child process run
to completion before the next starts.  Round r gives invocation k the format
``FORMATS[(k + r) % 3]``, so from round 4 on each (command, config, seed,
format) repeats and its stdout must match the first time byte for byte.
Import, config parsing and report rendering dominate twelve commands and
``lattice-check`` dominates the round, so work moved into import or set-up
shows here.

Every invocation is checked against its documented exit code and verdict,
computed here with numpy from the generated inputs.  The two bad inputs must
exit 2 with an ``error:`` line and no traceback.
"""

from __future__ import annotations

import csv
import io
import json
import re
import subprocess
from typing import Callable, NamedTuple

import numpy as np

from logic_sweep import triad_chain
from quantum_sweep import chain_table, gaussian, haar_unitary

FORMATS = ("text", "csv", "json")
TOL = 1e-9                    # the commands' default --tol
AUDIT_DEFECT_TOL = 1e-6       # audit_no_go's default defect tolerance
DEFECT_MATCH = 1e-9           # a printed defect (12 digits) against the oracle
FAMILY_TRIADS = 40
TIMEOUT_S = 120

# Known defects: failures counted in ``failed`` but expected at this commit,
# so they do not by themselves make a run incorrect.  Fixing one turns its
# case into a pass.
KNOWN_DEFECTS = {
    "hv-build-out-missing-dir": "exits 1 with a FileNotFoundError traceback, not 2",
}

_R = 1 / np.sqrt(2)
PRESET_STATES = {
    "z+": (1, 0), "z-": (0, 1), "x+": (_R, _R), "x-": (_R, -_R),
    "y+": (_R, 1j * _R), "y-": (_R, -1j * _R),
}
AXES = {"z": ("z+", "z-"), "x": ("x+", "x-"), "y": ("y+", "y-")}
BAD_CONFIG_LINES = (
    "trials many",                       # malformed integer
    "state 0.6 0.8 0.1",                 # not normalized
    "colour red",                        # unknown key
    "context vectors 1 0 ; 1 0",         # not orthogonal
)


class Invocation(NamedTuple):
    name: str                            # unique within a round
    command: str
    args: tuple                          # after the command, before --format
    expect: Callable | None              # (exit code, verdict) -> bool; None: input error


def _complex(z) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}j"


def _vectors(columns: np.ndarray) -> str:
    return " ; ".join(" ".join(_complex(z) for z in col) for col in columns.T)


def _axis_columns(axis: str) -> np.ndarray:
    return np.array([PRESET_STATES[s] for s in AXES[axis]], dtype=complex).T


def _exact(code: int, verdict: str):
    return lambda c, v: c == code and v == verdict


def _defect(kind: str, below: str, value: float):
    """The verdict of stats-commute / stats-nondist for a defect ``value``."""
    if value <= TOL:
        return _exact(0, below)
    pattern = re.compile(rf"{kind} \(defect (\S+) > tol\)")

    def expect(code, verdict):
        match = pattern.fullmatch(verdict)
        return code == 0 and match is not None and abs(float(match[1]) - value) <= DEFECT_MATCH
    return expect


def _simulate(code, verdict):
    # The 4-sigma check is statistical; only its consistency with the exit code is fixed.
    return (code, verdict) in ((0, "all entries within the 4σ binomial bound"),
                               (1, "some entry outside the 4σ binomial bound"))


def make_inputs(seed: int) -> tuple[dict[str, str], list[Invocation]]:
    """Config files by name, and one round of invocations that use them."""
    rng = np.random.default_rng(seed)
    run_seed = int(rng.integers(2 ** 31))

    state_name = str(rng.choice(sorted(PRESET_STATES)))
    axis_a, axis_b = (str(a) for a in rng.permutation(sorted(AXES))[:2])
    preset_psi = np.array(PRESET_STATES[state_name], dtype=complex)
    pa, pb = _axis_columns(axis_a), _axis_columns(axis_b)
    overlap = abs(np.vdot(pb[:, 0], preset_psi)) ** 2
    preset_defect = float(np.max(np.abs(
        chain_table(preset_psi, pa, pb) - chain_table(preset_psi, pb, pa).T)))

    psi = gaussian(rng, 4)
    psi /= np.linalg.norm(psi)
    u, v = haar_unitary(rng, 4), haar_unitary(rng, 4)
    target = int(rng.integers(4))
    ab, ba = chain_table(psi, u, v), chain_table(psi, v, u)
    defect = float(np.max(np.abs(ab - ba.T)))
    nondist = float(abs(ab.sum(axis=1)[target] - ba[:, target].sum()))

    n_labels = int(rng.integers(3, 7))
    labels = [f"e{i}" for i in range(n_labels)]
    atom_a, atom_b = (labels[int(i)] for i in rng.integers(0, n_labels, 2))
    omega_a = [f"a{i}" for i in range(int(rng.integers(2, 5)))]
    omega_b = [f"b{i}" for i in range(int(rng.integers(2, 5)))]
    rays, bases = triad_chain(rng, FAMILY_TRIADS)

    files = {
        "preset.cfg": f"state {state_name}\ncontext {axis_a}\ncontext {axis_b}\n",
        "vectors.cfg": (
            f"state {' '.join(_complex(z) for z in psi)}\n"
            f"context vectors {_vectors(u)}\ncontext vectors {_vectors(v)}\n"
            f"target {target}\nseed {run_seed}\n"
        ),
        "model.cfg": f"model model.txt\nseed {run_seed}\n",
        "events.cfg": f"universe omega {' '.join(labels)}\natoms {atom_a} {atom_b}\n",
        "mismatch.cfg": (
            f"universe omega_a {' '.join(omega_a)}\nuniverse omega_b {' '.join(omega_b)}\n"
            f"atoms {rng.choice(omega_a)} {rng.choice(omega_b)}\n"
        ),
        "family.cfg": "family chain.rays\n",
        "chain.rays": "dim 3\n" + "".join(
            "ray " + " ".join(_complex(z) for z in ray) + "\n" for ray in rays
        ) + "".join("basis " + " ".join(map(str, b)) + "\n" for b in bases),
        "lattice.cfg": f"seed {run_seed}\n",
        "bad.cfg": str(rng.choice(BAD_CONFIG_LINES)) + "\n",
    }

    nondistributive = 1e-12 < overlap < 1 - 1e-12
    chain = ("chain broken at 'distributive ⇒ commutative'" if preset_defect > AUDIT_DEFECT_TOL
             else "chain not exercised (compatible observables)")
    joint = (_exact(1, "no joint distribution (order-asymmetric)") if defect > TOL
             else _exact(0, "joint distribution exists"))

    def good(command, config, expect, *extra):
        return Invocation(command, command, ("--config", config, *extra), expect)

    plan = [
        good("demo-eq5", "preset.cfg", _exact(0, "nondistributive") if nondistributive
             else _exact(1, "distributive")),
        good("demo-eq10", "events.cfg", _exact(0, f"distributive, {atom_a} = {atom_a}")),
        good("demo-mismatch", "mismatch.cfg",
             _exact(0, "inequality manufactured by complement-universe mismatch")),
        good("stats-seq", "vectors.cfg", _exact(0, "marginal identity holds")),
        good("stats-commute", "vectors.cfg",
             _defect("noncommuting", "commuting within tol", defect)),
        good("stats-joint", "vectors.cfg", joint),
        good("stats-nondist", "vectors.cfg",
             _defect("nondistributive", "distributive within tol", nondist)),
        good("hv-build", "vectors.cfg",
             _exact(0, "model constructed; every member is value-definite"),
             "--out", "model.txt"),
        good("hv-exact", "model.cfg", _exact(0, "exact tables computed")),
        good("hv-simulate", "model.cfg", _simulate),
        good("hv-audit", "preset.cfg", _exact(0, chain)),
        good("ks-search", "family.cfg", _exact(0, "assignment found")),
        good("lattice-check", "lattice.cfg", _exact(0, "all laws hold")),
        Invocation("bad-config", "stats-seq", ("--config", "bad.cfg"), None),
        Invocation("hv-build-out-missing-dir", "hv-build",
                   ("--config", "vectors.cfg", "--out", "missing/model.txt"), None),
    ]
    return files, plan


def argv(invocation: Invocation, fmt: str) -> list[str]:
    return [invocation.command, *invocation.args, "--format", fmt]


def verdict_of(fmt: str, stdout: str) -> str:
    if fmt == "json":
        return json.loads(stdout)["verdict"]
    if fmt == "csv":
        return next(row[1] for row in csv.reader(io.StringIO(stdout)) if row[0] == "verdict")
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("verdict: "):
        raise ValueError("no verdict line")
    return last[len("verdict: "):]


def check(invocation: Invocation, fmt: str, code: int, stdout: str, stderr: str) -> bool:
    if "Traceback" in stderr:
        return False
    if invocation.expect is None:
        return code == 2 and stdout == "" and stderr.startswith("error:")
    try:
        verdict = verdict_of(fmt, stdout)
    except (ValueError, KeyError, IndexError, StopIteration):
        return False
    return bool(invocation.expect(code, verdict))


def subprocess_runner(python: str, env: dict, cwd):
    """Run ``python -m qlbench.cli ARGV`` to completion: (code, stdout, stderr)."""
    def run(args):
        done = subprocess.run(
            [python, "-m", "qlbench.cli", *args], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        return done.returncode, done.stdout, done.stderr
    return run
