"""The golden output corpus: every case, and the script that regenerates it.

Each case runs ``qlbench.cli.main`` in-process and records its stdout and
exit code under ``tests/golden/``.  The cases are all 13 commands in every
format on their defaults; the 9 quantum commands in every format on four
experiment files in ``golden/configs`` (d = 4 and d = 8 random vectors, a
commuting d = 3 pair, and spin angles); and, for the default and each of
those files, the model that ``hv-build --out`` writes plus the
``hv-exact``/``hv-simulate`` output that replays it; ``demo-eq10`` and
``demo-mismatch`` in every format on two universes and two atoms read from an
experiment file; and ``ks-search`` in every format on ``builtin:triads-d3``
and on a chain of 12 complex triads.
Every case runs with ``golden/configs`` as its working directory, where a
family path in a config file is found.

Regenerate after a deliberate output change, and record why in CHANGES.md::

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "csv", "json")
COMMANDS = ("demo-eq5", "demo-eq10", "demo-mismatch", "stats-seq", "stats-commute",
            "stats-joint", "stats-nondist", "hv-build", "hv-exact", "hv-simulate",
            "hv-audit", "ks-search", "lattice-check")
QUANTUM = COMMANDS[:1] + COMMANDS[3:11]
EVENTS = COMMANDS[1:3]
REPLAY = ("hv-exact", "hv-simulate")


def _vector(v) -> str:
    return " ".join(repr(complex(z)) for z in v)


def _vectors(frame) -> str:
    return " ; ".join(_vector(column) for column in frame.T)


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_config(seed: int, d: int) -> str:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=d) + 1j * rng.normal(size=d)
    state /= np.linalg.norm(state)
    return (f"state {_vector(state)}\ncontext vectors {_vectors(_unitary(rng, d))}\n"
            f"context vectors {_vectors(_unitary(rng, d))}\ntarget {d - 1}\n")


def _commuting_config(seed: int, d: int) -> str:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=d) + 1j * rng.normal(size=d)
    state /= np.linalg.norm(state)
    frame = _unitary(rng, d)
    return (f"state {_vector(state)}\ncontext vectors {_vectors(frame)}\n"
            f"context vectors {_vectors(frame[:, rng.permutation(d)])}\n")


def _chain_family(seed: int, triads: int) -> str:
    """Triads in dimension 3 of complex rays, each sharing its first ray with
    the last ray of the triad before it."""
    rng = np.random.default_rng(seed)
    rays = list(_unitary(rng, 3).T)
    bases = [(0, 1, 2)]
    for _ in range(triads - 1):
        shared = rays[-1]
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        p -= np.vdot(shared, p) * shared
        p /= np.linalg.norm(p)
        rays += [p, np.cross(shared, p).conj()]
        bases.append((len(rays) - 3, len(rays) - 2, len(rays) - 1))
    return "dim 3\n" + "".join(f"ray {_vector(ray)}\n" for ray in rays) + "".join(
        "basis " + " ".join(map(str, basis)) + "\n" for basis in bases)


FAMILIES = {"chain": _chain_family(12, 12)}

CONFIGS = {
    "random-d4": _random_config(4, 4),
    "random-d8": _random_config(8, 8),
    "commuting-d3": _commuting_config(3, 3),
    "angles": "state angles 0.7 2.1\ncontext angles 0 0\ncontext angles 1.9 -0.4\ntrials 5000\n",
    "events": "universe spin up down\nuniverse coin heads tails edge\natoms down edge\n",
    "triads-d3": "family builtin:triads-d3\n",
    "chain": "family chain.rays\n",
}
QUANTUM_CONFIGS = ("random-d4", "random-d8", "commuting-d3", "angles")
EVENT_CONFIGS = ("events",)
FAMILY_CONFIGS = ("triads-d3", "chain")


def cases():
    """(name, argv) per report case; a ``{config}`` argument names a config file."""
    for command in COMMANDS:
        for fmt in FORMATS:
            yield f"default/{command}.{fmt}", [command, "--format", fmt]
    for configs, commands in ((QUANTUM_CONFIGS, QUANTUM), (EVENT_CONFIGS, EVENTS),
                              (FAMILY_CONFIGS, ("ks-search",))):
        for config in configs:
            for command in commands:
                for fmt in FORMATS:
                    yield (f"{config}/{command}.{fmt}",
                           [command, "--config", "{%s}" % config, "--format", fmt])


def models():
    """(name, config or None) per ``hv-build --out`` replay case."""
    yield "default", None
    yield from ((config, config) for config in QUANTUM_CONFIGS)


def run(argv) -> tuple[int, str]:
    """``cli.main(argv)``: its exit code and stdout."""
    from qlbench import cli

    out = io.StringIO()
    with contextlib.chdir(GOLDEN / "configs"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def config_path(name: str) -> str:
    return str(GOLDEN / "configs" / f"{name}.cfg")


def resolve(argv) -> list[str]:
    return [config_path(a[1:-1]) if a.startswith("{") else a for a in argv]


def replay(name: str, config: str | None, directory: Path):
    """Build the model of one replay case in ``directory``, then replay it:
    (model bytes, {command: (exit code, stdout)})."""
    model = directory / f"{name}.model"
    settings = [] if config is None else ["--config", config_path(config)]
    run(["hv-build", "--out", str(model), *settings])
    replay_cfg = directory / f"{name}.replay.cfg"
    replay_cfg.write_text(f"model {model}\n", encoding="utf-8")
    return model.read_bytes(), {c: run([c, "--config", str(replay_cfg)]) for c in REPLAY}


def regenerate() -> None:
    import tempfile

    os.environ.pop("QLBENCH_SEED", None)
    exits = {}
    (GOLDEN / "configs").mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        Path(config_path(name)).write_text(text, encoding="utf-8")
    for name, text in FAMILIES.items():
        (GOLDEN / "configs" / f"{name}.rays").write_text(text, encoding="utf-8")
    for name, argv in cases():
        code, out = run(resolve(argv))
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_text(out, encoding="utf-8")
        exits[name] = code
    (GOLDEN / "models").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, config in models():
            model, outputs = replay(name, config, Path(scratch))
            (GOLDEN / "models" / f"{name}.model").write_bytes(model)
            for command, (code, out) in outputs.items():
                path = f"models/{name}.{command}.text"
                (GOLDEN / path).write_text(out, encoding="utf-8")
                exits[path] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    regenerate()
