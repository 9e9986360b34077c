"""The package is its modules: importing ``qlbench`` loads none of them, a
command loads only the modules it uses, and the README's library example
imports each name from its own module."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qlbench

SRC = Path(qlbench.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def loaded_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` of a fresh interpreter after ``statement``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.split())


def loaded_by_command(*argv, cwd=None) -> tuple[int, set[str]]:
    """The exit code of ``python -m qlbench.cli ARGV`` in a fresh interpreter,
    and the names of the modules it imported, read off its ``-X importtime``
    lines on stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "qlbench.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    return done.returncode, {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                             if line.startswith("import time:")}


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_after("import qlbench")
    assert "qlbench" in loaded
    assert sorted(name for name in loaded if name.startswith("qlbench.")) == []


def test_events_module_runs_without_numpy():
    loaded = loaded_after("import qlbench.events")
    assert "qlbench.events" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("command", ["demo-eq10", "demo-mismatch"])
def test_event_demos_never_load_numpy(command):
    code, loaded = loaded_by_command(command)
    assert code == 0
    assert "qlbench.events" in loaded
    assert "numpy" not in loaded


def test_a_config_error_is_reported_before_numpy_loads(tmp_path):
    (tmp_path / "bad.cfg").write_text("trials many\n")
    code, loaded = loaded_by_command("stats-seq", "--config", "bad.cfg", cwd=tmp_path)
    assert code == 2
    assert "qlbench.config" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("command, used, unused", [
    ("stats-commute", {"hilbert", "stats"}, {"lattice", "coloring", "hidden", "sampling", "events"}),
    ("lattice-check", {"hilbert", "lattice", "sampling"}, {"hidden", "stats", "coloring", "events"}),
])
def test_a_numpy_command_loads_only_its_modules(command, used, unused):
    code, loaded = loaded_by_command(command)
    assert code == 0
    assert {f"qlbench.{name}" for name in used} <= loaded
    assert {f"qlbench.{name}" for name in unused}.isdisjoint(loaded)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    defect = namespace["commutation_defect"](namespace["psi"], namespace["z"], namespace["x"])
    assert abs(defect - 0.25) <= 1e-12
