"""The package is its modules: importing ``qlbench`` loads none of them, and
the README's library example imports each name from its own module."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_after("import qlbench")
    assert "qlbench" in loaded
    assert sorted(name for name in loaded if name.startswith("qlbench.")) == []


def test_events_module_runs_without_numpy():
    loaded = loaded_after("import qlbench.events")
    assert "qlbench.events" in loaded
    assert "numpy" not in loaded


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    defect = namespace["commutation_defect"](namespace["psi"], namespace["z"], namespace["x"])
    assert abs(defect - 0.25) <= 1e-12
