"""The package is its modules: importing ``qlbench`` loads none of them, a
command loads only the modules it uses and never ``dataclasses``, each record
keeps its constructor, is built only through it and guards none of its
fields, each pinned function its parameters, each threshold constant is named
by a test, and the README's library example imports each name from its own
module."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qlbench
from qlbench.cli import COMMANDS
from qlbench.reports import Report

SRC = Path(qlbench.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
THRESHOLD = re.compile(r"^([A-Z_]+_TOL|ZERO_PROBABILITY|BINOMIAL_Z) *=", re.MULTILINE)


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


def test_imports_resolve_to_the_standard_library_numpy_or_qlbench():
    """The runtime dependencies are numpy alone: scipy and sympy may be
    installed, but no module of the package may import them."""
    allowed = {*sys.stdlib_module_names, "numpy", "qlbench"}
    for path in sorted((SRC / "qlbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: qlbench itself
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


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
    assert {"numpy", "dataclasses", "inspect"}.isdisjoint(loaded)


def test_a_config_error_is_reported_before_numpy_loads(tmp_path):
    (tmp_path / "bad.cfg").write_text("trials many\n")
    code, loaded = loaded_by_command("stats-seq", "--config", "bad.cfg", cwd=tmp_path)
    assert code == 2
    assert "qlbench.config" in loaded
    assert {"numpy", "dataclasses", "inspect"}.isdisjoint(loaded)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_loads_dataclasses(command):
    code, loaded = loaded_by_command(command)
    assert code in (0, 1)
    assert "qlbench.reports" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("command, used, unused", [
    ("stats-commute", {"hilbert", "stats"}, {"lattice", "coloring", "hidden", "sampling", "events"}),
    ("lattice-check", {"hilbert", "lattice", "sampling"}, {"hidden", "stats", "coloring", "events"}),
])
def test_a_numpy_command_loads_only_its_modules(command, used, unused):
    code, loaded = loaded_by_command(command)
    assert code == 0
    assert {f"qlbench.{name}" for name in used} <= loaded
    assert {f"qlbench.{name}" for name in unused}.isdisjoint(loaded)


# Each public record's constructor parameters in order, a name alone when it
# has no default; the defaults are literal so that keyword construction
# cannot drift.
RECORD_PARAMETERS = {
    "coloring.RayFamily": ("dim", "rays", "bases"),
    "coloring.AssignmentSearchResult": ("assignment", "proved_none", "nodes"),
    "config.ExperimentConfig": (),
    "events.Universe": ("name", "outcomes"),
    "events.OutcomeSpace": ("universes",),
    "events.EventSet": ("space", "mask"),
    "events.ClassicalDistributivityVerdict": ("lhs", "rhs", "distributive"),
    "events.TraceLine": ("expression", "value"),
    "events.ComplementChainTrace": ("a_label", "b_label", "lines"),
    "events.SideBySide": ("lhs", "rhs"),
    "events.MismatchReport": (
        "a_label", "b_label", "lhs_mixed", "rhs_omega", "flag_raised", "flag",
        "consistent_space", "consistent_universe", "coercions"),
    "hidden.HiddenModel": ("values", "weights", "contexts", "kernels"),
    "hidden.NoGoAudit": (
        "context_ids", "member_count", "members_value_definite", "members_distributive",
        "member_pairs_checked", "member_max_dispersion", "mixture_max_dispersion",
        "hv_commutation_defect", "qm_commutation_defect", "defects_match", "noncommuting",
        "chain_verdict", "table_first_then", "table_then_first"),
    "hilbert.StateVector": ("amplitudes",),
    "hilbert.MeasurementBasis": ("frame", "labels"),
    "lattice.Subspace": ("frame",),
    "lattice.DistributivityVerdict": ("lhs", "rhs", "distributive"),
    "lattice.AxiomCheck": ("name", "checked", "passed", "counterexample"),
    "lattice.LatticeAxiomReport": ("checks",),
    "reports.ReportTable": ("name", "headers", "rows"),
    "reports.Report": ("title",),
    "stats.Distribution": ("labels", "probs"),
    "stats.SequentialTable": ("first_basis", "second_basis", "entries"),
    "stats.JointWitness": ("first_index", "second_index", "forward", "reverse"),
    "stats.JointVerdict": ("exists", "joint", "witness"),
}


def record_class(record: str) -> type:
    module, name = record.split(".")
    return getattr(importlib.import_module(f"qlbench.{module}"), name)


@pytest.mark.parametrize("record, parameters", RECORD_PARAMETERS.items(),
                         ids=RECORD_PARAMETERS)
def test_record_constructor_signature(record, parameters):
    signature = inspect.signature(record_class(record))
    expected = [p if isinstance(p, tuple) else (p, inspect.Parameter.empty) for p in parameters]
    assert [(p.name, p.default) for p in signature.parameters.values()] == expected
    assert {p.kind for p in signature.parameters.values()} <= {
        inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_no_record_guards_its_fields():
    # every record is a plain __slots__ class: none refuses assignment or
    # deletion, or pickles through a reduction of its own
    hooks = {"__setattr__", "__delattr__", "__reduce__"}
    defined = {record: sorted(hooks.intersection(vars(record_class(record))))
               for record in RECORD_PARAMETERS}
    assert {record: names for record, names in defined.items() if names} == {}


def test_each_record_is_built_through_its_constructor():
    # no module makes an instance with object.__new__, bypassing its constructor
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "qlbench").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "object"]
    assert calls == []


STORING_RECORDS = ("lattice.Subspace", "coloring.RayFamily", "events.EventSet",
                   "hilbert.MeasurementBasis", "hidden.HiddenModel", "stats.Distribution",
                   "stats.SequentialTable")


def test_storing_records_neither_check_nor_copy():
    # each of these records is checked by its one entry for outside input
    # (``from_vectors``, ``parse_model`` or ``OutcomeSpace.event``), or is only
    # computed by the package (the distributions and tables of ``stats``), so
    # its constructor raises nothing, makes no array and scans no list; the
    # fields a constructor derives are the basis's ``adjoint`` and the model's
    # ``columns`` map and ``marginals``, each formed once, from what it stores
    found = []
    for record in STORING_RECORDS:
        module, name = record.split(".")
        tree = ast.parse((SRC / "qlbench" / f"{module}.py").read_text(encoding="utf-8"))
        init = next(node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == name
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        found += [f"{record}:{node.lineno}" for node in ast.walk(init)
                  if isinstance(node, ast.Raise)
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (node.func.attr == "tolist"
                       or node.func.attr in ("array", "asarray")
                       and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")]
    assert found == []


def test_frame_adjoint_is_formed_only_by_the_basis():
    # MeasurementBasis forms its frame's conjugate transpose once, as
    # ``adjoint``; the Born and overlap products of stats and hidden take it
    # from there and never conjugate a frame again
    found = [f"{name}:{node.lineno}" for name in ("stats.py", "hidden.py")
             for node in ast.walk(ast.parse((SRC / "qlbench" / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("conj", "conjugate")
             and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "frame"]
    assert found == []


def located_nodes(module: str):
    """(qualified name of the innermost enclosing function or class, node)
    for every node of ``qlbench.<module>``."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{where}.{child.name}"
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where)
            yield inner, child
            yield from visit(child, inner)
    yield from visit(ast.parse((SRC / "qlbench" / f"{module}.py").read_text(encoding="utf-8")),
                     module)


def test_born_and_overlap_products_are_formed_only_through_the_memo():
    # a Born vector |Fᴴψ|² (a product with a state's amplitudes) and an overlap
    # kernel |UᴴV|² (a basis adjoint times a frame) are each formed in one
    # function, and only the readers of the state's memo call those two, so no
    # caller forms either outside the memo
    products, calls = [], []
    for module in [path.stem for path in sorted((SRC / "qlbench").glob("*.py"))]:
        for where, node in located_nodes(module):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                names = [operand.attr for operand in (node.left, node.right)
                         if isinstance(operand, ast.Attribute)]
                if "amplitudes" in names:
                    products.append((where, "Born"))
                elif names == ["adjoint", "frame"]:
                    products.append((where, "overlap"))
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("_born_probs", "overlap_kernel"):
                    calls.append((where, name))
    assert products == [("stats._born_probs", "Born"), ("stats.overlap_kernel", "overlap")]
    assert calls == [("stats._memo_born", "_born_probs"), ("stats._memo_kernel", "overlap_kernel")]


VECTOR_ENTRIES = {"hilbert.MeasurementBasis.from_vectors", "lattice.Subspace.from_vectors",
                  "coloring.RayFamily.from_vectors"}


def test_outside_vectors_are_read_by_one_function():
    # one function converts a sequence of outside vectors with a fallback for
    # input that is not an (n, d) array: hilbert.vector_rows; each from_vectors
    # entry calls it and holds no try statement of its own
    readers, tries, callers, functions = set(), set(), set(), set()
    for module in [path.stem for path in sorted((SRC / "qlbench").glob("*.py"))]:
        for where, node in located_nodes(module):
            if isinstance(node, ast.FunctionDef):
                functions.add(where)
            elif isinstance(node, ast.Try):
                tries.add(where)
                if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                       and call.func.attr in ("array", "asarray", "ascontiguousarray")
                       for statement in node.body for call in ast.walk(statement)):
                    readers.add(where)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vector_rows":
                callers.add(where)
    assert readers == {"hilbert.vector_rows"}
    assert callers == VECTOR_ENTRIES and not tries & VECTOR_ENTRIES
    assert "coloring._ray_matrix" not in functions


# The keywords each library function keeps; a setting no caller changes is a
# module constant (``lattice.TUPLE_LIMIT``, ``stats.BINOMIAL_Z``), not a keyword.
FUNCTION_PARAMETERS = {
    "lattice.check_lattice_axioms": (
        ("sample", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("seed", inspect.Parameter.KEYWORD_ONLY, 0)),
    "stats.binomial_bound": ("p", "n_trials"),
    "stats.within_binomial_bound": ("exact", "empirical", "n_trials"),
}


@pytest.mark.parametrize("function, parameters", FUNCTION_PARAMETERS.items(),
                         ids=FUNCTION_PARAMETERS)
def test_function_signature(function, parameters):
    module, name = function.split(".")
    signature = inspect.signature(getattr(importlib.import_module(f"qlbench.{module}"), name))
    expected = [p if isinstance(p, tuple)
                else (p, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
                for p in parameters]
    assert [(p.name, p.kind, p.default) for p in signature.parameters.values()] == expected


def test_each_report_starts_with_its_own_lists():
    first, second = Report(title="first"), Report(title="second")
    first.add("key", 1)
    first.add_table("table", ["h"], [[1]])
    assert (second.fields, second.tables) == ([], [])
    assert (second.verdict, second.ok, second.attachment) == ("", True, None)
    assert first.fields == [("key", 1)]


def test_every_threshold_constant_is_named_by_a_test():
    constants = {name for path in (SRC / "qlbench").glob("*.py")
                 for name in THRESHOLD.findall(path.read_text(encoding="utf-8"))}
    tests = "\n".join(path.read_text(encoding="utf-8") for path in TESTS.glob("test_*.py"))
    assert constants
    assert sorted(c for c in constants if not re.search(rf"\b{c}\b", tests)) == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    defect = namespace["commutation_defect"](namespace["psi"], namespace["z"], namespace["x"])
    assert abs(defect - 0.25) <= 1e-12
