"""Every statement of the package runs on some user route, or is listed here
with its reason.

The test traces the lines of ``src/qlbench`` with ``sys.settrace`` while the
command line runs in-process: every golden case (13 commands × 3 formats on
the defaults and the golden configs), the ``hv-build --out`` replays, and the
``--seed``/``--trials``/``--tol``/``--out`` flag and ``QLBENCH_SEED`` routes.
A statement counts when it sits in a function body, outside a docstring and
outside a block that ends in ``raise`` (an error path, which the tests of each
module reach).  The statements left unreached must be exactly ``ALLOWED``: a
change that adds surface only tests reach fails here, and one that deletes
listed surface must shrink the list.  A function none of whose statements run
is one entry, ``module.qualname``; otherwise an entry is ``module.qualname:
first line of the statement``.  The benchmark (``bench/``) is not imported,
so the API that only it reaches is listed by hand.
"""

import ast
import importlib
import sys
from pathlib import Path

from golden_cases import cases, models, replay, resolve, run
from qlbench import coloring

PACKAGE = Path(coloring.__file__).resolve().parent
LOGIC_SWEEP = "reached by the benchmark only (bench/logic_sweep.py)"
QUANTUM_SWEEP = "reached by the benchmark only (bench/quantum_sweep.py)"
ERROR = "error path: builds, returns or prints a refusal"
WALK = "fault walk: runs once a refusal is decided, to name the faulty entry"
READ = ("input other than an (n, d) array, read vector by vector by hilbert.vector_rows: "
        "library callers")
FAILED = "a failing verdict, reached only if the package computed a law wrongly"
REPR = "__repr__, for debugging"

ALLOWED = {
    "cli.entrypoint": "console-script entry point; the routes call cli.main",
    "cli.main: except (QLBenchError, OSError, ValueError) as exc:": ERROR,
    "cli.main: print(f\"error: {exc}\", file=sys.stderr)": ERROR,
    "cli.main: return 2": ERROR,
    "coloring._basis_index: except OverflowError:  # an index beyond intp, so out of range": WALK,
    "coloring._basis_index: pass": WALK,
    "coloring._basis_index: for b, basis in enumerate(bases):": WALK,
    "coloring._basis_index: for p, i in enumerate(basis):": WALK,
    "coloring._basis_index: if len(basis) != dim or len(set(basis)) != dim:": WALK,
    "coloring._basis_index: if not 0 <= i < n:": WALK,
    "coloring._basis_index: if not is_integer(i):": WALK,
    # exclusive_pairs=True, which no command sets
    "coloring.search_bivalent_assignment: rays = family.rays": LOGIC_SWEEP,
    "coloring.search_bivalent_assignment: packed = np.packbits(np.abs(rays @ rays.conj().T) <= "
    "RAY_TOL, axis=1, bitorder=\"little\")": LOGIC_SWEEP,
    "coloring.search_bivalent_assignment: mates = [mate | int.from_bytes(bytes(row), \"little\")":
        LOGIC_SWEEP,
    "config.ConfigError.__init__": ERROR,
    "config.Line.column": ERROR,
    "config.Line.error": ERROR,
    "errors.InvariantViolationError.__init__": ERROR,
    "events.ComplementChainTrace.verdict: return \"chain broke: some line differs from the "
    "starting atom\"": FAILED,
    "events.EventSet.__repr__": REPR,
    "hidden._not_stochastic: return \"kernel entry negative or not a number\"": ERROR,
    "hidden._not_stochastic: return f\"kernel row {i} sums to {total!r}, not 1\"": ERROR,
    "hilbert.MeasurementBasis.__repr__": REPR,
    "hilbert.StateVector.__repr__": REPR,
    "hilbert._not_scalable": ERROR,
    "hilbert.vector_rows: except (TypeError, ValueError):  # ragged, or not numbers": READ,
    "hilbert.vector_rows: rows = np.empty(0)": READ,
    "hilbert.vector_rows: rows = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]": READ,
    "hilbert.vector_rows: width = (rows[0].size if rows else 0) if dim is None else dim": READ,
    "hilbert.vector_rows: for k, row in enumerate(rows):": READ,
    "hilbert.vector_rows: if row.size != width:": READ,
    "hilbert.vector_rows: return rows, k": READ,
    "hilbert.vector_rows: return np.array(rows, dtype=complex).reshape(": READ,
    "lattice.Subspace.__repr__": REPR,
    # the zero subspace, drawn by lat_triple and lat_axioms at rank 0
    "lattice.Subspace.from_vectors: return cls(np.zeros((ambient_dim, 0), dtype=complex))":
        LOGIC_SWEEP,
    "lattice._pairwise: return np.ones(0, dtype=bool)":
        "empty stacks: library callers of the stacked laws",
    "lattice.absorption_holds": LOGIC_SWEEP,
    "lattice.check_lattice_axioms.record: first = int(failures[0])": FAILED,
    "lattice.check_lattice_axioms.record: described = \", \".join(f\"sample[{k}]\" for k in "
    "cases[first])": FAILED,
    "lattice.check_lattice_axioms.record: checks.append(AxiomCheck(name=name, checked=first + 1, "
    "passed=False,": FAILED,
    "lattice.de_morgan_holds": LOGIC_SWEEP,
    # the per-pair rank rules for a zero or full side; the stacked kernels settle
    # such pairs for lattice-check
    "lattice.includes: return False": LOGIC_SWEEP,
    "lattice.includes: return True": LOGIC_SWEEP,
    "lattice.join: return a": LOGIC_SWEEP,
    "lattice.meet: return b": LOGIC_SWEEP,
    "lattice.orthocomplement: return Subspace(np.eye(d, dtype=complex)[:, a.dim:])": LOGIC_SWEEP,
    "lattice.orthomodular_holds": LOGIC_SWEEP,
    "stats.nondistribution_defect": QUANTUM_SWEEP,
}


def _function_statements(path: Path, module: str) -> dict[str, list[tuple[str, range]]]:
    """Per function of ``path`` (``module.qualname``), each counted statement
    as (its first source line, stripped; the lines whose trace shows it ran)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    functions: dict[str, list[tuple[str, range]]] = {}

    def header(node, end) -> tuple[str, range]:
        return lines[node.lineno - 1].strip(), range(node.lineno, max(end, node.lineno + 1))

    def branch(statements, scope):
        if not statements or not isinstance(statements[-1], ast.Raise):  # else an error path
            yield from block(statements, scope)

    def block(statements, scope):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield header(node, node.body[0].lineno)  # the def itself runs
                visit(node, scope)
            elif isinstance(node, ast.Try):
                yield from block(node.body, scope)
                yield from branch(node.orelse, scope)
                yield from block(node.finalbody, scope)
                for handler in node.handlers:
                    if not isinstance(handler.body[-1], ast.Raise):
                        yield header(handler, handler.body[0].lineno)
                        yield from block(handler.body, scope)
            elif isinstance(node, (ast.If, ast.For, ast.While, ast.With)):
                yield header(node, node.body[0].lineno)
                yield from (branch if isinstance(node, ast.If) else block)(node.body, scope)
                yield from branch(getattr(node, "orelse", []), scope)
            elif not isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)) and not (
                    isinstance(node, ast.AnnAssign) and node.value is None):
                yield lines[node.lineno - 1].strip(), range(node.lineno, node.end_lineno + 1)

    def visit(node, scope):
        name = f"{scope}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, name)
            return
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        functions[name] = list(block(body, name))

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            visit(node, module)
    return functions


def _traced_lines(routes) -> set[tuple[str, int]]:
    """(module, line) of each line of the package that runs during ``routes()``."""
    files = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"qlbench.{path.stem}")
        files[module.__file__] = path.stem
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        routes()
    finally:
        sys.settrace(previous)
    return seen


def _user_routes(directory: Path, monkeypatch):
    """The golden cases and replays, then the routes they leave out: presets
    named in a config file and vectors too small or large to square, a lattice
    sample small enough to check every tuple, the flags, and ``QLBENCH_SEED``."""
    monkeypatch.delenv("QLBENCH_SEED", raising=False)
    monkeypatch.setattr(coloring, "_parsed_builtins", {})  # as in a fresh process
    for _, argv in cases():
        run(resolve(argv))
    for name, config in models():
        replay(name, config, directory)
    presets, small = directory / "presets.cfg", directory / "small.cfg"
    presets.write_text("state y+\ncontext z\ncontext vectors 1e-200 1e-200 ; 3e200 -3e200\n",
                       encoding="utf-8")
    small.write_text("samples 4\n", encoding="utf-8")
    for argv in (["hv-audit", "--config", str(presets)], ["lattice-check", "--config", str(small)],
                 ["hv-simulate", "--seed", "0x10", "--trials", "1000", "--tol", "1e-6"],
                 ["stats-seq", "--out", str(directory / "stats-seq.txt")]):
        assert run(argv)[0] == 0
    monkeypatch.setenv("QLBENCH_SEED", "7")
    assert run(["hv-simulate", "--trials", "100"])[0] == 0


def unreached(directory: Path, monkeypatch) -> set[str]:
    """The entries, in ``ALLOWED``'s form, of what the user routes leave unrun."""
    seen = _traced_lines(lambda: _user_routes(directory, monkeypatch))
    missed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for function, statements in _function_statements(path, path.stem).items():
            ran = [any((path.stem, line) in seen for line in lines) for _, lines in statements]
            if not any(ran):
                missed.add(function)
            else:
                missed.update(f"{function}: {text}" for (text, _), hit in zip(statements, ran)
                              if not hit)
    return missed


def test_unreached_statements_are_the_allow_list(tmp_path, monkeypatch):
    assert unreached(tmp_path, monkeypatch) == set(ALLOWED)

