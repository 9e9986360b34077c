"""qlbench benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload quantum-sweep --seed 1 --seconds 30 --trace 0

Runs from the repository root (or any copy of it) against ``src/qlbench``;
nothing is installed.  Inputs are generated from ``--seed`` with numpy during
set-up; a case starts at its first qlbench call and is checked against an
oracle after it ends.  The workloads (see their modules):

- ``quantum-sweep``: hilbert, stats and hidden; whole passes over a
  fixed-composition pool of 400 cases;
- ``logic-sweep``: events, lattice and coloring; whole passes over 500 cases;
- ``cli-suite``: whole rounds of the 13 commands plus two bad inputs, each in
  a fresh interpreter.

``--trace 0`` measures the end-to-end metrics with tracing off.  Every pass
(round) runs the same cases in the same order.  A case's latency is its
median over the passes of a run; the percentiles are over those latencies,
and throughput is what one closed-loop client gets at them, cases divided by
the sum of their latencies.  Set-up is timed in fresh processes, one after
each pass until there are enough, and reported as the median.

The end-to-end times are given at the reference speed of the host.  On a
shared host a neighbour's load slows every instruction, by up to 1.8x for
minutes at a time on a 2-core VM, which no run length averages away.  So
fixed reference work (``reference_work``) is timed next to the cases, at
least every ``CALIBRATE_EVERY_S``, and the times of a pass (round) are scaled
by ``REFERENCE_WORK_S`` over its median time in that pass; set-up is scaled
by the median factor of the run's passes.  The benchmark and every process it
starts run on one CPU, so the reference work is timed on the CPU that does
the work.  The reference work does not touch qlbench, so a change to qlbench
moves the scaled times as it moves the real ones.  The unscaled figures are
printed too, on a ``#`` line.

``--trace 1`` alternates untraced and traced passes (rounds) over the same
cases, keeps the spans in memory and writes them to ``.bench_out/`` at the
end, and reports self time and calls per layer, counters, set-up phases,
reference kernels and the tracing overhead; these are unscaled.  Other lines
go first; the last line of stdout is the JSON result.

Self-tests: ``python3 -m pytest bench/test_bench.py``.  The baseline at the
commit this benchmark was defined on, and which end-to-end metric each
per-layer metric should move, are in ``bench/baseline.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("quantum-sweep", "logic-sweep", "cli-suite")
CLAIM_CHECK_SEED = 7919     # never used while tuning; rerun claims on it
SETUP_PROBES = 11
WARMUP_CASES = 50
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.1
REFERENCE_WORK_S = 0.0012   # about its least time on the baseline host (2-core Xeon VM)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "throughput_cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
}
SPANS = (
    "hilbert.construct", "stats.sequential_distribution", "stats.born_distribution",
    "stats.commutation_defect", "stats.nondistribution_defect", "stats.joint_exists",
    "hidden.build_qm_equivalent_model", "hidden.exact_sequential", "hidden.audit_no_go",
    "hidden.simulate_sequential", "stats.within_binomial_bound",
    "events.construct", "events.distributes_classical", "events.eq10_trace",
    "events.universe_mismatch_demo", "events.complement_relative",
    "lattice.construct", "lattice.distributes", "lattice.laws", "lattice.check_lattice_axioms",
    "coloring.construct", "coloring.search_bivalent_assignment",
    "config.load_experiment_config", "hidden.load_model", "coloring.load_ray_family",
)
COUNTERS = ("hidden.simulate_sequential.trials", "events.complement_relative.refused",
            "coloring.search.nodes")
CLI_COMMANDS = ("demo-eq5", "demo-eq10", "demo-mismatch", "stats-seq", "stats-commute",
                "stats-joint", "stats-nondist", "hv-build", "hv-exact", "hv-simulate",
                "hv-audit", "ks-search", "lattice-check")
SETUP_PHASES = ("setup.interpreter_s", "setup.numpy_import_s", "setup.qlbench_import_s")
REFERENCE = {
    "ref.distributes_d2_s": "s",
    "ref.sequential_distribution_d4_s": "s",
    "ref.simulate_sequential_1e5_s": "s",
    "ref.ks18_search_s": "s",
    "ref.ks18_search.nodes": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    for command in CLI_COMMANDS:
        units[f"cli.{command}.wall_s"] = "s"
        units[f"cli.{command}.inproc_s"] = "s"
    units.update({name: "s" for name in SETUP_PHASES})
    units.update(REFERENCE)
    units["trace.overhead_ratio"] = "ratio"
    return units


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QLBENCH_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- host speed -------------------------------------------------------------------


def reference_work() -> None:
    """Fixed work in the three kinds qlbench does: interpreter arithmetic,
    building and sorting small objects, and numpy on 6x6 matrices."""
    import numpy as np

    total = 0
    for i in range(5_000):
        total += i * i
    table = {(i, str(i)): frozenset((i, i + 1, i % 7)) for i in range(1_000)}
    sorted(table, key=lambda key: -key[0])
    m = np.arange(36.0).reshape(6, 6) * (1 + 1j) / 36 + np.eye(6)
    for _ in range(10):
        np.linalg.svd(m)
        m @ m.conj().T


def time_reference_work() -> float:
    """Seconds ``reference_work`` takes now, the lesser of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class CalibratedTimes(list):
    """A list of times that also times ``reference_work``, on the first
    append at least ``CALIBRATE_EVERY_S`` after the last timing of it."""

    def __init__(self) -> None:
        super().__init__()
        self.reference_s = [time_reference_work()]
        self._at = time.perf_counter()

    def append(self, seconds: float) -> None:
        super().append(seconds)
        if time.perf_counter() - self._at >= CALIBRATE_EVERY_S:
            self.reference_s.append(time_reference_work())
            self._at = time.perf_counter()

    def scale(self) -> float:
        """The factor that takes these times to the reference speed."""
        return REFERENCE_WORK_S / statistics.median(self.reference_s)


# -- set-up -----------------------------------------------------------------------


def report_setup_marks(workload: str, seed: int) -> None:
    """In the fresh process: print when imports and input generation finished."""
    marks = {"start": T_START, "bench": time.perf_counter()}
    import numpy  # noqa: F401

    marks["numpy"] = time.perf_counter()
    import qlbench  # noqa: F401

    marks["qlbench"] = time.perf_counter()
    if workload == "cli-suite":
        import cli_suite

        cli_suite.make_inputs(seed)
    else:
        sweep_module(workload).make_pool(seed)
    marks["ready"] = time.perf_counter()
    print(json.dumps(marks))


def time_setup(workload: str, seed: int) -> dict[str, float]:
    """Set-up of one fresh process.  ``setup_s`` runs from process launch to
    inputs ready; for cli-suite, to ``import qlbench`` done."""
    launch = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    marks = json.loads(done.stdout.splitlines()[-1])
    return {
        "setup_s": marks["qlbench" if workload == "cli-suite" else "ready"] - launch,
        "setup.interpreter_s": marks["start"] - launch,
        "setup.numpy_import_s": marks["numpy"] - marks["bench"],
        "setup.qlbench_import_s": marks["qlbench"] - marks["numpy"],
    }


def pass_stats(latencies: list[float]) -> dict[str, float]:
    """One closed-loop client's throughput and the latency percentiles."""
    ms = [x * 1e3 for x in latencies]
    return {"throughput_cases_per_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": percentile(ms, 90), "latency_p99_ms": percentile(ms, 99)}


def case_stats(passes: list[list[float]]) -> dict[str, float]:
    """``pass_stats`` over the cases of a pass, each case's latency its
    median over the passes (rounds) of the run."""
    return pass_stats([statistics.median(case) for case in zip(*passes)])


# -- sweeps -------------------------------------------------------------------------


def sweep_module(workload: str):
    if workload == "quantum-sweep":
        import quantum_sweep

        return quantum_sweep
    import logic_sweep

    return logic_sweep


def run_pass(pool, cases, L, counts, latencies, failures, tracer=None) -> None:
    """Run and check each case once; a case that raises or checks wrong fails."""
    for index, (kind, data) in enumerate(pool):
        run, check = cases[kind]
        root = tracer.begin("case") if tracer else None
        start = time.perf_counter()
        try:
            out = run(data, L, counts)
        except Exception:  # a failed case is counted, never fatal to the run
            out = failure = traceback.format_exc()
        else:
            failure = None
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end(root)
        if failure is None:
            try:
                if not check(data, out):
                    failure = "wrong answer"
            except Exception:  # an output the oracle cannot read is wrong
                failure = traceback.format_exc()
        if failure is not None:
            failures.append(f"{kind}[{index}]: {failure}")


def sweep(workload: str, seed: int, seconds: float, trace: bool, between) -> dict:
    from spans import Tracer, bind

    module = sweep_module(workload)
    pool = module.make_pool(seed)
    table = module.layer_table()
    plain = bind(table, None)
    run_pass(pool[:WARMUP_CASES], module.CASES, plain, Counter(), [], [])

    failures: list[str] = []
    latencies: list[float] = []
    if not trace:
        passes = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            times = CalibratedTimes()
            run_pass(pool, module.CASES, plain, Counter(), times, failures)
            latencies += times
            passes.append(times)
            between()
        return {"passes": passes, "latencies": latencies, "failures": failures,
                "inputs": Counter(kind for kind, _ in pool)}

    tracer = Tracer()
    traced = bind(table, tracer)
    plain_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        run_pass(pool, module.CASES, plain, Counter(), latencies, failures)
        plain_s.append(time.perf_counter() - begin)
        first, counts = len(tracer.spans), Counter()
        begin = time.perf_counter()
        run_pass(pool, module.CASES, traced, counts, latencies, failures, tracer)
        traced_s.append(time.perf_counter() - begin)
        passes.append((tracer.self_times(first), counts))
        between()
    layers = layer_metrics(passes, plain_s, traced_s)
    return {"latencies": latencies, "failures": failures,
            "inputs": Counter(kind for kind, _ in pool), "layers": layers, "tracer": tracer}


def layer_metrics(passes, plain_s, traced_s) -> dict:
    """Per pass (round) over the same cases: calls and self seconds per span,
    and counters; the median over passes.  The tracing overhead compares the
    traced and untraced passes' times."""
    metrics = {"trace.overhead_ratio": statistics.median(traced_s) / statistics.median(plain_s) - 1}
    for name in SPANS:
        metrics[f"{name}.calls"] = statistics.median_low(p.get(name, (0, 0.0))[0] for p, _ in passes)
        metrics[f"{name}.self_s"] = statistics.median(p.get(name, (0, 0.0))[1] for p, _ in passes)
    for name in COUNTERS:
        metrics[name] = statistics.median_low(c[name] for _, c in passes)
    return metrics


# -- cli-suite ----------------------------------------------------------------------


@contextlib.contextmanager
def traced_loaders(tracer):
    """Spans around the file loaders that ``cli.main`` calls, while replaying
    commands in-process; the module attributes are restored afterwards."""
    from qlbench import cli, hidden

    patches = [(cli, "load_experiment_config", "config.load_experiment_config"),
               (hidden, "load_model", "hidden.load_model"),
               (cli, "load_ray_family", "coloring.load_ray_family")]
    originals = [getattr(module, attr) for module, attr, _ in patches]
    for (module, attr, name), fn in zip(patches, originals):
        setattr(module, attr, tracer.wrap(name, fn))
    try:
        yield
    finally:
        for (module, attr, _), fn in zip(patches, originals):
            setattr(module, attr, fn)


def replay_inproc(args, workdir) -> None:
    """``cli.main(args)`` in this process, output discarded.  Only its time is
    used; the child process's result is the one that is checked."""
    from qlbench import cli

    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(args)
    except Exception:  # the known --out defect raises here; the child records it
        pass
    finally:
        os.chdir(previous)


def run_round(plan, r, runner, latencies, seen, failures, tracer=None, workdir=None) -> float:
    """One invocation of each plan entry, in order; returns the summed child
    wall time and appends each invocation's to ``latencies``."""
    import cli_suite

    total = 0.0
    for k, invocation in enumerate(plan):
        fmt = cli_suite.FORMATS[(k + r) % len(cli_suite.FORMATS)]
        args = cli_suite.argv(invocation, fmt)
        root = tracer.begin("case") if tracer else None
        span = tracer.begin(f"cli.{invocation.name}.wall") if tracer else None
        start = time.perf_counter()
        try:
            code, out, err = runner(args)
        except (subprocess.SubprocessError, OSError) as exc:
            code, out, err = None, "", f"runner: {exc!r}"
        wall = time.perf_counter() - start
        if tracer:
            tracer.end(span)
            inproc = tracer.begin(f"cli.{invocation.name}.inproc")
            replay_inproc(args, workdir)
            tracer.end(inproc)
            tracer.end(root)
        latencies.append(wall)
        total += wall
        first = seen.setdefault((k, fmt), out)       # the determinism contract
        if not cli_suite.check(invocation, fmt, code, out, err) or first != out:
            failures.append(f"{invocation.name} --format {fmt}: exit {code}\n{err}")
    return total


def cli_workload(seed: int, seconds: float, trace: bool, between) -> dict:
    import cli_suite
    from spans import Tracer

    files, plan = cli_suite.make_inputs(seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-suite-", dir=WORK))
    try:
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        runner = cli_suite.subprocess_runner(sys.executable, child_env(), workdir)
        latencies, seen, failures = [], {}, []
        r = 0
        start = time.perf_counter()
        if not trace:
            passes = []
            while time.perf_counter() - start < seconds:
                times = CalibratedTimes()
                run_round(plan, r, runner, times, seen, failures)
                latencies += times
                passes.append(times)
                between()
                r += 1
            return {"passes": passes, "latencies": latencies, "failures": failures,
                    "inputs": Counter(inv.name for inv in plan)}

        tracer = Tracer()
        plain_s, traced_s, rounds = [], [], []
        with traced_loaders(tracer):
            while not rounds or time.perf_counter() - start < seconds:
                plain_s.append(run_round(plan, r, runner, latencies, seen, failures))
                first = len(tracer.spans)
                traced_s.append(run_round(plan, r + 1, runner, latencies, seen, failures,
                                          tracer, workdir))
                rounds.append((tracer.self_times(first), Counter()))
                between()
                r += 2
        layers = layer_metrics(rounds, plain_s, traced_s)
        for command in CLI_COMMANDS:
            for kind in ("wall", "inproc"):
                layers[f"cli.{command}.{kind}_s"] = statistics.median(
                    end - begin for name, begin, end, _, _ in tracer.spans
                    if name == f"cli.{command}.{kind}"
                )
        return {"latencies": latencies, "failures": failures,
                "inputs": Counter(inv.name for inv in plan), "layers": layers, "tracer": tracer}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- reference kernels ----------------------------------------------------------------


def reference_kernels(seed: int) -> dict:
    """The ROADMAP's reference kernels on fixed-size inputs: median seconds per call."""
    import numpy as np

    from qlbench import coloring, hidden, hilbert, lattice, stats
    from quantum_sweep import gaussian, haar_unitary

    def median_time(fn, reps):
        fn()
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    rng = np.random.default_rng(seed)
    a = lattice.Subspace.ray([1.0, 0.0])
    b = lattice.Subspace.ray([1.0, 1.0])
    c = lattice.orthocomplement(b)
    state4 = hilbert.StateVector.normalized(gaussian(rng, 4))
    first, then = (hilbert.MeasurementBasis.from_vectors(haar_unitary(rng, 4).T) for _ in "ab")
    state2 = hilbert.StateVector.normalized(gaussian(rng, 2))
    model = hidden.build_qm_equivalent_model(
        state2, *(hilbert.MeasurementBasis.from_vectors(haar_unitary(rng, 2).T) for _ in "ab"))
    ks18 = coloring.builtin_family("ks18-d4")
    return {
        "ref.distributes_d2_s": median_time(lambda: lattice.distributes(a, b, c), 200),
        "ref.sequential_distribution_d4_s": median_time(
            lambda: stats.sequential_distribution(state4, first, then), 300),
        "ref.simulate_sequential_1e5_s": median_time(
            lambda: hidden.simulate_sequential(model, ("A", "B"), 100_000, seed), 30),
        "ref.ks18_search_s": median_time(lambda: coloring.search_bivalent_assignment(ks18), 200),
        "ref.ks18_search.nodes": coloring.search_bivalent_assignment(ks18).nodes,
    }


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qlbench benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qlbench" / "__init__.py").is_file():
        print(f"error: no qlbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_probe:
        report_setup_marks(args.workload, args.seed)
        return 0
    import qlbench

    if Path(qlbench.__file__).resolve().parent != SRC / "qlbench":
        print(f"error: imported qlbench from {qlbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"# qlbench benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; claim-check seed {CLAIM_CHECK_SEED}")
    print(f"# machine {json.dumps(machine_info())}")
    probes = []

    def between():
        if len(probes) < SETUP_PROBES:
            probes.append(time_setup(args.workload, args.seed))

    if args.workload == "cli-suite":
        result = cli_workload(args.seed, args.seconds, bool(args.trace), between)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        result = sweep(args.workload, args.seed, args.seconds, bool(args.trace), between)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(probes) < SETUP_PROBES:
        between()
    setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}

    from cli_suite import KNOWN_DEFECTS

    latencies, failures = result["latencies"], result["failures"]
    attempted, failed = len(latencies), len(failures)
    known = sum(f.split(" ", 1)[0] in KNOWN_DEFECTS for f in failures)
    print(f"# inputs per pass (round) {json.dumps(result['inputs'])}")
    print(f"# {attempted} cases, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g} ({known} from known defects)")
    for failure in failures[:5]:
        print("# FAILED " + failure.strip().replace("\n", "\n#   "), file=sys.stderr)

    if args.trace:
        measured = {**result["layers"], **{k: setup[k] for k in SETUP_PHASES},
                    **reference_kernels(args.seed)}
        units = per_layer_units()
        # a layer this workload never calls did no work: 0 calls, 0 seconds
        metrics = {name: measured.get(name, 0) for name in units}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result["tracer"].write(spans_path)
        print(f"# {len(result['tracer'].spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        scales = [p.scale() for p in result["passes"]]
        metrics = {"setup_s": setup["setup_s"] * statistics.median(scales),
                   **case_stats([[x * k for x in p] for p, k in zip(result["passes"], scales)])}
        unscaled = {"setup_s": setup["setup_s"], **case_stats(result["passes"])}
        print("# unscaled " + " ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
        metrics["peak_rss_mb"] = rss_kb / 1024
        metrics["correct_ratio"] = (attempted - failed) / attempted
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")

    print(json.dumps({
        "correct": known == failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child it starts, so the reference
        # work is timed on the CPU that runs the cases, commands and set-up.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
