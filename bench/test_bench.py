"""Self-tests for the benchmark itself (not part of the repository's test suite):

    python3 -m pytest -q bench/test_bench.py

They check that a seed fixes the generated inputs, that every kind of
planted wrong answer is counted as failed, that span self times add up, and
that ``BENCHMARK.json`` lists exactly the metrics the benchmark prints.
"""

import contextlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cli_suite  # noqa: E402
import logic_sweep  # noqa: E402
import quantum_sweep  # noqa: E402
import run  # noqa: E402
from spans import Tracer, bind  # noqa: E402

from qlbench import cli, lattice, stats  # noqa: E402

SWEEPS = (quantum_sweep, logic_sweep)


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("module", SWEEPS)
def test_a_seed_fixes_the_sweep_inputs(module):
    assert same(module.make_pool(3), module.make_pool(3))
    assert not same(module.make_pool(3), module.make_pool(4))


@pytest.mark.parametrize("module", SWEEPS)
def test_the_case_mix_does_not_depend_on_the_seed(module):
    kinds = [Counter(kind for kind, _ in module.make_pool(seed)) for seed in (3, 4)]
    assert kinds[0] == kinds[1]


def _plan_key(plan):
    return [(inv.name, inv.command, inv.args) for inv in plan]


def test_a_seed_fixes_the_cli_inputs():
    (files3, plan3), (again, plan_again), (files4, _) = (
        cli_suite.make_inputs(s) for s in (3, 3, 4))
    assert files3 == again and _plan_key(plan3) == _plan_key(plan_again)
    assert files3 != files4
    assert [inv.command for inv in plan3 if inv.expect] == list(run.CLI_COMMANDS)


def _pass(module, layers, n=None):
    pool = module.make_pool(5)[:n]
    failures = []
    run.run_pass(pool, module.CASES, layers, Counter(), [], failures)
    return pool, failures


@pytest.mark.parametrize("module", SWEEPS)
def test_correct_layers_pass_every_case(module):
    _pool, failures = _pass(module, bind(module.layer_table(), None), 300)
    assert failures == []


def _with(module, **replacements):
    table = module.layer_table()
    for attr, fn in replacements.items():
        table[attr] = (table[attr][0], fn)
    return bind(table, None)


def _move_mass(table, amount):
    entries = table.entries.copy()
    i, j = np.unravel_index(np.argmax(entries), entries.shape)
    entries[i, j] -= amount
    entries[(i + 1) % entries.shape[0], j] += amount
    return stats.SequentialTable(table.first_basis, table.second_basis, entries)


def test_a_perturbed_table_is_counted_failed():
    wrong = _with(quantum_sweep, sequential=lambda *a, **k: _move_mass(
        stats.sequential_distribution(*a, **k), 1e-6))
    pool, failures = _pass(quantum_sweep, wrong, 100)
    assert len(failures) == sum(kind in ("table", "hv") for kind, _ in pool)


def test_a_biased_sampler_is_counted_failed():
    from qlbench import hidden

    wrong = _with(quantum_sweep, simulate=lambda model, order, n, seed: _move_mass(
        hidden.simulate_sequential(model, order, n, seed), 0.2))
    pool, failures = _pass(quantum_sweep, wrong, 100)
    # a 0.2 bias can hide in the noise of 100 trials, never from 1000 trials on
    failed = {int(f.split("[", 1)[1].split("]", 1)[0]) for f in failures}
    assert all(pool[i][0] == "mc" for i in failed)
    assert failed >= {i for i, (kind, c) in enumerate(pool) if kind == "mc" and c.trials >= 1000}


def test_a_flipped_verdict_is_counted_failed():
    def flipped(a, b, c):
        verdict = lattice.distributes(a, b, c)
        return lattice.DistributivityVerdict(verdict.lhs, verdict.rhs, not verdict.distributive)

    pool, failures = _pass(logic_sweep, _with(logic_sweep, distributes=flipped), 200)
    assert len(failures) == sum(kind in ("lat_triple", "lat_witness") for kind, _ in pool)


def test_the_monte_carlo_oracle_accepts_a_correct_sampler_at_small_n():
    # 100 trials of p = 0.001: two hits happen in 0.5% of runs and break a 6-sigma bound.
    assert quantum_sweep.mc_bound(np.array([0.001]), 100)[0] > 2 / 100


# -- cli-suite ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    files, plan = cli_suite.make_inputs(5)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return workdir, plan


def inproc_runner(workdir):
    """``cli.main`` in this process, standing in for the child process."""
    def runner(args):
        out, err = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except Exception as exc:  # what the interpreter would print and exit 1 with
            return 1, out.getvalue(), f"Traceback (most recent call last):\n{exc!r}\n"
        finally:
            os.chdir(previous)
        return code, out.getvalue(), err.getvalue()
    return runner


def _round(plan, runner, rounds=(0,)):
    failures, seen = [], {}
    for r in rounds:
        run.run_round(plan, r, runner, [], seen, failures)
    return sorted({f.split(" ", 1)[0] for f in failures})


def test_cli_outputs_pass_except_the_known_defect(cli_inputs):
    workdir, plan = cli_inputs
    assert _round(plan, inproc_runner(workdir)) == sorted(cli_suite.KNOWN_DEFECTS)


def test_exit_1_where_2_is_expected_is_counted_failed(cli_inputs):
    workdir, plan = cli_inputs
    real = inproc_runner(workdir)

    def runner(args):
        code, out, err = real(args)
        return (1 if code == 2 else code), out, err

    assert "bad-config" in _round(plan, runner)


def test_a_flipped_cli_verdict_is_counted_failed(cli_inputs):
    workdir, plan = cli_inputs
    real = inproc_runner(workdir)

    def runner(args):
        code, out, err = real(args)
        if args[0] == "stats-seq":
            out = out.replace("marginal identity holds", "marginal identity violated")
        return code, out, err

    assert "stats-seq" in _round(plan, runner)


def test_output_that_changes_on_repeat_is_counted_failed(cli_inputs):
    workdir, plan = cli_inputs
    real = inproc_runner(workdir)
    calls = Counter()

    def runner(args):
        code, out, err = real(args)
        calls[args[0]] += 1
        if args[0] == "demo-eq10" and calls[args[0]] > 1:
            out = out.replace("e", "E", 1)                   # leaves the verdict alone
        return code, out, err

    # rounds 0 and 3 give every invocation the same format
    assert "demo-eq10" in _round(plan, runner, rounds=(0, 3))


# -- tracing and the contract --------------------------------------------------------


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    root = tracer.begin("case")
    traced = tracer.wrap("layer", lambda: sum(range(10_000)))
    traced()
    traced()
    tracer.end(root)
    totals = tracer.self_times()
    name, start, end, _, _ = tracer.spans[0]
    assert totals["layer"][0] == 2 and totals["case"][0] == 1
    assert totals["case"][1] + totals["layer"][1] == pytest.approx(end - start, abs=1e-12)
    assert all(span[4] == 0 for span in tracer.spans)    # one case id for the whole tree


def test_a_case_takes_its_median_over_passes_at_the_reference_speed(monkeypatch):
    monkeypatch.setattr(run, "time_reference_work", lambda: 2 * run.REFERENCE_WORK_S)
    times = run.CalibratedTimes()
    for seconds in (0.004, 0.002):
        times.append(seconds)
    assert times.scale() == 0.5                  # a host at half speed
    stats = run.case_stats([[1e-3, 4e-3], [3e-3, 2e-3], [2e-3, 9e-3]])
    assert stats["latency_p50_ms"] == pytest.approx(3.0)     # case medians 2 and 4 ms
    assert stats["throughput_cases_per_s"] == pytest.approx(2 / 6e-3)


def test_benchmark_json_lists_what_the_benchmark_prints():
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_prints_every_metric_of_its_kind(capsys, trace):
    assert run.main(["--workload", "logic-sweep", "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
