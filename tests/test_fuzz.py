"""Fuzz tests (derandomized) for the three line-format parsers and the CLI.

Any text given to a parser yields a value or a ``QLBenchError``; any argv
given to ``cli.main`` returns exit code 0, 1 or 2, or stops in argparse with
``SystemExit(2)``, and never raises anything else.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlbench.cli import COMMANDS, main
from qlbench.coloring import parse_ray_family
from qlbench.config import MAX_SAMPLES, parse_experiment_config
from qlbench.errors import QLBenchError
from qlbench.hidden import parse_model

# Keys and values of all three formats, so generated lines reach the handlers.
WORDS = (
    "state", "context", "universe", "atoms", "trials", "seed", "tol", "target", "samples",
    "family", "model", "model-dim", "member", "kernel", "dim", "ray", "basis",
    "labels", "vectors", "rows", "weight", "angles", ";", "#", "z", "x", "y", "z+", "x-",
    "A", "B", "A=0", "B=1", "A=x", "=", "0", "1", "2", "3", "4", "-1", "0.5", "0.25", "1j",
    "0.6", "0.8", "-0.5j", "0x10", "1e-12", "1e308", "1e999", "nan", "inf", "(1+2j)", "1_0",
    "builtin:ks18-d4", "builtin:triads-d3", "9223372036854775808",
)

ZX_MODEL = (
    "model-dim 2\n"
    "context z labels z+ z- vectors 1 0 ; 0 1\n"
    "context x labels x+ x- vectors 1 1 ; 1 -1\n"
    "member z=0 x=0 weight 0.5\nmember z=0 x=1 weight 0.5\n"
    "member z=1 x=0 weight 0.0\nmember z=1 x=1 weight 0.0\n"
    "kernel z x rows 0.5 0.5 ; 0.5 0.5\nkernel x z rows 1 0 ; 1 0\n"
)
ONE_CONTEXT_MODEL = "model-dim 2\ncontext z labels z+ z- vectors 1 0 ; 0 1\nmember z=0 weight 1\n"
TRIADS = "dim 3\nray 1 0 0\nray 0 1 0\nray 0 0 1\nray 1 1 0\nray 1 -1 0\nbasis 0 1 2\nbasis 3 4 2\n"
CONFIG = "state 0.6 0.8\ncontext z\ncontext vectors 1 1 ; 1 -1\nuniverse u a b\natoms a b\ntrials 5\n"


def edit(text: str, edits) -> str:
    """``text`` with some space-separated pieces replaced by words."""
    pieces = text.split(" ")
    for index, word in edits:
        pieces[index % len(pieces)] = word
    return " ".join(pieces)


line_text = st.lists(st.sampled_from(WORDS), max_size=9).map(" ".join)
file_text = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(line_text, st.text(max_size=20)), max_size=10).map("\n".join),
    st.builds(edit, st.sampled_from([ZX_MODEL, TRIADS, CONFIG]),
              st.lists(st.tuples(st.integers(0, 99), st.sampled_from(WORDS)), max_size=3)),
)


@pytest.mark.parametrize("parse", [parse_experiment_config, parse_model, parse_ray_family])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=file_text)
def test_parsers_give_a_value_or_a_qlbench_error(parse, text):
    try:
        parse(text)
    except QLBenchError:
        pass


# A ``dim`` or ``model-dim`` line whose value is negative, zero or wider than
# any array, alone or ahead of the rest of a family, a model or random lines.
DIMENSIONS = ("-1", "0", "3", "99999999999999999999")
dimension_text = st.builds(
    "{} {}\n{}".format, st.sampled_from(["dim", "model-dim"]), st.sampled_from(DIMENSIONS),
    st.one_of(st.sampled_from(["", TRIADS.split("\n", 1)[1], ZX_MODEL.split("\n", 1)[1]]),
              st.lists(line_text, max_size=4).map("\n".join)),
)


@pytest.mark.parametrize("parse", [parse_experiment_config, parse_model, parse_ray_family])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=dimension_text)
@example(text="dim -1\n")
@example(text="dim 0\n")
@example(text="dim 99999999999999999999\n")
@example(text="model-dim -1\n")
@example(text="model-dim 99999999999999999999\n" + ZX_MODEL.split("\n", 1)[1])
def test_dimension_words_give_a_value_or_a_qlbench_error(parse, text):
    try:
        parse(text)
    except QLBenchError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in {"zx.model": ZX_MODEL, "one.model": ONE_CONTEXT_MODEL,
                       "t.rays": TRIADS, "bad.rays": "dim 3\nray 1 0\n"}.items():
        (root / name).write_text(text)
    return root


def config_lines(root):
    paths = [str(root / name) for name in ("zx.model", "one.model", "t.rays", "bad.rays")]
    value = st.sampled_from(["0", "1", "2", "5", "-1", "0x2", "1e-9", "0.5", "nan", "x",
                             "9223372036854775808"])
    return st.one_of(
        st.sampled_from([
            "state z+", "state x-", "state 0.6 0.8", "state 0.6 0.8j", "state 1 1",
            "state 0.6 0.8 0", "state angles 1.1 0.3", "context z", "context x", "context y",
            "context angles 0 0", "context vectors 1 0 ; 0 1", "context vectors 1 0 0 ; 0 1 0",
            "context vectors 1 0 ; 1 1", "context vectors 1e-200 0 ; 0 1e-200",
            "context vectors 1e200 0 ; 0 1e200", "context vectors 1e-310 1e-310 ; 1e-310 -1e-310",
            "state 1e-310 1e-310j", "universe u a b c", "universe v d e", "universe w a",
            "atoms a b", "atoms a d", "atoms q r", "family builtin:ks18-d4",
            "family builtin:triads-d3", "family builtin:none", "family /missing.rays",
            "model /missing.model",
        ]),
        st.sampled_from([f"family {p}" for p in paths] + [f"model {p}" for p in paths]),
        st.builds("{} {}".format, st.sampled_from(["trials", "seed", "tol", "target"]), value),
        # past MAX_SAMPLES a value is refused; below it only small ones run
        st.builds("samples {}".format, st.one_of(st.integers(-1, 5),
                                                 st.integers(MAX_SAMPLES + 1, 2 ** 64))),
    )


# ``--out`` is left out: cli.main writes the --out file after its error
# handling, so writing into a missing directory still ends in a traceback, a
# known defect that the benchmark's cli-suite counts, to be mended with it.
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2(files, data):
    lines = data.draw(st.lists(config_lines(files), max_size=6))
    config = files / "fuzz.cfg"
    config.write_text("samples 3\n" + "\n".join(lines) + "\n")
    # the config may be empty; it keeps lattice-check's samples small
    argv = [data.draw(st.sampled_from(sorted(COMMANDS))), "--config", str(config)]
    for flag, values in (("--format", ["text", "csv", "json", "xml"]),
                         ("--seed", ["0", "7", "0x10", "-1", "x"]),
                         ("--trials", ["1", "100", "0", "-5", "1e3", "0x10", "zz", "9223372036854775808"]),
                         ("--tol", ["1e-9", "0.3", "0", "-1", "nan", "inf"])):
        if data.draw(st.booleans()):
            argv += [flag, data.draw(st.sampled_from(values))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2  # argparse rejected the flags
        else:
            assert code in (0, 1, 2)
