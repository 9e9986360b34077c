import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_ray
from qlbench.coloring import parse_ray_family
from qlbench.config import (
    _NUMBER_KINDS,
    ConfigSemanticError,
    ConfigSyntaxError,
    DEFAULT_SEED,
    MAX_SAMPLES,
    MAX_TRIALS,
    Line,
    parse_experiment_config,
)
from qlbench.errors import InvariantViolationError
from qlbench.hilbert import named_state


class TestStateParsing:
    def test_preset(self):
        config = parse_experiment_config("state z+\ncontext x\n")
        assert same_ray(config.state, named_state("z+"))

    def test_amplitude_list(self):
        config = parse_experiment_config("state 0.6 0.8\n")
        assert np.allclose(config.state.amplitudes, [0.6, 0.8])

    def test_complex_amplitudes(self):
        config = parse_experiment_config("state 0.6 0.8j\n")
        assert np.allclose(config.state.amplitudes, [0.6, 0.8j])

    def test_angle_form(self):
        config = parse_experiment_config(f"state angles {math.pi / 2} 0\n")
        assert same_ray(config.state, [2 ** -0.5, 2 ** -0.5])

    def test_non_normalized_is_semantic_error(self):
        with pytest.raises(ConfigSemanticError, match="not normalized"):
            parse_experiment_config("state 1 1\n")

    def test_malformed_amplitude_is_syntax_error(self):
        with pytest.raises(ConfigSyntaxError, match="complex"):
            parse_experiment_config("state 1 oops\n")


class TestContextParsing:
    def test_named_axes(self):
        config = parse_experiment_config("context z\ncontext x\n")
        assert [name for name, _ in config.contexts] == ["z", "x"]

    def test_angles(self):
        config = parse_experiment_config("context angles 1.5707963267948966 0\n")
        name, basis = config.contexts[0]
        assert name.startswith("dir(")
        assert basis.dim == 2

    def test_explicit_vectors(self):
        config = parse_experiment_config("context vectors 1 0 ; 0 1\n")
        _, basis = config.contexts[0]
        assert basis.dim == 2

    def test_non_orthogonal_vectors_are_semantic_error(self):
        with pytest.raises(ConfigSemanticError, match="vectors invalid"):
            parse_experiment_config("context vectors 1 0 ; 1 1\n")

    def test_unknown_axis_is_syntax_error(self):
        with pytest.raises(ConfigSyntaxError):
            parse_experiment_config("context w\n")


class TestUniversesAndAtoms:
    def test_universes(self):
        config = parse_experiment_config("universe left l1 l2\nuniverse right r1 r2\n")
        assert [u.name for u in config.universes] == ["left", "right"]
        assert config.universes[0].outcomes == ("l1", "l2")

    def test_duplicate_labels_across_universes(self):
        with pytest.raises(ConfigSemanticError, match="already used"):
            parse_experiment_config("universe left x\nuniverse right x\n")

    def test_atoms(self):
        config = parse_experiment_config("atoms a b\n")
        assert config.atoms == ("a", "b")

    def test_atoms_arity(self):
        with pytest.raises(ConfigSyntaxError):
            parse_experiment_config("atoms a\n")


class TestRunParameters:
    def test_defaults(self):
        config = parse_experiment_config("")
        assert config.trials == 100_000
        assert config.seed == DEFAULT_SEED == 0xC0FFEE
        assert config.tol == 1e-9
        assert config.target == 0
        assert config.samples == 200
        assert (config.state, config.contexts, config.universes, config.atoms) == (
            None, (), (), None)
        assert (config.family, config.model) == (None, None)

    def test_overrides(self):
        text = "trials 500\nseed 0x2A\ntol 1e-6\ntarget 1\nsamples 50\n"
        config = parse_experiment_config(text)
        assert config.trials == 500
        assert config.seed == 42
        assert config.tol == 1e-6
        assert config.target == 1
        assert config.samples == 50

    def test_paths(self):
        config = parse_experiment_config("family builtin:triads-d3\nmodel /tmp/m.txt\n")
        assert config.family == "builtin:triads-d3"
        assert config.model == "/tmp/m.txt"

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ConfigSemanticError):
            parse_experiment_config("trials 0\n")


class TestErrorReporting:
    def test_unknown_key_location(self):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_experiment_config("state z+\n  frobnicate 3\n")
        assert info.value.line == 2
        assert info.value.column == 3
        assert "frobnicate" in str(info.value)

    def test_malformed_number_location(self):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_experiment_config("seed abc\n")
        assert info.value.line == 1
        assert info.value.column == 6

    def test_comments_and_blank_lines_ignored(self):
        config = parse_experiment_config("# a comment\n\nstate z+  # trailing\n")
        assert config.state is not None


class TestSettingBounds:
    """``1 <= trials <= 2**63 - 1``, ``1 <= samples <= 10_000`` and a finite,
    positive ``tol``; the same bounds hold for the command-line flags (see
    test_cli.py)."""

    @pytest.mark.parametrize("key, text, value", [
        ("trials", "1", 1),
        ("trials", str(MAX_TRIALS), 2 ** 63 - 1),
        ("samples", "1", 1),
        ("samples", str(MAX_SAMPLES), 10_000),
        ("tol", "5e-324", 5e-324),
        ("tol", "1.7976931348623157e308", 1.7976931348623157e308),
    ])
    def test_accepted_at_the_bound(self, key, text, value):
        assert getattr(parse_experiment_config(f"{key} {text}\n"), key) == value

    @pytest.mark.parametrize("key, text, error, message", [
        ("trials", "0", ConfigSemanticError, "trials must be positive"),
        ("trials", str(MAX_TRIALS + 1), ConfigSemanticError,
         "trials must be at most 9223372036854775807"),
        ("trials", "100000000000000000000", ConfigSemanticError,
         "trials must be at most 9223372036854775807"),
        ("samples", "0", ConfigSemanticError, "samples must be positive"),
        ("samples", str(MAX_SAMPLES + 1), ConfigSemanticError, "samples must be at most 10000"),
        ("tol", "0", ConfigSemanticError, "tol must be positive"),
        ("tol", "-1", ConfigSemanticError, "tol must be positive"),
        ("tol", "nan", ConfigSyntaxError, "non-finite number 'nan'"),
        ("tol", "inf", ConfigSyntaxError, "non-finite number 'inf'"),
        ("tol", "1e999", ConfigSyntaxError, "non-finite number '1e999'"),
    ])
    def test_rejected_past_the_bound(self, key, text, error, message):
        with pytest.raises(error) as info:
            parse_experiment_config(f"{key} {text}\n")
        column = len(key) + 2
        assert str(info.value) == f"line 1, column {column}: {message}"


class TestSharedReader:
    def test_errors_are_invariant_violations(self):
        with pytest.raises(InvariantViolationError):
            parse_experiment_config("state 1 1\n")

    def test_ray_family_errors_are_located(self):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_ray_family("dim 3\n# comment\nray 1 0 0\n ray 0  x 0\n")
        assert str(info.value) == "ray-family line 4, column 9: malformed complex number 'x'"

    @pytest.mark.parametrize("text, message", [
        ("ray 1 0 0\n", "line 1, column 1: 'dim' must come before 'ray'"),
        ("dim 3 4\n", "line 1, column 5: expected one integer"),
        ("dim 3\nray 1 nan 0\n", "line 2, column 7: non-finite complex number 'nan'"),
        ("dim 3\nbasis 0 1 two\n", "line 2, column 11: malformed integer 'two'"),
        ("dim 3\nbeam 0\n", "line 2, column 1: unknown key 'beam'"),
    ])
    def test_ray_family_syntax(self, text, message):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_ray_family(text)
        assert str(info.value) == f"ray-family {message}"

    def test_ray_family_dim_given_once(self):
        with pytest.raises(ConfigSemanticError) as info:
            parse_ray_family("dim 3\nray 1 0 0\ndim 4\n")
        assert str(info.value) == "ray-family line 3, column 1: 'dim' already given"

    def test_integers_take_base_prefixes_everywhere(self):
        family = parse_ray_family("dim 0x3\nray 1 0 0\nray 0 1 0\nray 0 0 1\nbasis 0 0b1 0o2\n")
        assert family.bases == ((0, 1, 2),)

    def test_non_finite_amplitude_is_syntax_error(self):
        with pytest.raises(ConfigSyntaxError, match="column 9: non-finite complex number 'nan'"):
            parse_experiment_config("state 1 nan\n")

    def test_repeated_token_columns(self):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_experiment_config("context vectors 1 1 ; 11 1x\n")
        assert (info.value.line, info.value.column) == (1, 26)


def two_path_numbers(line: Line, kind: type, start: int = 1, stop: int | None = None) -> list:
    """Oracle: ``Line.numbers`` as it was with a fast path.  The whole window
    converts in one ``map`` and is checked finite in one ``all``; only when
    that fails are the tokens walked with ``Line.number``, which raises at the
    first bad one."""
    convert, _ = _NUMBER_KINDS[kind]
    try:
        values = list(map(convert, line.tokens[start:stop]))
        if kind is int or all(map(cmath.isfinite, values)):
            return values
    except ValueError:
        pass
    for index in range(start, len(line.tokens) if stop is None else stop):
        line.number(kind, index)  # raises at the first bad token
    raise AssertionError("unreachable")


def read_or_refused(read, line: Line, kind: type, start: int, stop: int | None):
    """Each value's type and repr, or the refusal's class, text and column."""
    try:
        values = read(line, kind, start, stop)
    except ConfigSyntaxError as exc:
        return type(exc), str(exc), exc.column
    return [(type(v), repr(v)) for v in values]


# Tokens of every kind a number line holds: base-prefixed and plain integers,
# floats and complex literals in repr form, the non-finite spellings, and
# malformed text.
number_tokens = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).flatmap(
        lambda i: st.sampled_from([str(i), hex(i), oct(i), bin(i)])),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(repr).map(
        lambda text: text.replace(" ", "")),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "nanj", "infj", "1e999j",
                     "(1+nanj)", "1_0", "0x1_f", "1.5", "2j", "1e-320"]),
    st.sampled_from(["x", "1x", "0x", "0b2", "1..2", "(1+", "1+2", "j", "--1", "1e", ";", "0o9",
                     "_1", "+-1"]),
)


@st.composite
def number_lines(draw):
    """A line of a key and up to twelve number tokens, spaced at random, and a
    window of it: ``start`` from 0 to the end, ``stop`` None or at least ``start``."""
    tokens = ["key"] + draw(st.lists(number_tokens, max_size=12))
    gaps = draw(st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=len(tokens),
                         max_size=len(tokens)))
    text = "".join(gap + token for gap, token in zip(gaps, tokens))
    start = draw(st.integers(0, len(tokens)))
    stop = draw(st.one_of(st.none(), st.integers(start, len(tokens))))
    return Line("", 1, text, text.split()), start, stop


class TestNumbersAgainstTwoPathReader:
    """``Line.numbers`` reads token by token through ``Line.number``; the
    two-path form it replaced gives the same values or the same refusal."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=number_lines(), kind=st.sampled_from([int, float, complex]))
    def test_same_values_or_the_same_refusal(self, case, kind):
        line, start, stop = case
        assert (read_or_refused(Line.numbers, line, kind, start, stop)
                == read_or_refused(two_path_numbers, line, kind, start, stop))

    @pytest.mark.parametrize("text, kind, read", [
        ("key 1 2 0x1f", int, ["1", "2", "31"]),
        ("key " + " ".join(map(str, range(40))), float, [repr(float(i)) for i in range(40)]),
        ("key 1 nan x", float, "line 1, column 7: non-finite number 'nan'"),
        ("key 1 x nan", complex, "line 1, column 7: malformed complex number 'x'"),
        ("key 1e999 2", float, "line 1, column 5: non-finite number '1e999'"),
        ("key 0b1 1.5", int, "line 1, column 9: malformed integer '1.5'"),
    ], ids=["integers", "forty", "nan-first", "malformed-first", "overflow", "float-as-int"])
    def test_values_or_the_first_bad_token(self, text, kind, read):
        line = Line("", 1, text, text.split())
        got = read_or_refused(Line.numbers, line, kind, 1, None)
        assert got == read_or_refused(two_path_numbers, line, kind, 1, None)
        assert ([text for _, text in got] if isinstance(got, list) else got[1]) == read
