import math

import numpy as np
import pytest

from qlbench.coloring import parse_ray_family
from qlbench.config import (
    ConfigSemanticError,
    ConfigSyntaxError,
    DEFAULT_SEED,
    MAX_SAMPLES,
    MAX_TRIALS,
    parse_experiment_config,
)
from qlbench.errors import InvariantViolationError
from qlbench.hilbert import named_state, same_ray


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
