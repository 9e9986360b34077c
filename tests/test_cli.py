import json
from unittest import mock

import numpy as np
import pytest

from conftest import gram_tilted_frame, hadamard_frame
from qlbench import cli, coloring, hidden, stats
from qlbench.cli import main
from qlbench.hidden import AGREEMENT_TOL, load_model
from qlbench.hilbert import BASIS_TOL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemoCommands:
    def test_nondistributivity_witness(self, capsys):
        code, out, _ = run(capsys, "demo-eq5")
        assert code == 0
        assert "nondistributive" in out
        assert "dim        1" in out or "dim" in out
        assert "Eq (5)" in out

    def test_nondistributivity_witness_factorizes_six_times(self, capsys, monkeypatch):
        # three for the rays a, b and c = b', one each for b ∨ c, a ∧ b and
        # a ∧ c; a ∧ (b ∨ c), with b ∨ c full, is a by rank
        svd = mock.Mock(wraps=np.linalg.svd)
        monkeypatch.setattr(np.linalg, "svd", svd)
        code, out, _ = run(capsys, "demo-eq5")
        assert (code, out.splitlines()[-1]) == (0, "verdict: nondistributive")
        assert svd.call_count == 6

    def test_distributive_configuration_is_a_negative_verdict(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("state z+\ncontext z\n")  # b collinear with a
        code, out, _ = run(capsys, "demo-eq5", "--config", str(config))
        assert code == 1
        assert "verdict: distributive" in out

    def test_complement_chain(self, capsys):
        code, out, _ = run(capsys, "demo-eq10")
        assert code == 0
        assert "distributive, a = a" in out

    def test_complement_chain_custom_space(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("universe spin u1 u2 u3\natoms u2 u3\n")
        code, out, _ = run(capsys, "demo-eq10", "--config", str(config))
        assert code == 0
        assert "{u2}" in out

    def test_complement_chain_needs_two_labels(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("universe w a\n")
        assert run(capsys, "demo-eq10", "--config", str(config)) == (
            2, "", "error: the Eq (10) trace needs 'atoms' or two outcome labels\n")

    def test_mismatch_demo(self, capsys):
        code, out, _ = run(capsys, "demo-mismatch")
        assert code == 0
        assert "inequality manufactured by complement-universe mismatch" in out
        assert "coerced" in out


class TestStatsCommands:
    def test_sequential_tables(self, capsys):
        code, out, _ = run(capsys, "stats-seq")
        assert code == 0
        assert "marginal identity holds" in out

    def test_commutation_defect(self, capsys):
        code, out, _ = run(capsys, "stats-commute")
        assert code == 0
        assert "defect      0.25" in out.replace("defect  ", "defect ") or "0.25" in out

    def test_joint_nonexistence_is_exit_one(self, capsys):
        code, out, _ = run(capsys, "stats-joint")
        assert code == 1
        assert "no joint distribution" in out

    def test_joint_exists_for_commuting_contexts(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("state z+\ncontext z\ncontext z\n")
        code, out, _ = run(capsys, "stats-joint", "--config", str(config))
        assert code == 0
        assert "joint distribution exists" in out

    def test_nondistribution_defect(self, capsys):
        code, out, _ = run(capsys, "stats-nondist")
        assert code == 0
        assert "0.5" in out

    # the lattice verdict (Eq. 5) and the probability verdict (Eq. 9) come apart both ways
    @pytest.mark.parametrize("config, lattice, probability", [
        ("state y+\ncontext x\ncontext z\ntarget 0\n",
         (0, "nondistributive"), (0, "distributive within tol", 1.11022302463e-16)),
        ("state 0 0.7071067811865476 0.7071067811865476\n"
         "context vectors 1 1 1 ; 1 -1 0 ; 1 1 -2\ncontext vectors 1 0 0 ; 0 1 0 ; 0 0 1\n"
         "target 0\n",
         (1, "distributive"), (0, "nondistributive (defect 0.333333333333 > tol)", 0.333333333333)),
    ], ids=["y-plus", "d3"])
    def test_the_two_relations_disagree(self, capsys, tmp_path, config, lattice, probability):
        path = tmp_path / "exp.cfg"
        path.write_text(config)
        code, out, _ = run(capsys, "demo-eq5", "--config", str(path), "--format", "json")
        assert (code, json.loads(out)["verdict"]) == lattice
        code, out, _ = run(capsys, "stats-nondist", "--config", str(path), "--format", "json")
        report = json.loads(out)
        assert (code, report["verdict"], report["fields"]["defect"]) == probability

    @pytest.mark.parametrize("scale", ["1e-200", "1e200", "1e-310"])
    def test_contexts_of_any_finite_magnitude(self, capsys, tmp_path, scale):
        config = tmp_path / "exp.cfg"
        config.write_text(f"context vectors {scale} 0 ; 0 {scale}\ncontext x\n")
        code, out, err = run(capsys, "stats-seq", "--config", str(config))
        assert (code, err) == (0, "")
        # each x row of z+ is 0.5000000000000001: the row sum misses 1 by one ulp
        assert "marginal identity max gap  2.22044604925e-16\n" in out

    def test_single_context_is_input_error(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("context x\n")
        code, _, err = run(capsys, "stats-seq", "--config", str(config))
        assert code == 2
        assert "two contexts" in err

    @pytest.mark.parametrize("command", ["stats-seq", "stats-commute", "stats-joint",
                                         "stats-nondist", "hv-build", "hv-exact",
                                         "hv-simulate", "hv-audit"])
    def test_one_context_is_refused_before_the_dimension_check(self, capsys, tmp_path, command):
        config = tmp_path / "exp.cfg"
        config.write_text("state 0.6 0.8 0\ncontext x\n")  # a 3-dim state, a 2-dim context
        assert run(capsys, command, "--config", str(config)) == (
            2, "", "error: this command needs two contexts (got 1)\n")

    def test_marginal_past_one_is_stored_as_one(self, capsys, tmp_path):
        # the state is the first ray of an exact d = 8 basis and the top direction
        # of a basis at 0.99 BASIS_TOL, so its row of the table sums to 1 + 6.9e-10
        def vectors(frame):
            return " ; ".join(" ".join(map(repr, column)) for column in frame.T.tolist())
        config = tmp_path / "exp.cfg"
        config.write_text(f"state {' '.join([repr(8 ** -0.5)] * 8)}\n"
                          f"context vectors {vectors(hadamard_frame(8))}\n"
                          f"context vectors {vectors(gram_tilted_frame(8, 0.99))}\n")
        code, out, err = run(capsys, "stats-seq", "--config", str(config))
        assert (code, err) == (0, "")
        assert out.endswith("verdict: marginal identity holds\n")

    # the state on Hadamard column k, then a basis at 0.99 BASIS_TOL: column 0 is its
    # top direction (row sum 1 + 6.9e-10), column 1 is not (row sum 1 - 9.9e-11)
    @pytest.mark.parametrize("column, row_sum, gap", [(0, 1.00000000069, 6.93000323793e-10),
                                                      (1, 0.999999999901, 9.89992532396e-11)])
    def test_marginal_gap_reads_both_sides_of_one(self, capsys, tmp_path, column, row_sum, gap):
        def vectors(frame):
            return " ; ".join(" ".join(map(repr, column)) for column in frame.T.tolist())
        hadamard = hadamard_frame(8)
        config = tmp_path / "exp.cfg"
        config.write_text(f"state {' '.join(map(repr, hadamard[:, column].tolist()))}\n"
                          f"context vectors {vectors(hadamard)}\n"
                          f"context vectors {vectors(gram_tilted_frame(8, 0.99))}\n"
                          "tol 1e-11\n")
        code, out, err = run(capsys, "stats-seq", "--config", str(config), "--format", "json")
        report = json.loads(out)
        rows = report["tables"][-1]["rows"]
        assert (code, err, report["verdict"]) == (1, "", "marginal identity violated")
        assert (rows[column][1], report["fields"]["marginal identity max gap"]) == (row_sum, gap)
        # the printed row sums give the gap, up to their rounding to 12 digits
        assert abs(max(abs(sums - direct) for _, sums, direct in rows) - gap) <= 1e-11


class TestHiddenVariableCommands:
    def test_build_and_replay(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        code, out, _ = run(capsys, "hv-build", "--out", str(model_path))
        assert code == 0
        assert "value-definite" in out
        model = load_model(model_path)
        assert tuple(model.contexts) == ("z", "x")

        replay = tmp_path / "replay.cfg"
        replay.write_text(f"model {model_path}\n")
        code, out, _ = run(capsys, "hv-exact", "--config", str(replay))
        assert code == 0
        assert "exact tables computed" in out

    @pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 1)])
    def test_exact_tables_agree_with_the_direct_chain_at_agreement_tol(
            self, capsys, monkeypatch, factor, code):
        # the direct chain's tables, with one row planted factor × AGREEMENT_TOL off
        direct = stats.sequential_distribution

        def planted(state, first, then):
            entries = direct(state, first, then).entries.copy()
            entries[0] += [factor * AGREEMENT_TOL, -factor * AGREEMENT_TOL]
            return stats.SequentialTable(first, then, entries)

        monkeypatch.setattr(stats, "sequential_distribution", planted)
        got, out, _ = run(capsys, "hv-exact")
        assert got == code
        assert ("MISMATCH vs direct chain" in out) == (code == 1)

    THREE_OUTCOME_CONTEXTS = (
        "context A labels a0 a1 a2 vectors 1 0 0 ; 0 1 0 ; 0 0 1\n"
        "context B labels b0 b1 b2 vectors 0 1 0 ; 1 0 0 ; 0 0 1\n"
        "member A=0 B=1 weight 1.0\n"
    )

    @pytest.mark.parametrize("command", ["hv-build", "hv-exact", "hv-simulate"])
    @pytest.mark.parametrize("model_text, located", [
        # 2x2 kernels for two 3-outcome contexts
        ("model-dim 3\n" + THREE_OUTCOME_CONTEXTS
         + "kernel A B rows 0.5 0.5 ; 0.5 0.5\nkernel B A rows 0.5 0.5 ; 0.5 0.5\n",
         "model line 5, column 8: kernel A B rows have shape (2, 2), expected (3, 3)"),
        # a kernel row per outcome, but 2 entries for a 3-outcome destination
        ("model-dim 3\n" + THREE_OUTCOME_CONTEXTS
         + "kernel A B rows 1 0 0 ; 0 1 0 ; 0 0 1\nkernel B A rows 1 0 ; 0 1 ; 1 0\n",
         "model line 6, column 8: kernel B A rows have shape (3, 2), expected (3, 3)"),
        ("model-dim 3\n" + THREE_OUTCOME_CONTEXTS + "kernel A C rows 1 0 0 ; 0 1 0 ; 0 0 1\n",
         "model line 5, column 8: kernel references an undeclared context 'C'"),
        ("model-dim 2\n" + THREE_OUTCOME_CONTEXTS,
         "model line 2, column 9: context 'A' has vectors of length 3, but model-dim is 2"),
        (THREE_OUTCOME_CONTEXTS + "model-dim 4\n",
         "model line 1, column 9: context 'A' has vectors of length 3, but model-dim is 4"),
    ], ids=["square-kernel-too-small", "short-kernel-rows", "undeclared-context",
            "model-dim-too-small", "model-dim-too-large"])
    def test_inconsistent_model_is_a_located_error(self, capsys, tmp_path, command,
                                                   model_text, located):
        model_path = tmp_path / "model.txt"
        model_path.write_text(model_text)
        config = tmp_path / "replay.cfg"
        config.write_text(f"model {model_path}\n")
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and located in err
        assert "Traceback" not in err

    ONE_CONTEXT = "model-dim 2\ncontext z labels z+ z- vectors 1 0 ; 0 1\nmember z=0 weight 1\n"
    ZX_CONTEXTS = ("model-dim 2\ncontext z labels z+ z- vectors 1 0 ; 0 1\n"
                   "context x labels x+ x- vectors 1 1 ; 1 -1\n")
    ZX = (ZX_CONTEXTS + "member z=0 x=0 weight 0.5\nmember z=0 x=1 weight 0.5\n"
          "kernel z x rows 0.5 0.5 ; 0.5 0.5\n")

    @pytest.mark.parametrize("command", ["hv-build", "hv-exact", "hv-simulate"])
    @pytest.mark.parametrize("model_text, located", [
        (ONE_CONTEXT, "model line 2, column 9: a model declares exactly two contexts, this one 1"),
        (ZX + "context z labels u d vectors 1 0 ; 0 1\n",
         "model line 7, column 9: context 'z' already declared on line 2"),
        (ZX + "kernel z x rows 1 0 ; 0 1\n",
         "model line 7, column 8: kernel z x already declared on line 6"),
        (ZX_CONTEXTS + "member z=0 q=0 weight 1\n",
         "model line 4, column 12: context 'q' not declared"),
        (ZX_CONTEXTS + "member z=0 x=0 q=7 weight 1\n",
         "model line 4, column 16: context 'q' not declared"),
        (ZX_CONTEXTS + "member z=0 z=1 x=0 weight 1\n",
         "model line 4, column 12: context 'z' already given at column 8"),
        (ZX_CONTEXTS + "member z=5 x=0 weight 1\n",
         "model line 4, column 8: outcome 5 out of range for context 'z', which has 2"),
        (ZX_CONTEXTS + "member x=1 weight 1\n",
         "model line 4, column 12: no value for context 'z'"),
        (ZX_CONTEXTS + "member z=0 x=0 weight 1.5\nmember z=1 x=0 weight -0.5\n",
         "model line 5, column 23: weight -0.5 is not a nonnegative number"),
        (ZX_CONTEXTS + "member z=0 x=0 weight 0.5\nmember z=1 x=0 weight nan\n",
         "model line 5, column 23: non-finite number 'nan'"),
        (ZX_CONTEXTS + "member z=0 x=0 weight 1\nmember  z=1 x=0 weight 1\n",
         "model line 5, column 24: weights sum to 2.0, not 1"),
    ], ids=["one-context", "repeated-context", "repeated-kernel", "member-context-missing",
            "member-context-undeclared", "member-context-repeated", "member-outcome-out-of-range",
            "member-context-omitted", "negative-weight", "nan-weight", "weight-total"])
    def test_model_context_checks(self, capsys, tmp_path, command, model_text, located):
        model_path = tmp_path / "model.txt"
        model_path.write_text(model_text)
        config = tmp_path / "replay.cfg"
        config.write_text(f"model {model_path}\n")
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {located}\n"

    # the model of state z+ on contexts z and z, its zero weights and kernel
    # entries written -0.0: chain_rule then gives -0.0 entries
    MINUS_ZERO_MODEL = (
        "model-dim 2\n"
        "context z labels z+ z- vectors 1.0 -0.0 ; -0.0 1.0\n"
        "context basis1 labels 0 1 vectors 1.0 -0.0 ; -0.0 1.0\n"
        "member z=0 basis1=0 weight 1.0\n"
        "member z=0 basis1=1 weight -0.0\n"
        "member z=1 basis1=0 weight -0.0\n"
        "member z=1 basis1=1 weight -0.0\n"
        "kernel z basis1 rows 1.0 -0.0 ; -0.0 1.0\n"
        "kernel basis1 z rows 1.0 -0.0 ; -0.0 1.0\n"
    )

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_minus_zero_model_prints_no_minus_zero(self, capsys, tmp_path, fmt):
        (tmp_path / "m.model").write_text(self.MINUS_ZERO_MODEL)
        (tmp_path / "exp.cfg").write_text(f"model {tmp_path / 'm.model'}\n")
        code, out, err = run(capsys, "hv-exact", "--config", str(tmp_path / "exp.cfg"),
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert "exact tables computed" in out
        assert "-0" not in out

    def test_exact_matches_direct_chain(self, capsys):
        code, out, _ = run(capsys, "hv-exact")
        assert code == 0
        assert "max gap to direct-chain statistics" in out

    def test_simulate(self, capsys):
        code, out, _ = run(capsys, "hv-simulate", "--trials", "20000")
        assert code == 0
        assert "within the 4σ binomial bound" in out

    def test_audit(self, capsys):
        code, out, _ = run(capsys, "hv-audit")
        assert code == 0
        assert "chain broken at 'distributive ⇒ commutative'" in out

    def test_audit_rejects_a_model_file(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        assert run(capsys, "hv-build", "--out", str(model_path))[0] == 0
        config = tmp_path / "replay.cfg"
        config.write_text(f"model {model_path}\n")
        code, out, err = run(capsys, "hv-audit", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == ("error: hv-audit needs a state and two contexts; "
                       "a model file has no state\n")

    def test_audit_compatible_contexts(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("context z\ncontext angles 0 0\n")
        code, out, _ = run(capsys, "hv-audit", "--config", str(config))
        assert code == 0
        assert "not exercised" in out


class TestSearchCommands:
    def test_uncolorable_family_is_exit_one(self, capsys):
        code, out, _ = run(capsys, "ks-search")
        assert code == 1
        assert "proved-none" in out

    def test_colorable_family_is_exit_zero(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("family builtin:triads-d3\n")
        code, out, _ = run(capsys, "ks-search", "--config", str(config))
        assert code == 0
        assert "assignment found" in out

    TRIAD = "dim 3\nray 1 0 0\nray 0 1 0\nray 0 0 1\n"

    @pytest.mark.parametrize("family_text, located", [
        ("dim 3\nray 1 0 0\nray 1 1 0\nray 0 0 1\nbasis 0 1 2\n",
         "line 5, column 9: rays 0 and 1 in basis 0 are not orthogonal"),
        (TRIAD + "basis 0 1 2\nbasis 2 1 7\n", "line 6, column 11: basis 1 references unknown ray 7"),
        (TRIAD + "basis 0 -1 2\n", "line 5, column 9: basis 0 references unknown ray -1"),
        (TRIAD + "basis 0 1\n", "line 5, column 7: basis 0 must name 3 distinct rays"),
        (TRIAD + "basis 0 1 1\n", "line 5, column 7: basis 0 must name 3 distinct rays"),
        ("dim 3\nray 1 0 0\n# comment\nray 0 1\n", "line 4, column 5: ray 1 has length 2, expected 3"),
        (TRIAD + "ray 0 0 0\n", "line 5, column 5: ray 3 is a zero vector"),
        ("dim 2\nray 1 0\n", "line 1, column 5: ray families need ambient dimension >= 3"),
    ], ids=["not-orthogonal", "unknown-ray", "negative-ray", "short-basis", "repeated-ray",
            "ray-length", "zero-vector", "low-dimension"])
    def test_family_errors_are_located(self, capsys, tmp_path, family_text, located):
        (tmp_path / "f.rays").write_text(family_text)
        config = tmp_path / "exp.cfg"
        config.write_text(f"family {tmp_path / 'f.rays'}\n")
        code, out, err = run(capsys, "ks-search", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: ray-family {located}\n"

    def test_lattice_check(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("samples 40\n")
        code, out, _ = run(capsys, "lattice-check", "--config", str(config))
        assert code == 0
        assert "all laws hold" in out

    def test_lattice_check_factorizes_in_stacks(self, capsys, monkeypatch):
        # per dimension d of 2, 3, 4: one QR for each of the two samples,
        # nine SVDs and six QRs for the laws and axioms; a per-pair loop over
        # the 200 samples would make thousands.  The SVDs factorize only the
        # pairs with no zero or full side: 1491 of the 27 * 200 stacked pairs
        calls, svd_items = [], []

        def counted(factorize):
            def wrapper(a, *args, **kwargs):
                calls.append(factorize.__name__)
                if factorize.__name__ == "svd":
                    svd_items.append(len(a))
                return factorize(a, *args, **kwargs)
            return wrapper

        for name in ("svd", "qr"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        code, out, _ = run(capsys, "lattice-check")
        assert (code, out.splitlines()[-1]) == (0, "verdict: all laws hold")
        dims = len((2, 3, 4))
        assert (calls.count("svd"), calls.count("qr")) == (9 * dims, (2 + 6) * dims)
        assert sum(svd_items) <= 1491


class TestInterface:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_config_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "demo-eq5", "--config", "/nonexistent/path.cfg")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("factor, code", [(1.01, 2), (0.99, 0)])
    def test_context_vectors_at_basis_tol(self, capsys, tmp_path, factor, code):
        config = tmp_path / "exp.cfg"
        config.write_text(f"context vectors 1 0 ; {factor * BASIS_TOL!r} 1\ncontext x\n")
        got, out, err = run(capsys, "stats-commute", "--config", str(config))
        assert got == code
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert err.startswith("error: line 1, column 9: context vectors invalid")

    def test_config_error_reports_position(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("state 1 1\n")
        code, _, err = run(capsys, "demo-eq5", "--config", str(config))
        assert code == 2
        assert "line 1" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "stats-commute", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fields"]["defect"] == 0.25
        assert payload["title"].startswith("Eq (7)")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "stats-commute", "--format", "csv")
        assert code == 0
        assert "field,defect,0.25" in out

    def test_structured_output_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "hv-simulate", "--trials", "5000", "--format", "json")
        _, second, _ = run(capsys, "hv-simulate", "--trials", "5000", "--format", "json")
        assert first == second

    def test_out_flag_writes_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "demo-eq5", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "nondistributive"

    def test_main_calls_the_loaders_by_their_module_names(self, capsys, tmp_path, monkeypatch):
        # a benchmark trace wraps the first three names, so each command must
        # look them up when it runs; cli's ray-family loader is coloring's
        calls = []
        for module, name in ((cli, "load_experiment_config"), (cli, "load_ray_family"),
                             (hidden, "load_model"), (coloring, "load_ray_family")):
            def traced(*args, _load=getattr(module, name), _name=f"{module.__name__}.{name}"):
                calls.append(_name)
                return _load(*args)
            monkeypatch.setattr(module, name, traced)
        family = tmp_path / "t.rays"
        family.write_text("dim 3\nray 1 0 0\nray 0 1 0\nray 0 0 1\nbasis 0 1 2\n")
        (tmp_path / "family.cfg").write_text(f"family {family}\n")
        run(capsys, "hv-build", "--out", str(tmp_path / "m.model"))
        (tmp_path / "model.cfg").write_text(f"model {tmp_path / 'm.model'}\n")
        assert run(capsys, "hv-exact", "--config", str(tmp_path / "model.cfg"))[0] == 0
        assert run(capsys, "ks-search", "--config", str(tmp_path / "family.cfg"))[0] == 0
        assert calls == ["qlbench.cli.load_experiment_config", "qlbench.hidden.load_model",
                         "qlbench.cli.load_experiment_config", "qlbench.cli.load_ray_family",
                         "qlbench.coloring.load_ray_family"]

    def test_seed_flag_and_env_agree(self, capsys, tmp_path, monkeypatch):
        _, by_flag, _ = run(capsys, "hv-simulate", "--trials", "5000",
                            "--seed", "99", "--format", "csv")
        monkeypatch.setenv("QLBENCH_SEED", "99")
        code, by_env, _ = run(capsys, "hv-simulate", "--trials", "5000", "--format", "csv")
        assert code == 0
        assert by_flag == by_env

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QLBENCH_SEED", "7")
        _, with_flag, _ = run(capsys, "hv-simulate", "--trials", "5000",
                              "--seed", "99", "--format", "csv")
        monkeypatch.delenv("QLBENCH_SEED")
        _, plain, _ = run(capsys, "hv-simulate", "--trials", "5000",
                          "--seed", "99", "--format", "csv")
        assert with_flag == plain


@pytest.mark.parametrize("command", ["stats-seq", "hv-build", "hv-exact", "hv-simulate", "hv-audit"])
def test_context_within_basis_tol_runs_every_command(capsys, tmp_path, command):
    # the vectors overlap by 5e-11, within BASIS_TOL; with context x their
    # squared overlaps miss row sums of 1 by about as much, within ROW_TOL
    config = tmp_path / "exp.cfg"
    config.write_text("state z+\ncontext vectors 1 0 ; 5e-11 1\ncontext x\n")
    code, out, err = run(capsys, command, "--config", str(config), "--trials", "100")
    assert (code, err) == (0, "")
    if command == "hv-build":  # the model it writes reads back
        assert run(capsys, command, "--config", str(config), "--out", str(tmp_path / "m.model"))[0] == 0
        (tmp_path / "model.cfg").write_text(f"model {tmp_path / 'm.model'}\n")
        code, _, err = run(capsys, "hv-exact", "--config", str(tmp_path / "model.cfg"))
        assert (code, err) == (0, "")


class TestSettingBounds:
    """The flags meet the config keys' bounds (see test_config.py):
    ``1 <= trials <= 2**63 - 1`` and a finite, positive ``tol``."""

    @pytest.mark.parametrize("trials", ["1", str(2 ** 63 - 1)])
    def test_trials_accepted_at_the_bound(self, capsys, trials):
        code, out, _ = run(capsys, "hv-simulate", "--trials", trials, "--format", "json")
        assert code in (0, 1)
        assert json.loads(out)["fields"]["trials"] == int(trials)

    @pytest.mark.parametrize("trials, message", [
        ("0", "trials must be positive"),
        (str(2 ** 63), "trials must be at most 9223372036854775807"),
        ("100000000000000000000", "trials must be at most 9223372036854775807"),
    ])
    def test_trials_rejected_past_the_bound(self, capsys, trials, message):
        assert run(capsys, "hv-simulate", "--trials", trials) == (
            2, "", f"error: argument --trials: {message}\n")

    @pytest.mark.parametrize("tol, verdict", [
        ("5e-324", "noncommuting (defect 0.25 > tol)"),
        ("1.7976931348623157e308", "commuting within tol"),
    ])
    def test_tol_accepted_at_the_bound(self, capsys, tol, verdict):
        code, out, _ = run(capsys, "stats-commute", "--tol", tol, "--format", "json")
        assert (code, json.loads(out)["verdict"]) == (0, verdict)

    @pytest.mark.parametrize("tol, message", [
        ("0", "tol must be positive"),
        ("-1", "tol must be positive"),
        ("nan", "tol must be positive"),
        ("inf", "tol must be at most 1.7976931348623157e+308"),
    ])
    def test_tol_rejected_past_the_bound(self, capsys, tol, message):
        assert run(capsys, "stats-commute", "--tol", tol) == (
            2, "", f"error: argument --tol: {message}\n")

    @pytest.mark.parametrize("route", ["config", "flag", "env"])
    def test_seed_zero_accepted_by_every_route(self, capsys, tmp_path, monkeypatch, route):
        code, out, _ = run(capsys, *self._seed_argv(tmp_path, monkeypatch, route, "0"))
        assert code in (0, 1)
        assert json.loads(out)["fields"]["seed"] == 0

    @pytest.mark.parametrize("route, where", [
        ("config", "line 1, column 6: "), ("flag", "argument --seed: "), ("env", "QLBENCH_SEED: ")])
    def test_negative_seed_refused_by_every_route(self, capsys, tmp_path, monkeypatch,
                                                  route, where):
        argv = self._seed_argv(tmp_path, monkeypatch, route, "-1")
        assert run(capsys, *argv) == (2, "", f"error: {where}seed must be >= 0\n")

    @staticmethod
    def _seed_argv(tmp_path, monkeypatch, route, seed):
        argv = ["hv-simulate", "--trials", "100", "--format", "json"]
        if route == "config":
            config = tmp_path / "exp.cfg"
            config.write_text(f"seed {seed}\n")
            return argv + ["--config", str(config)]
        if route == "flag":
            return argv + ["--seed", seed]
        monkeypatch.setenv("QLBENCH_SEED", seed)
        return argv

    @pytest.mark.parametrize("key, value", [("trials", "0x10"), ("seed", "0o17"), ("seed", "0b101")])
    def test_integer_flags_read_what_config_lines_read(self, capsys, tmp_path, key, value):
        config = tmp_path / "exp.cfg"
        config.write_text(f"{key} {value}\n")
        argv = ["hv-simulate", "--format", "json"]
        by_flag = run(capsys, *argv, f"--{key}", value)
        assert by_flag == run(capsys, *argv, "--config", str(config))
        assert json.loads(by_flag[1])["fields"][key] == int(value, 0)

    @pytest.mark.parametrize("value", ["zz", "010", "1e3"])
    def test_malformed_env_seed_names_the_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QLBENCH_SEED", value)
        assert run(capsys, "hv-simulate", "--trials", "100") == (
            2, "", f"error: QLBENCH_SEED: invalid integer value: '{value}'\n")

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    @pytest.mark.parametrize("value", ["zz", "010", "1e3"])
    def test_malformed_integer_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["hv-simulate", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer value: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, command", [
        ("tol nan", "stats-commute"),
        ("trials 100000000000000000000", "hv-simulate"),
        ("samples 10001", "lattice-check"),
    ])
    def test_config_values_past_the_bound(self, capsys, tmp_path, line, command):
        config = tmp_path / "exp.cfg"
        config.write_text(line + "\n")
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1, column ")
