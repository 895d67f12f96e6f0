"""CLI surface: exit codes, JSON reports, golden outputs, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import hotypes.cli
import hotypes.oracle
import hotypes.signalling
from hotypes.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


class TestAnalyze:
    def test_tensor_of_channels(self, capsys):
        code, report = run_json(capsys, "analyze", "(A->B)*(C->D)")
        assert code == 0
        assert report["inputs"] == ["A", "C"]
        assert report["outputs"] == ["B", "D"]
        assert report["lambda"] == "1/4"
        assert report["word_count"] == 8
        assert len(report["words"]) == 8

    def test_trivial_type(self, capsys):
        code, report = run_json(capsys, "analyze", "I")
        assert code == 0
        assert report["inputs"] == []
        assert report["outputs"] == []
        assert report["lambda"] == "1"
        assert report["word_count"] == 0

    def test_second_order_map(self, capsys):
        code, report = run_json(capsys, "analyze", "((A->B)->(C->D))")
        assert code == 0
        assert report["inputs"] == ["B", "C"]
        assert report["outputs"] == ["A", "D"]
        assert report["word_count"] == 10

    def test_large_word_sets_are_elided(self, capsys):
        code, report = run_json(capsys, "analyze", "A*B*C*D*E*F*G")
        assert code == 0
        assert report["word_count"] > 64
        assert report["words"] is None

    def test_word_count_without_enumeration(self, capsys, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called for a word set too large to list")

        monkeypatch.setattr("hotypes.cli.build_D", refuse)
        channels = "*".join(f"(A{i}->B{i})" for i in range(12))
        start = time.perf_counter()
        code, report = run_json(capsys, "analyze", channels)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["word_count"] == 3**12 - 1
        assert report["words"] is None

    def test_empty_word_set_without_enumeration(self, capsys, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called for an empty word set")

        monkeypatch.setattr("hotypes.cli.build_D", refuse)
        effect = "~(" + "*".join(f"A{i}" for i in range(20)) + ")"
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", effect)
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert "|D|:     0" in out.splitlines()
        assert "D:       " in out.splitlines()
        code, report = run_json(capsys, "analyze", effect)
        assert code == 0
        assert (report["word_count"], report["words"]) == (0, [])

    def test_one_word_beside_a_large_effect_per_process(self):
        states = [f"A{i}" for i in range(20)]
        result = subprocess.run(
            [sys.executable, "-m", "hotypes.cli", "--json", "analyze", f"(~({'*'.join(states)}))*C"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        report = json.loads(result.stdout)
        assert report["word_count"] == 1
        assert report["words"] == ["".join(f"1_{a}" for a in sorted(states)) + "0_C"]
        assert report["timing_ms"] < 500

    def test_too_many_labels_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "*".join(f"A{i}" for i in range(64)))
        assert code == 2
        assert "64 labels" in err

    def test_parse_error_exits_2_with_caret(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "(A->")
        assert code == 2
        assert "^" in err

    def test_duplicate_labels_are_relabeled(self, capsys):
        code, report = run_json(capsys, "analyze", "(A->B)->A")
        assert code == 0
        assert report["renamed"] == {"A1": "A"}


class TestCheck:
    def test_contraction_admissible(self, capsys):
        code, report = run_json(
            capsys, "check", "contraction", "(A->B)*(C->D)", "--pairs", "C:B"
        )
        assert code == 0
        assert report["verdict"]["admissible"] is True
        assert report["verdict"]["result_in"] == ["A"]
        assert report["verdict"]["result_out"] == ["D"]

    def test_contraction_inadmissible_with_witness(self, capsys):
        code, report = run_json(
            capsys, "check", "contraction", "(A->B)*(C->D)", "--pairs", "A:B"
        )
        assert code == 1
        assert report["verdict"]["admissible"] is False
        assert report["verdict"]["witness"] == "0_A0_B1_C1_D"

    def test_composition(self, capsys):
        code, report = run_json(capsys, "check", "composition", "(A->B)", "(B->C)")
        assert code == 0
        assert report["verdict"]["result_in"] == ["A"]
        assert report["verdict"]["result_out"] == ["C"]

    def test_inclusion(self, capsys):
        code, report = run_json(
            capsys, "check", "inclusion", "((A->B)->(C->D))", "((C*B)->(A*D))"
        )
        assert code == 0
        code, report = run_json(
            capsys, "check", "inclusion", "((C*B)->(A*D))", "((A->B)->(C->D))"
        )
        assert code == 1
        assert report["verdict"]["witness"] is not None

    def test_equivalence(self, capsys):
        code, _ = run_json(capsys, "check", "equivalence", "~(A->B)", "A*~B")
        assert code == 0

    def test_bad_pair_label_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "contraction", "(A->B)", "--pairs", "A:Z"
        )
        assert code == 2
        assert "error" in err

    def test_inclusion_over_the_label_cap_is_usage_error(self, capsys, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called on a type over the label cap")

        monkeypatch.setattr("hotypes.admissibility.build_D", refuse)
        channels = "*".join(f"(A{i}->B{i})" for i in range(32))
        for command in ("inclusion", "equivalence"):
            code, out, err = run_cli(capsys, "check", command, channels, channels)
            assert (code, out) == (2, "")
            assert "64 labels" in err


class TestSignalling:
    def test_matrix_rows(self, capsys):
        code, report = run_json(capsys, "signalling", "(A->B)*(C->D)")
        assert code == 0
        rows = {(r["from"], r["to"]): r["relation"] for r in report["rows"]}
        assert rows[("A", "D")] == "no-signalling"
        assert rows[("C", "B")] == "no-signalling"
        assert rows[("A", "B")] == "full-signalling"

    def test_single_channel(self, capsys):
        code, report = run_json(capsys, "signalling", "(A->B)")
        assert code == 0
        assert report["rows"] == [
            {"from": "A", "to": "B", "relation": "full-signalling", "enclosing": "(A->B)"}
        ]

    def test_crosscheck_flag(self, capsys):
        code, report = run_json(capsys, "signalling", "((A->B)->(C->D))", "--crosscheck")
        assert code == 0
        assert report["crosscheck"] is True

    def test_both_output_forms_are_pinned(self, capsys):
        argv = ["signalling", "((A->B)->(C->D))*~Ex", "--crosscheck"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (
            " B -/-> A    no-signalling    via (A->B)\n"
            " B  ==> D    full-signalling  via ((A->B)->(C->D))\n"
            " C  ==> A    full-signalling  via ((A->B)->(C->D))\n"
            " C  ==> D    full-signalling  via (C->D)\n"
            "Ex -/-> A    no-signalling    via (((A->B)->(C->D))->~~Ex)\n"
            "Ex -/-> D    no-signalling    via (((A->B)->(C->D))->~~Ex)\n"
            "crosscheck: agree\n"
        )
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        rows = [
            {"from": a, "to": b, "relation": r, "enclosing": e}
            for a, b, r, e in [
                ("B", "A", "no-signalling", "(A->B)"),
                ("B", "D", "full-signalling", "((A->B)->(C->D))"),
                ("C", "A", "full-signalling", "((A->B)->(C->D))"),
                ("C", "D", "full-signalling", "(C->D)"),
                ("Ex", "A", "no-signalling", "(((A->B)->(C->D))->~~Ex)"),
                ("Ex", "D", "no-signalling", "(((A->B)->(C->D))->~~Ex)"),
            ]
        ]
        report = {"command": "signalling", "input_types": [argv[1]], "rows": rows, "crosscheck": True,
                  "timing_ms": json.loads(out)["timing_ms"]}
        assert out == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("form", [["--json"], []])
    def test_each_enclosing_subterm_is_rendered_once(self, capsys, monkeypatch, form):
        calls = []
        original = hotypes.signalling.render_type

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(hotypes.signalling, "render_type", counting)
        monkeypatch.setattr(hotypes.cli, "render_type", counting)
        chain = "->".join(f"A{i}" for i in range(400))
        code, out, _ = run_cli(capsys, *form, "signalling", chain)
        assert code == 0
        assert len(calls) == 399 == (len(json.loads(out)["rows"]) if form else len(out.splitlines()))


class TestOracleVerify:
    def test_admissible_pair_trials(self, capsys):
        code, report = run_json(
            capsys,
            "oracle",
            "verify",
            "(A->B)*(C->D)",
            "--pairs",
            "C:B",
            "--trials",
            "5",
        )
        assert code == 0
        (entry,) = report["pairs"]
        assert entry["channel_failures"] == 0
        assert entry["worst_channel_residual"] <= 1e-9

    def test_inadmissible_pair_margin(self, capsys):
        code, report = run_json(
            capsys,
            "oracle",
            "verify",
            "(A->B)*(C->D)",
            "--pairs",
            "A:B",
            "--trials",
            "1",
        )
        assert code == 0
        (entry,) = report["pairs"]
        assert entry["violation_margin"] >= 1e-3

    def test_role_rejected_pair_reports_reason_only(self, capsys):
        code, report = run_json(
            capsys,
            "oracle",
            "verify",
            "(A->B)*(C->D)",
            "--pairs",
            "A:C",
            "--trials",
            "3",
        )
        assert code == 0  # a correct structural rejection is not a disagreement
        (entry,) = report["pairs"]
        assert entry["admissible"] is False
        assert entry["reason"] == "input-input"
        assert "violation_margin" not in entry

    def test_reversed_pair_is_normalized(self, capsys):
        code, report = run_json(
            capsys, "oracle", "verify", "(A->B)*(C->D)", "--pairs", "B:C", "--trials", "2"
        )
        assert code == 0
        (entry,) = report["pairs"]
        assert entry["admissible"] is True
        assert entry["relation"] == "no-signalling"

    def test_trials_zero_only_validates_structure(self, capsys):
        code, report = run_json(
            capsys, "oracle", "verify", "(A->B)*(C->D)", "--trials", "0"
        )
        assert code == 0
        assert report["lambda_recursion_matches_closed_form"] is True
        assert report["deviation_basis_dimension_matches"] is True
        assert report["pairs"] == []

    def test_full_sweep_defaults_to_all_pairs(self, capsys):
        code, report = run_json(
            capsys, "oracle", "verify", "(A->B)*(C->D)", "--trials", "2"
        )
        assert code == 0
        assert {e["pair"] for e in report["pairs"]} == {"A:B", "A:D", "C:B", "C:D"}


    def test_each_trial_draws_one_sample_for_all_pairs(self, capsys, monkeypatch):
        calls = []
        original = hotypes.oracle.sample_deterministic

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return original(*args, **kwargs)

        monkeypatch.setattr(hotypes.oracle, "sample_deterministic", counting)
        code, report = run_json(capsys, "oracle", "verify", "(A->B)*(C->D)", "--trials", "2")
        assert code == 0
        assert report["failures"] == 0
        assert calls == [0, 1]

    def test_basis_over_byte_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(hotypes.oracle, "BASIS_BYTES", 1)
        # labels no other test uses, so no cached basis bypasses the budget
        code, out, err = run_cli(capsys, "oracle", "verify", "(Pb->Qb)", "--trials", "0")
        assert code == 2
        assert out == ""
        assert "bytes" in err and "budget" in err

    def test_byte_budget_is_checked_before_words_are_built(self, capsys, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called for a basis over the byte budget")

        monkeypatch.setattr(hotypes.oracle, "build_D", refuse)
        channels = "*".join(f"(A{i}->B{i})" for i in range(12))
        code, out, err = run_cli(capsys, "oracle", "verify", channels, "--trials", "0")
        assert code == 2
        assert out == ""
        assert "dense operators need" in err and "bytes" in err

    @pytest.mark.parametrize(
        "option, value, reason",
        [
            ("--tol", "-1", "tol must be finite and positive"),
            ("--tol", "0", "tol must be finite and positive"),
            ("--tol", "nan", "tol must be finite and positive"),
            ("--tol", "inf", "tol must be finite and positive"),
            ("--trials", "-1", "trials must be at least 0"),
        ],
    )
    def test_bad_tolerance_or_trials_is_usage_error(self, capsys, option, value, reason):
        code, out, err = run_cli(capsys, "oracle", "verify", "(A->B)*(C->D)", option, value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and reason in err

    @pytest.mark.parametrize(
        "args",
        [["(A->B)"], ["(A->B)*(C->D)"], ["(A->B)*(C->D)", "--trials", "0"]],
        ids=["witness-only", "sampled", "no-trials"],
    )
    def test_negative_seed_is_usage_error(self, capsys, args):
        # refused before any pair, whether or not a sample would be drawn
        code, out, err = run_cli(capsys, "oracle", "verify", *args, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be non-negative, got -1\n"

    def test_eight_qubits_pass_the_three_way_check(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "verify", "(A->B)*(C->D)*(E->F)*(G->H)", "--trials", "2"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "failures: 0"


class TestDimsHandling:
    def test_dims_file(self, capsys, tmp_path):
        dims = tmp_path / "dims.cfg"
        dims.write_text("# qutrit input\nA = 3\nB = 2\n", encoding="utf-8")
        code, report = run_json(capsys, "--dims", str(dims), "analyze", "A->B")
        assert code == 0
        assert report["elementary"] == [
            {"name": "A", "dimension": 3},
            {"name": "B", "dimension": 2},
        ]
        assert report["lambda"] == "1/2"

    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        dims = tmp_path / "dims.cfg"
        dims.write_text("A = 4\n", encoding="utf-8")
        monkeypatch.setenv("HOTYPES_DIMS", str(dims))
        code, report = run_json(capsys, "analyze", "A")
        assert code == 0
        assert report["lambda"] == "1/4"

    def test_malformed_dims_file(self, capsys, tmp_path):
        dims = tmp_path / "dims.cfg"
        dims.write_text("A 3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--dims", str(dims), "analyze", "A")
        assert code == 2
        assert "expected" in err


class TestReportStability:
    def test_reports_identical_modulo_timing(self, capsys):
        _, one = run_json(capsys, "oracle", "verify", "(A->B)", "--trials", "3", "--seed", "9")
        _, two = run_json(capsys, "oracle", "verify", "(A->B)", "--trials", "3", "--seed", "9")
        one.pop("timing_ms")
        two.pop("timing_ms")
        assert one == two

    def test_flags_accepted_before_or_after_subcommand(self, capsys):
        _, before = run_json(capsys, "analyze", "A->B")
        code, out, _ = run_cli(capsys, "analyze", "A->B", "--json")
        after = json.loads(out)
        before.pop("timing_ms")
        after.pop("timing_ms")
        assert before == after

    def test_deep_nesting_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "~" * 5000 + "A")
        assert code == 2
        assert "nests too deeply" in err

    def test_closed_stdout_exits_2_without_traceback(self):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hotypes.cli", "analyze", "A"],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (2, "")

    @pytest.mark.parametrize(
        "command,stage,argv",
        [
            ("analyze", "word_count", ["analyze", "A->B"]),
            ("check inclusion", "check_inclusion", ["check", "inclusion", "A->B", "A->B"]),
            ("signalling", "signalling_matrix", ["signalling", "A->B"]),
            ("oracle verify", "verify", ["oracle", "verify", "A->B"]),
        ],
    )
    def test_out_of_memory_exits_2_without_traceback(self, capsys, monkeypatch, command, stage, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"hotypes.cli.{stage}", exhausted)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: out of memory in {command}\n")

    def test_usage_error_exit_code(self, capsys):
        assert main(["check"]) == 2  # missing relation subcommand

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "hotypes.cli", "analyze", "A->B"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "lambda:  1/2" in result.stdout


class TestParserReuse:
    def test_consecutive_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        dims = tmp_path / "dims.cfg"
        dims.write_text("A = 3\nB = 3\n", encoding="utf-8")
        calls = [
            (["--json", "analyze", "A->B"], None),
            (["analyze", "A->B", "--json"], None),
            (["--dims", str(dims), "analyze", "A->B"], None),
            (["check", "frobnicate", "A", "B"], None),  # usage error: exit 2
            (["analyze", "A->B"], str(dims)),
            (["analyze", "(A->B)*(C->D)", "--dims", str(dims), "--json"], None),
            (["--json", "check", "contraction", "(A->B)*(C->D)", "--pairs", "A:B"], None),
            (["oracle", "verify", "(A->B)*(C->D)", "--trials", "1"], None),
        ]
        for argv, env_dims in calls:
            env = dict(os.environ)
            env.pop("HOTYPES_DIMS", None)
            monkeypatch.delenv("HOTYPES_DIMS", raising=False)
            if env_dims is not None:
                env["HOTYPES_DIMS"] = env_dims
                monkeypatch.setenv("HOTYPES_DIMS", env_dims)
            code, out, err = run_cli(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "hotypes.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (code, _without_timing(out), err) == (
                fresh.returncode, _without_timing(fresh.stdout), fresh.stderr
            ), argv


def _without_timing(out: str):
    """The report without its run-dependent field; text output as is."""
    if not out.startswith("{"):
        return out
    report = json.loads(out)
    del report["timing_ms"]
    return report
