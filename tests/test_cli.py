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

from conftest import child_env


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
            env=child_env(),
        )
        assert (result.returncode, result.stderr) == (0, "")
        report = json.loads(result.stdout)
        assert report["word_count"] == 1
        assert report["words"] == ["".join(f"1_{a}" for a in sorted(states)) + "0_C"]
        assert report["timing_ms"] < 500

    def test_many_labels_are_counted_not_listed(self, capsys, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called for a word set too large to list")

        monkeypatch.setattr("hotypes.cli.build_D", refuse)
        channels = "*".join(f"(A{i}->B{i})" for i in range(500))
        start = time.perf_counter()
        code, report = run_json(capsys, "analyze", channels)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert len(report["elementary"]) == 1000
        assert (report["word_count"], report["words"]) == (3**500 - 1, None)

    def test_parse_error_exits_2_with_caret(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "(A->")
        assert code == 2
        assert "^" in err

    def test_duplicate_labels_are_relabeled(self, capsys):
        code, report = run_json(capsys, "analyze", "(A->B)->A")
        assert code == 0
        assert report["renamed"] == {"A1": "A"}


class TestCheck:
    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["oracle", "verify", f"({'*'.join(f'A{i}' for i in range(64))})->(B->I)"], "failures: 0"),
            (["check", "inclusion", f"({'*'.join(f'A{i}' for i in range(64))})->I",
              f"({'*'.join(f'A{i}' for i in range(63, -1, -1))})->I"], None),
        ],
        ids=["verify", "inclusion"],
    )
    def test_an_empty_side_beside_64_labels_answers(self, argv, last_line):
        # a side of 64 labels joined to an empty set once overflowed in build_D
        result = subprocess.run(
            [sys.executable, "-m", "hotypes.cli", *argv], capture_output=True, text=True, env=child_env()
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert last_line is None or result.stdout.splitlines()[-1] == last_line

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

    def test_inclusion_over_the_word_budget_is_usage_error(self, capsys, monkeypatch):
        # inclusion is refused on its table budget, before any table is built
        def refuse(*args):
            raise AssertionError("word set or table built over the budget")

        monkeypatch.setattr("hotypes.strings.build_D", refuse)
        monkeypatch.setattr("hotypes.strings._d_table", refuse)
        channels = "*".join(f"(A{i}->B{i})" for i in range(14))
        for command in ("inclusion", "equivalence"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "check", command, channels, channels)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == "error: inclusion needs tables of 2^28 bits, over the budget of 2^26\n"


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

    def test_basis_over_byte_budget_is_usage_error(self, capsys):
        channels = "*".join(f"(A{i}->B{i})" for i in range(6))
        # admissible pairs are sampled, and a sample of 12 qubits is too large
        code, out, err = run_cli(capsys, "oracle", "verify", channels, "--trials", "2")
        assert (code, out) == (2, "")
        assert "dense operators need 2147483648 bytes, over the budget of 1073741824" in err
        # structure alone and witness maps allocate no dense operator
        for argv in (["--trials", "0"], ["--pairs", "A0:B0", "--trials", "2"]):
            code, report = run_json(capsys, "oracle", "verify", channels, *argv)
            assert (code, report["failures"]) == (0, 0)
            assert report["lambda_recursion_matches_closed_form"] is True
            assert report["deviation_basis_dimension_matches"] is True
        assert report["pairs"][0]["relation"] == "full-signalling"

    def test_byte_budget_is_checked_before_words_are_built(self, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called for a basis over the byte budget")

        monkeypatch.setattr(hotypes.oracle, "build_D", refuse)
        x = hotypes.parse_type("*".join(f"(A{i}->B{i})" for i in range(12)))
        with pytest.raises(ValueError, match=f"dense operators need {8 * 4**12 * 16 * 4**12} bytes"):
            hotypes.oracle.delta_basis(x)

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


class TestBudgets:
    @pytest.mark.parametrize(
        "module, budget, limit, enough, argv, refusal",
        [
            ("strings", "WORD_BUDGET", 7, 8, ["oracle", "verify", "(A->B)*(C->D)", "--trials", "2"],
             "word sets need 8 words, over the budget of 7"),
            ("strings", "TABLE_BITS", 8, 16, ["check", "inclusion", "(A->B)*(C->D)", "(C->D)*(A->B)"],
             "inclusion needs tables of 2^4 bits, over the budget of 2^3"),
            ("strings", "PATTERN_BUDGET", 2, 3,
             ["check", "contraction", "(A->B)*(C->D)*(E->F)", "--pairs", "A:D,C:F"],
             "2 contraction pairs need 3 critical-set patterns; the budget is 2"),
            ("oracle", "BASIS_BYTES", 32767, 32768, ["oracle", "verify", "(A->B)*(C->D)", "--pairs", "A:D"],
             "dense operators need 32768 bytes, over the budget of 32767"),
        ],
        ids=["words", "tables", "patterns", "bytes"],
    )
    def test_each_budget_refuses_with_exit_2(self, capsys, monkeypatch, module, budget, limit, enough, argv, refusal):
        monkeypatch.setattr(f"hotypes.{module}.{budget}", limit)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
        monkeypatch.setattr(f"hotypes.{module}.{budget}", enough)
        assert run_cli(capsys, *argv)[0] == 0


@pytest.fixture
def few_printed_digits():
    """Python's integer-to-text limit lowered to its least value, 640
    digits, and restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python prints integers of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(saved)


class TestIntegerPrintLimit:
    # 1400 channels: |D| = 3^1400 - 1 has 668 digits, lambda's denominator 2^1400 has 422
    CHANNELS = "*".join(f"(A{i}->B{i})" for i in range(1400))

    def _refused(self, capsys, argv: list[str]) -> str:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "set_int_max_str_digits" not in err
        return err

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_analyze_names_the_digits_and_the_limit(self, capsys, few_printed_digits, as_json):
        argv = ["--json"] * as_json + ["analyze", self.CHANNELS]
        err = self._refused(capsys, argv)
        assert err == "error: |D| has 668 digits, over Python's limit of 640 for printing\n"

    def test_analyze_checks_the_denominator_of_lambda(self, capsys, few_printed_digits, tmp_path):
        # 300 outputs of dimension 1000: lambda = 1/10^900, while |D| = 2^300 - 1 prints
        dims = tmp_path / "dims"
        dims.write_text("".join(f"A{i} = 1000\n" for i in range(300)))
        err = self._refused(capsys, ["--dims", str(dims), "analyze", "*".join(f"A{i}" for i in range(300))])
        assert err == "error: the denominator of lambda has 901 digits, over Python's limit of 640 for printing\n"

    @pytest.mark.parametrize("relation", ["inclusion", "equivalence"])
    def test_word_budget_names_a_power_of_two(self, capsys, few_printed_digits, relation):
        # inclusion's budget is on tables: all 2800 labels are free, so a
        # table would hold 2^2800 bits
        err = self._refused(capsys, ["check", relation, self.CHANNELS, self.CHANNELS])
        assert err == "error: inclusion needs tables of 2^2800 bits, over the budget of 2^26\n"

    def test_word_budget_of_verify_names_a_power_of_two(self, capsys, few_printed_digits):
        # 3^1400 - 1 words lie between 2^2218 and 2^2219
        err = self._refused(capsys, ["oracle", "verify", self.CHANNELS])
        assert err == "error: word sets need more than 2^2218 words, over the budget of 4194304\n"

    def test_counts_that_print_are_named_in_full(self, capsys, few_printed_digits):
        code, report = run_json(capsys, "analyze", "*".join(f"(A{i}->B{i})" for i in range(1300)))
        assert code == 0 and report["word_count"] == 3**1300 - 1  # 621 digits


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

    def test_deep_nesting_is_analyzed(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "~" * 5000 + "A")
        assert (code, err) == (0, "")
        assert out == (
            f"type:    {'~' * 5000}A\nsystems: A(2)\ninputs:  {{}}\noutputs: {{A}}\n"
            "lambda:  1/2\n|D|:     1\nD:       0_A\n"
        )

    def test_recursion_error_is_usage_error(self, capsys, monkeypatch):
        # no command recurses on the type any more; the guard stays
        def recurse(x):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(hotypes.cli, "word_count", recurse)
        code, out, err = run_cli(capsys, "analyze", "A->B")
        assert (code, out, err) == (2, "", "error: type nests too deeply\n")

    def test_closed_stdout_exits_2_without_traceback(self):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hotypes.cli", "analyze", "A"],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(),
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
            env=child_env(),
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
                [sys.executable, "-m", "hotypes.cli", *argv], capture_output=True, text=True, env=child_env(env)
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
