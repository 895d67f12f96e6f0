"""Contraction decided by the three-class pass over the type tree, checked
against the enumerated critical-set intersection, at sizes enumeration
cannot reach, on deep input and at the pattern budget."""

from __future__ import annotations

import json
import random
import time

import pytest

import hotypes
import hotypes.admissibility
import hotypes.cli
import hotypes.signalling
import hotypes.strings
from hotypes import (
    Arrow,
    ContractionSpec,
    Elementary,
    Label,
    Reason,
    bar,
    check_composition,
    check_contraction,
    crosscheck,
    io_partition,
    parse_type,
)
from conftest import enumerated_critical_word, full_signalling, random_type


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = hotypes.cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


def channels(n: int) -> str:
    return "*".join(f"(A{i}->B{i})" for i in range(n))


def refuse_word_sets(monkeypatch) -> None:
    """Make building D_x or a critical set fail wherever it is imported."""

    def refuse(*args, **kwargs):
        raise AssertionError("a word set was built")

    for module in (hotypes, hotypes.strings, hotypes.admissibility, hotypes.signalling, hotypes.cli):
        for name in ("build_D", "critical_set_multi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def no_word_sets(monkeypatch):
    refuse_word_sets(monkeypatch)


class TestAgainstEnumeration:
    def test_verdicts_and_witnesses_on_seeded_types(self, monkeypatch):
        rng = random.Random(2202)
        cases = []
        while len(cases) < 1000:
            x = random_type(rng, max_systems=rng.randint(2, 12), dims=(2, 3), min_systems=2)
            analysis = io_partition(x)
            ins, outs = list(analysis.inputs_ordered()), list(analysis.outputs_ordered())
            rng.shuffle(ins)
            pairs = []
            for a in ins:
                partners = [b for b in outs if b.dimension == a.dimension]
                if partners and len(pairs) < rng.randint(1, 3):
                    b = rng.choice(partners)
                    outs.remove(b)
                    pairs.append((a, b))
            if not pairs:
                continue
            # either orientation of a pair names the same contraction
            spec = ContractionSpec.of([(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs])
            cases.append((x, spec, enumerated_critical_word(x, pairs)))
        assert 200 < sum(expected is not None for *_, expected in cases) < 800
        refuse_word_sets(monkeypatch)
        for x, spec, expected in cases:
            verdict = check_contraction(x, spec)
            assert verdict.admissible == (expected is None), (x, spec)
            assert verdict.witness == expected, (x, spec)
            if expected is not None:
                assert verdict.reason is Reason.CRITICAL_SET


class TestWithoutWordSets:
    def test_twelve_channel_contraction(self, capsys, no_word_sets):
        start = time.perf_counter()
        code, report = run_json(capsys, "check", "contraction", channels(12), "--pairs", "A0:B1")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["verdict"]["admissible"] is True
        assert "A0" not in report["verdict"]["result_in"]
        assert "B1" not in report["verdict"]["result_out"]

    def test_twelve_channel_crosscheck(self, capsys, no_word_sets):
        code, report = run_json(capsys, "signalling", channels(12), "--crosscheck")
        assert code == 0
        assert report["crosscheck"] is True
        x = parse_type(channels(12))
        assert full_signalling(x, "A3", "B3")
        assert not full_signalling(x, "A3", "B4")

    def test_loop_witness_on_sixty_two_labels(self, no_word_sets):
        # D of a tensor of channels: every channel 00, 10 or 11, one not 11;
        # the loop A0:B0 leaves channel 0 at 00 and every other channel at 11
        x = parse_type(channels(31))
        start = time.perf_counter()
        verdict = check_contraction(x, ContractionSpec.of([(Label("A0"), Label("B0"))]))
        assert time.perf_counter() - start < 1.0
        assert not verdict.admissible
        bits = {a.name: verdict.witness.bit(a) for a in verdict.witness.universe}
        assert bits == {name: int(name not in ("A0", "B0")) for name in bits}
        assert len(bits) == 62


class TestDeepInput:
    def deep_channel(self):
        x = Arrow(Elementary(Label("A")), Elementary(Label("B")))
        for _ in range(5000):
            x = bar(x)
        return x

    def test_contraction_needs_no_recursion(self):
        # an even number of bars leaves every word's class as it was
        verdict = check_contraction(self.deep_channel(), ContractionSpec.of([(Label("A"), Label("B"))]))
        assert not verdict.admissible
        assert verdict.witness.render() == "0_A0_B"

    def test_composition_needs_no_recursion(self):
        verdict = check_composition(self.deep_channel(), parse_type("B->C"))
        assert verdict.admissible
        assert [a.name for a in verdict.result_in] == ["A"]
        assert [a.name for a in verdict.result_out] == ["C"]
        assert crosscheck(self.deep_channel())


class TestPatternBudget:
    def test_refusal_names_count_and_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(hotypes.strings, "PATTERN_BUDGET", 2)
        x = parse_type(channels(3))
        spec = ContractionSpec.from_text("A1:B0,A2:B1", x)
        with pytest.raises(ValueError, match="need 3 critical-set patterns; the budget is 2"):
            check_contraction(x, spec)
        assert check_contraction(x, ContractionSpec.from_text("A1:B0", x)).admissible
        code, out, err = run_cli(capsys, "check", "contraction", channels(3), "--pairs", "A1:B0,A2:B1")
        assert code == 2 and out == ""
        assert "the budget is 2" in err

    def test_label_cap_still_applies(self, capsys):
        code, _, err = run_cli(capsys, "check", "contraction", channels(32), "--pairs", "A0:B1")
        assert code == 2
        assert "64 labels; the cap is 63" in err
