"""Contraction decided by the three-class pass over the type tree, checked
against the enumerated critical-set intersection and against the
Gray-code pass from scratch, at sizes enumeration cannot reach, on deep
input, on many pairs at once and at the table budget."""

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
    Relation,
    TRIVIAL,
    Verdict,
    bar,
    build_D,
    check_composition,
    check_contraction,
    check_equivalence,
    check_inclusion,
    crosscheck,
    io_partition,
    parse_type,
    render_type,
    signals,
    sample_deterministic,
    verify,
)
from hotypes.strings import _ARROW_CLASSES, _D, _arrow_lanes, _base_classes, _critical_word
from hotypes.type_core import _flat_tree
from conftest import (
    enumerated_critical_word,
    full_signalling,
    random_type,
    random_type_with_io,
    reference_check_composition,
    reference_critical_word,
    reference_orient_pairs,
    reference_rows,
)


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

    def test_one_pair_on_five_hundred_channels(self, no_word_sets):
        x = parse_type(channels(500))
        start = time.perf_counter()
        admissible = check_contraction(x, ContractionSpec.from_text("A1:B0", x))
        loop = check_contraction(x, ContractionSpec.from_text("A7:B7", x))
        assert time.perf_counter() - start < 0.5
        assert signals(x, "A1", "B0").relation is Relation.NO_SIGNALLING
        assert signals(x, "A7", "B7").relation is Relation.FULL_SIGNALLING
        assert admissible.admissible and admissible.witness is None
        assert len(admissible.result_in) == len(admissible.result_out) == 499
        assert not loop.admissible and loop.reason is Reason.CRITICAL_SET
        bits = {a.name: loop.witness.bit(a) for a in loop.witness.universe}
        assert bits == {name: int(name not in ("A7", "B7")) for name in bits}
        assert len(bits) == 1000

    def test_forty_channel_crosscheck(self, no_word_sets):
        x = parse_type(channels(40))
        start = time.perf_counter()
        assert crosscheck(x)
        assert time.perf_counter() - start < 0.5

    def test_composition_across_eighty_two_labels(self, no_word_sets):
        # forty states into B, and B feeding forty effects; the shared B is
        # renamed apart, so the contraction runs on 82 labels
        x = parse_type("(" + "*".join(f"A{i}" for i in range(40)) + ")->B")
        y = parse_type("B->(" + "*".join(f"C{i}" for i in range(40)) + ")")
        verdict = check_composition(x, y)
        assert verdict.admissible
        assert [a.name for a in verdict.result_in] == [f"A{i}" for i in range(40)]
        assert [a.name for a in verdict.result_out] == [f"C{i}" for i in range(40)]
        # feeding B back into one of the inputs closes a loop
        loop = check_composition(x, parse_type("B->A0"))
        assert not loop.admissible and loop.reason is Reason.CRITICAL_SET
        assert loop == reference_check_composition(x, parse_type("B->A0"))

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

    def deep_inputs(self):
        """(A->B) under 5000 bars, and 5000 arrows from I down to it."""
        x = Arrow(Elementary(Label("A")), Elementary(Label("B")))
        for _ in range(5000):
            x = Arrow(TRIVIAL, x)
        return [self.deep_channel(), x]

    def test_word_sets_need_no_recursion(self):
        for x in self.deep_inputs():
            start = time.perf_counter()
            assert sorted(build_D(x).masks) == [0, 1]  # as for A->B: B at 0, A free
            assert check_inclusion(x, x).admissible
            assert check_equivalence(x, x).admissible
            assert sample_deterministic(x, seed=0).side == 4
            report = verify(x, trials=2)
            assert time.perf_counter() - start < 1.0
            assert report.failures == 0
            assert report.basis_size == 12

    @pytest.mark.parametrize(
        "text", ["~" * 5000 + "(A->B)", "I->" * 5000 + "(A->B)"], ids=["bars", "trivial-inputs"]
    )
    @pytest.mark.parametrize(
        "command,key,expected",
        [
            (["analyze"], "outputs", ["B"]),
            (["check", "inclusion"], "verdict", {
                "admissible": True, "reason": "ok", "witness": None, "result_in": ["A"], "result_out": ["B"],
            }),
            (["oracle", "verify", "--trials", "2"], "failures", 0),
        ],
        ids=["analyze", "check-inclusion", "oracle-verify"],
    )
    def test_commands_answer_deep_input(self, capsys, command, key, expected, text):
        argv = [*command, text, text] if command[0] == "check" else [*command, text]
        start = time.perf_counter()
        code = hotypes.cli.main(["--json", *argv])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(capsys.readouterr().out)[key] == expected


class TestPatternBudget:
    def test_refusal_names_count_and_budget(self, capsys, monkeypatch):
        # 19 nodes hold 3 (2^k - 1) lane bits each: 57 for one pair, 171 for two
        x = parse_type(channels(3))
        assert len(_flat_tree(x).left) == 19
        monkeypatch.setattr(hotypes.strings, "TABLE_BITS", 1 << 6)
        spec = ContractionSpec.from_text("A1:B0,A2:B1", x)
        with pytest.raises(ValueError, match=r"^2 contraction pairs need 171 table bits, over the budget of 2\^6$"):
            check_contraction(x, spec)
        assert check_contraction(x, ContractionSpec.from_text("A1:B0", x)).admissible
        code, out, err = run_cli(capsys, "check", "contraction", channels(3), "--pairs", "A1:B0,A2:B1")
        assert (code, out) == (2, "")
        assert err == "error: 2 contraction pairs need 171 table bits, over the budget of 2^6\n"

    def test_thousands_of_pairs_are_refused_by_a_power_of_two(self, capsys):
        # 3 (2^4999 - 1) lane bits on each of 40k nodes: a count of 1510 digits
        pairs = ",".join(f"A{i + 1}:B{i}" for i in range(4999))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", "contraction", channels(5000), "--pairs", pairs)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: 4999 contraction pairs need more than 2^5015 table bits, over the budget of 2^26\n"

    def test_label_count_is_not_capped(self, capsys, no_word_sets):
        x = parse_type(channels(32))
        for pair, relation in (("A0:B1", Relation.NO_SIGNALLING), ("A0:B0", Relation.FULL_SIGNALLING)):
            code, report = run_json(capsys, "check", "contraction", channels(32), "--pairs", pair)
            assert relation is signals(x, *pair.split(":")).relation
            assert (code, report["verdict"]["admissible"]) == (
                (0, True) if relation is Relation.NO_SIGNALLING else (1, False)
            )


def sequential(n: int) -> tuple:
    """n channels A_i -> B_i, and n more B_i -> C_i after them."""
    return parse_type(channels(n)), parse_type(channels(n).replace("B", "C").replace("A", "B"))


def closed_loop(n: int) -> tuple:
    """n channels A_i -> B_i, and n more feeding each B_i back into A_(i+1):
    a composition of 2n pairs around one cycle."""
    return parse_type(channels(n)), parse_type("*".join(f"(B{i}->A{(i + 1) % n})" for i in range(n)))


class TestLanes:
    """Every pair pattern in one pass on lanes, against the Gray-code pass
    from scratch, which visits the patterns one at a time."""

    def test_lane_rule_is_the_class_table_on_every_lane(self):
        for u in range(1, 8):  # class sets are never empty
            for v in range(1, 8):
                assert _arrow_lanes(u, v, 1) == _ARROW_CLASSES[u << 3 | v], (u, v)
        rng = random.Random(3100)
        for _ in range(500):
            lanes = rng.randint(2, 9)
            us, vs = ([rng.randint(1, 7) for _ in range(lanes)] for _ in range(2))
            kept = [p for p in range(lanes) if rng.random() < 0.8]  # lanes left out read 0
            u, v = (sum(c << 3 * p for p, c in enumerate(cs)) for cs in (us, vs))
            want = sum(_ARROW_CLASSES[us[p] << 3 | vs[p]] << 3 * p for p in kept)
            assert _arrow_lanes(u, v, sum(1 << 3 * p for p in kept)) == want

    def test_no_word_of_d_has_every_output_at_1(self):
        # so the lane of every pair at 1, which the pass leaves out, could
        # never hit: keeping it would change no answer
        rng = random.Random(3102)
        for _ in range(1000):
            x = random_type(rng, max_systems=rng.randint(1, 16), dims=(2, 3))
            assert not _base_classes(x)[-1] & _D, x

    def test_the_lanes_held_are_the_lanes_counted(self, monkeypatch):
        # every pattern but all ones, as counted against TABLE_BITS
        ones = []

        def recorded(u: int, v: int, one: int) -> int:
            ones.append(one)
            return _arrow_lanes(u, v, one)

        monkeypatch.setattr(hotypes.strings, "_arrow_lanes", recorded)
        for n in (2, 3, 5):
            ones.clear()
            x = parse_type(channels(n))
            check_contraction(x, ContractionSpec.from_text(",".join(f"A{(i + 1) % n}:B{i}" for i in range(n)), x))
            assert set(ones) == {sum(1 << 3 * p for p in range((1 << n) - 1))}

    def test_seeded_multi_pair_specs_match_the_gray_code_pass(self):
        # 300 specs of each pair count from 1 to 10, qubits and qutrits
        rng = random.Random(3101)
        hits = 0
        for wanted in [k for _ in range(300) for k in range(1, 11)]:
            pairs = []
            while len(pairs) < wanted:
                x = random_type(rng, max_systems=2 * wanted + 6, dims=(2, 2, 3), min_systems=2 * wanted)
                analysis = io_partition(x)
                ins, outs = list(analysis.inputs_ordered()), list(analysis.outputs_ordered())
                rng.shuffle(ins)
                pairs = []
                for a in ins:
                    partners = [b for b in outs if b.dimension == a.dimension]
                    if partners and len(pairs) < wanted:
                        b = rng.choice(partners)
                        outs.remove(b)
                        pairs.append((b, a) if rng.random() < 0.5 else (a, b))
            spec = ContractionSpec.of(pairs)
            verdict = check_contraction(x, spec)
            assert verdict == _reference_contraction(x, spec), (x, spec)
            hits += not verdict.admissible
        assert 2000 < hits < 2900  # 2657: many pairs rarely miss D_x

    @pytest.mark.parametrize(
        "types, admissible",
        [(sequential(13), True), (closed_loop(7), False), (closed_loop(8), False)],
        ids=["sequential-13", "loop-7", "loop-8"],
    )
    def test_wide_compositions_match_the_gray_code_pass(self, monkeypatch, types, admissible):
        verdict = check_composition(*types)
        assert verdict.admissible is admissible
        monkeypatch.setattr(hotypes.admissibility, "_critical_word", reference_critical_word)
        assert verdict == check_composition(*types)

    def test_compositions_past_twelve_pairs_answer(self):
        for n in (13, 16):
            start = time.perf_counter()
            verdict = check_composition(*sequential(n))
            assert time.perf_counter() - start < 0.3
            assert verdict.admissible
            assert [a.name for a in verdict.result_out] == [f"C{i}" for i in range(n)]
        start = time.perf_counter()
        loop = check_composition(*closed_loop(8))
        assert time.perf_counter() - start < 0.3
        assert loop.reason is Reason.CRITICAL_SET
        assert loop.witness.bits == 0 and len(loop.witness.universe) == 32  # every wire at 0
        with pytest.raises(ValueError, match="17 contraction pairs need .* table bits, over the budget of 2\\^26"):
            check_composition(*sequential(17))


def _reference_contraction(x, spec: ContractionSpec) -> Verdict:
    """``check_contraction`` with the roles read from a fresh io analysis
    and the pass run from scratch."""
    analysis = io_partition(x)
    by_name = {a.name: a for a in analysis.elementary}
    pairs = [(by_name[a.name], by_name[b.name]) for a, b in spec.pairs]
    rejection, oriented = reference_orient_pairs(analysis.inputs, pairs)
    if rejection is not None:
        return rejection
    witness = reference_critical_word(x, oriented)
    if witness is not None:
        return Verdict(False, Reason.CRITICAL_SET, witness=witness)
    contracted = {a.name for pair in oriented for a in pair}
    return Verdict(
        True,
        Reason.OK,
        result_in=tuple(a for a in analysis.inputs_ordered() if a.name not in contracted),
        result_out=tuple(a for a in analysis.outputs_ordered() if a.name not in contracted),
    )


def _reference_crosscheck(x) -> bool:
    return all(
        (reference_critical_word(x, [(row.source, row.target)]) is None)
        == (row.relation is Relation.NO_SIGNALLING)
        for row in reference_rows(x)
    )


def _random_spec(rng: random.Random, x) -> ContractionSpec | None:
    """Two to four disjoint pairs of equal dimension, any roles."""
    labels = list(io_partition(x).elementary)
    rng.shuffle(labels)
    pairs = []
    while len(labels) >= 2 and len(pairs) < rng.randint(2, 4):
        a = labels.pop()
        partners = [b for b in labels if b.dimension == a.dimension]
        if partners:
            b = rng.choice(partners)
            labels.remove(b)
            pairs.append((a, b))
    return ContractionSpec.of(pairs) if len(pairs) >= 2 else None


class TestBaseClassStore:
    """The base class pass kept with each type, copied per call and climbed
    from the paired leaves, against the pass from scratch."""

    def test_verdicts_match_the_pass_from_scratch(self):
        rng = random.Random(1909)
        checked = hits = 0
        for n in range(520):
            x = random_type(rng, max_systems=rng.randint(4, 14), dims=(2, 3), min_systems=4)
            analysis = io_partition(x)
            specs = [
                ContractionSpec.of([(a, b)])
                for a in analysis.inputs_ordered()
                for b in analysis.outputs_ordered()
                if a.dimension == b.dimension
            ]
            specs += [spec for spec in (_random_spec(rng, x) for _ in range(3)) if spec]
            rng.shuffle(specs)  # one type object answers them in any order
            for spec in specs:
                got = check_contraction(x, spec).to_json()
                assert got == _reference_contraction(x, spec).to_json(), (x, spec)
                hits += got["witness"] is not None
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():  # unequal dimensions too
                    assert _critical_word(x, [(a, b)]) == reference_critical_word(x, [(a, b)])
            assert crosscheck(x) == _reference_crosscheck(x)
            checked += len(specs)
        assert checked > 4000 and 1000 < hits < checked - 1000

    def test_verify_reports_match_the_pass_from_scratch(self, monkeypatch):
        rng = random.Random(1910)
        for n in range(12):
            x = random_type_with_io(rng, max_systems=4, dims=(2, 3))
            fresh = parse_type(render_type(x), {a.name: a.dimension for a in io_partition(x).elementary})
            got = verify(x, trials=1, seed=n)
            with monkeypatch.context() as patch:
                patch.setattr(hotypes.strings, "_critical_word", reference_critical_word)
                patch.setattr(hotypes.admissibility, "_critical_word", reference_critical_word)
                assert verify(fresh, trials=1, seed=n) == got

    def test_an_admissible_pair_climbs_from_its_two_leaves(self, monkeypatch):
        lookups = []

        class Counted(list):
            def __getitem__(self, index):
                lookups.append(index)
                return super().__getitem__(index)

        def balanced(lo: int, hi: int) -> str:
            if hi - lo == 1:
                return f"(A{lo}->B{lo})"
            mid = (lo + hi) // 2
            return f"({balanced(lo, mid)}*{balanced(mid, hi)})"

        monkeypatch.setattr(hotypes.strings, "_ARROW_CLASSES", Counted(hotypes.strings._ARROW_CLASSES))
        x = parse_type(balanced(0, 30))  # depth 17, so climbs and a full pass differ
        tree = _flat_tree(x)
        arrows = sum(l != -1 for l in tree.left)
        depth = 0
        for node in tree.leaf_node:
            steps = 0
            while tree.parent[node] != -1:
                node, steps = tree.parent[node], steps + 1
            depth = max(depth, steps)
        spec = ContractionSpec.from_text("A0:B1", x)
        assert check_contraction(x, spec).admissible
        assert len(lookups) >= arrows  # the first call makes the base pass
        lookups.clear()
        assert check_contraction(x, ContractionSpec.from_text("A7:B29", x)).admissible
        assert 0 < len(lookups) <= 2 * (depth + 1) < arrows
