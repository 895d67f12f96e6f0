"""Word-set constructors, contraction, the D builder, and critical sets."""

from __future__ import annotations

import random
import subprocess
import sys
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hotypes.strings
from hotypes import (
    TRIVIAL,
    Arrow,
    DuplicateLabelError,
    Elementary,
    Label,
    Trivial,
    WordSet,
    bar,
    build_D,
    io_partition,
    parse_type,
    tensor,
)
from hotypes.strings import (
    canonical_universe,
    concat,
    critical_set_multi,
    word_count,
)
from hotypes.type_core import _flat_tree

from conftest import (
    all_ones,
    child_env,
    complement_bar,
    complement_perp,
    contract_set,
    full_set,
    random_type,
    random_type_with_io,
    reference_D,
    traceless_set,
    type_exprs,
    word_is_subset,
    word_mask,
)

A, B, C, D = (Label(n) for n in "ABCD")


def words(ws: WordSet) -> set[str]:
    return set(ws.render())


def word_set(universe, *bits_by_name: dict[str, int]) -> WordSet:
    """The words given as {label name: bit}, over the universe."""
    return WordSet(universe, frozenset(word_mask(universe, bits) for bits in bits_by_name))


class TestConstructors:
    def test_single_label(self):
        assert words(full_set([A])) == {"0_A", "1_A"}
        assert words(traceless_set([A])) == {"0_A"}
        assert all_ones([A]).render() == "1_A"

    def test_empty_universe(self):
        assert words(full_set([])) == {"ε"}
        assert len(traceless_set([])) == 0
        assert all_ones([]).render() == "ε"

    def test_two_labels(self):
        assert len(full_set([A, B])) == 4
        assert len(traceless_set([A, B])) == 3

    def test_universe_cap(self):
        # no label cap: a universe of 64 or more labels is accepted
        for n in (64, 1000):
            labels = [Label(f"L{i:04}") for i in reversed(range(n))]
            assert canonical_universe(labels) == tuple(reversed(labels))
            with pytest.raises(ValueError, match="occurs more than once"):
                canonical_universe(labels + [Label("L0000", 3)])

    def test_universe_is_sorted_and_duplicate_free(self):
        assert canonical_universe([B, A]) == (A, B)
        with pytest.raises(ValueError):
            canonical_universe([A, Label("A", 3)])


class TestComplements:
    def test_by_hand(self):
        j = WordSet((A, B), frozenset({0b00, 0b01}))  # bit i is label i: {00, 10}
        assert words(j) == {"0_A0_B", "1_A0_B"}
        assert words(complement_perp(j)) == {"0_A1_B", "1_A1_B"}
        assert words(complement_bar(j)) == {"0_A1_B"}

    def test_empty_set(self):
        j = WordSet((A, B), frozenset())
        assert complement_perp(j).masks == full_set([A, B]).masks
        assert complement_bar(j).masks == traceless_set([A, B]).masks

    @given(st.sets(st.integers(0, 2), max_size=3))
    def test_bar_is_an_involution_on_traceless_sets(self, masks):
        j = WordSet((A, B), frozenset(masks))  # masks < 3 keep j inside T
        assert complement_bar(complement_bar(j)).masks == j.masks


class TestConcat:
    def test_cartesian_product(self):
        left = WordSet((A,), frozenset({0}))
        right = full_set([B])
        assert words(concat(left, right)) == {"0_A0_B", "0_A1_B"}

    def test_null_string_is_identity(self):
        j = WordSet((A, B), frozenset({0b01, 0b10}))
        eps = full_set([])
        assert concat(eps, j).masks == j.masks
        assert concat(j, eps).masks == j.masks

    def test_empty_set_annihilates(self):
        j = full_set([A])
        nothing = WordSet((Label("Z"),), frozenset())
        assert len(concat(nothing, j)) == 0
        assert len(concat(j, nothing)) == 0

    def test_overlapping_universes_rejected(self):
        with pytest.raises(ValueError):
            concat(full_set([A]), full_set([A, B]))


class TestContraction:
    def test_mismatched_bits_annihilate(self):
        word = word_set((A, B, C, D), {"A": 0, "B": 1, "C": 0, "D": 1})
        assert len(contract_set(word, [("A", "D")])) == 0

    def test_matched_bits_drop_positions(self):
        word = word_set((A, B, C, D), {"A": 1, "B": 1, "C": 0, "D": 1})
        assert words(contract_set(word, [("A", "D")])) == {"1_B0_C"}

    def test_contracting_everything_leaves_the_null_string(self):
        word = word_set((A, B), {"A": 0, "B": 0})
        assert words(contract_set(word, [("A", "B")])) == {"ε"}

    def test_set_contraction_drops_annihilated_words(self):
        s = word_set(
            (A, B, C, D),
            {"A": 0, "B": 1, "C": 0, "D": 1},
            {"A": 0, "B": 0, "C": 0, "D": 1},
            {"A": 1, "B": 1, "C": 0, "D": 1},
        )
        assert words(contract_set(s, [("A", "D")])) == {"1_B0_C"}

    def test_no_pairs_is_identity(self):
        s = WordSet((A, B), frozenset({0b01, 0b11}))
        out = contract_set(s, [])
        assert out.masks == s.masks
        assert out.universe == s.universe

    def test_overlapping_pairs_rejected(self):
        s = full_set([A, B, C])
        with pytest.raises(ValueError):
            contract_set(s, [("A", "B"), ("A", "C")])

    def test_order_independence(self):
        rng = random.Random(23)
        universe = tuple(Label(n) for n in "ABEF")
        for _ in range(500):
            masks = frozenset(rng.sample(range(16), rng.randint(0, 16)))
            s = WordSet(universe, masks)
            one = contract_set(contract_set(s, [("A", "E")]), [("B", "F")])
            other = contract_set(contract_set(s, [("B", "F")]), [("A", "E")])
            both = contract_set(s, [("A", "E"), ("B", "F")])
            assert one.masks == other.masks == both.masks


class TestComposeSets:
    """The paper's composition J1 *_H J2: concatenate, then contract H."""

    def test_worked_pairing(self):
        e, f, g, h = (Label(n) for n in "EFGH")
        lhs = word_set((A, B, C, D), {"A": 0, "B": 1, "C": 0, "D": 1})
        rhs = word_set((e, f, g, h), {"E": 0, "F": 1, "G": 0, "H": 1})
        out = contract_set(concat(lhs, rhs), [("A", "E"), ("B", "F")])
        assert words(out) == {"0_C1_D0_G1_H"}

    def test_no_pairs_is_concatenation(self):
        left, right = full_set([A]), full_set([B])
        assert contract_set(concat(left, right), []).masks == concat(left, right).masks

    def test_singletons_reduce_to_word_contraction(self):
        left = WordSet((A,), frozenset({1}))
        right = WordSet((B,), frozenset({1}))
        assert words(contract_set(concat(left, right), [("A", "B")])) == {"ε"}
        mismatch = contract_set(concat(left, WordSet((B,), frozenset({0}))), [("A", "B")])
        assert len(mismatch) == 0


class TestBuildD:
    def test_single_system(self):
        assert words(build_D(parse_type("A"))) == {"0_A"}

    def test_trivial_type(self):
        d = build_D(parse_type("I"))
        assert len(d) == 0
        assert d.universe == ()

    def test_channel(self):
        assert words(build_D(parse_type("A->B"))) == {"0_A0_B", "1_A0_B"}

    def test_tensor_of_two_channels(self):
        d = build_D(parse_type("(A->B)*(C->D)"))
        assert words(d) == {
            "0_A0_B0_C0_D",
            "1_A0_B0_C0_D",
            "0_A0_B1_C0_D",
            "1_A0_B1_C0_D",
            "1_A1_B0_C0_D",
            "1_A1_B1_C0_D",
            "0_A0_B1_C1_D",
            "1_A0_B1_C1_D",
        }

    def test_empty_side_beside_a_wide_one(self):
        # W of the 63 labels left of an empty D is never enumerated, nor its length taken
        x = parse_type("(" + "*".join(f"A{i}" for i in range(64)) + ")->I")
        assert len(build_D(x)) == word_count(x) == 0

    def test_second_order_map_count(self):
        assert len(build_D(parse_type("(A->B)->(C->D)"))) == 10

    def test_bar_is_the_traceless_complement(self):
        rng = random.Random(29)
        for _ in range(200):
            x = random_type(rng, max_systems=6)
            assert build_D(bar(x)).masks == complement_bar(build_D(x)).masks

    @given(type_exprs(max_systems=6, dims=(2, 3)))
    def test_double_bar_restores_the_word_set(self, x):
        assert build_D(bar(bar(x))).masks == build_D(x).masks

    def test_word_count_matches_enumeration(self):
        rng = random.Random(37)
        for _ in range(300):
            x = random_type(rng, max_systems=8, dims=(2, 3))
            assert word_count(x) == len(build_D(x))

    def test_duplicate_label_rejected(self):
        for text in ("A->A", "(A->B)*(C->A)", "B*A*B"):
            with pytest.raises(DuplicateLabelError):
                build_D(parse_type(text))
            with pytest.raises(DuplicateLabelError):
                word_count(parse_type(text))

    def test_subterms_keep_no_tree(self):
        # the type's own flat tree serves the whole build
        x = parse_type("((A->B)*(C->D))->(E*~F)")
        build_D(x)
        assert "_flat_tree" in x.__dict__
        # I is one shared object, which other callers may have walked
        subterms = [node for node in x.walk() if node is not TRIVIAL and node is not x]
        assert not any("_flat_tree" in node.__dict__ for node in subterms)

    def test_cache_holds_whole_types(self):
        build_D.cache_clear()
        build_D(parse_type("*".join(f"(A{i}->B{i})" for i in range(10))))
        assert build_D.cache_info().currsize == 1

    def test_cache_does_not_hold_a_set_per_type(self):
        # four distinct 12-channel types, 531440 words each, built in a
        # fork of a fresh process: an exec'd process starts from its
        # parent's peak RSS, a fork from its own
        script = """
import os, resource, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
from hotypes import build_D, parse_type
peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
for prefix in "PQRS":
    build_D(parse_type("*".join(f"({prefix}A{i}->{prefix}B{i})" for i in range(12))))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
info = build_D.cache_info()
print(info.currsize, info.maxsize, *peaks)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=120
        )
        assert result.returncode == 0, result.stderr
        currsize, maxsize, start, *peaks = map(int, result.stdout.split())
        assert currsize <= maxsize
        # the second build runs beside the first set; later ones add no set
        one_build = peaks[0] - start
        assert peaks[1] - peaks[0] < one_build
        assert peaks[3] - peaks[1] < one_build / 2

    def test_all_ones_never_appears(self):
        rng = random.Random(31)
        for _ in range(200):
            x = random_type(rng, max_systems=7)
            d = build_D(x)
            assert all_ones(d.universe).bits not in d.masks

    @given(type_exprs(max_systems=6))
    def test_sandwich_inclusion(self, x):
        analysis = io_partition(x)
        d = build_D(x)
        lower = concat(
            WordSet(
                canonical_universe(analysis.inputs),
                frozenset({all_ones(analysis.inputs).bits}),
            ),
            traceless_set(analysis.outputs),
        )
        upper = concat(full_set(analysis.inputs), traceless_set(analysis.outputs))
        assert word_is_subset(lower, d)
        assert word_is_subset(d, upper)


class TestTensorClosedForm:
    def test_two_states(self):
        x, y = parse_type("A"), parse_type("B")
        assert words(build_D(tensor(x, y))) == {"1_A0_B", "0_A1_B", "0_A0_B"}

    def test_trivial_right_factor(self):
        x = parse_type("(A->B)->C")
        assert build_D(tensor(x, parse_type("I"))).masks == build_D(x).masks

    def test_matches_recursive_builder(self):
        # the arrow-only recursion of conftest is the independent oracle
        rng = random.Random(41)
        for n in range(1500):
            x = _tensor_type(rng) if n % 3 else random_type(rng, max_systems=7, dims=(2, 3))
            if n % 4 == 0:
                names = [a.name for a in io_partition(x).elementary]
                x = _renamed(x, dict(zip(names, rng.sample(names, len(names)))))
            assert build_D(x) == reference_D(x)


class TestThreeClassRule:
    """build_D splits the words of every subterm into D, the all-ones word
    and the rest R, and builds only what its caller needs."""

    def _types(self, seed: int, count: int):
        rng = random.Random(seed)
        for n in range(count):
            x = _tensor_type(rng) if n % 2 else random_type(rng, max_systems=7, dims=(2, 3))
            if n % 3 == 0:
                names = [a.name for a in io_partition(x).elementary]
                x = _renamed(x, dict(zip(names, rng.sample(names, len(names)))))
            yield bar(x) if n % 5 == 0 else x

    def test_rest_is_the_traceless_complement_of_D(self):
        # R_x is D of the bar of x
        for x in self._types(53, 1200):
            assert build_D(bar(x)) == complement_bar(reference_D(x))

    @pytest.fixture
    def built_sets(self, monkeypatch):
        """The per-node lists made while the test runs, and the length of
        each list frozen: build_D starts each list of an arrow's D or R as
        an empty ``list()``, here a recorder; the other nodes hold a
        label's [0] or share a side's lists, and only the root's D is
        frozen."""
        made: list[list] = []
        frozen: list[int] = []

        class Recording(list):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def freeze(masks):
            frozen.append(len(masks))
            return frozenset(masks)

        monkeypatch.setattr(hotypes.strings, "list", Recording, raising=False)
        monkeypatch.setattr(hotypes.strings, "frozenset", freeze, raising=False)
        return made, frozen

    def _built(self, x, recorded) -> tuple[list[list], int]:
        """The lists a cold build_D(x) makes, and |D_x|, after checking
        that no list repeats a word or is longer than D_x and that the
        root's list is frozen with exactly word_count(x) words."""
        made, frozen = recorded
        build_D.cache_clear()
        made.clear(), frozen.clear()
        size = len(build_D(x))
        assert frozen == [size] and size == word_count(x), x
        for masks in made:
            assert len(set(masks)) == len(masks) <= size, x
        return made, size

    def test_no_set_is_larger_than_the_result(self, built_sets):
        for x in self._types(59, 2000):
            self._built(x, built_sets)

    def test_no_set_is_larger_than_the_result_on_families(self, built_sets):
        states = "*".join(f"A{i}" for i in range(20))
        chain = [f"A{i}" for i in range(16)]
        families = [
            f"~({states})",
            f"(~({states}))*C",
            reduce(lambda left, part: f"({left})->{part}", chain),
            reduce(lambda right, part: f"{part}->({right})", reversed(chain)),
            "*".join(f"(A{i}->B{i})" for i in range(10)),
        ]
        for text in families:
            x = parse_type(text)
            made, size = self._built(x, built_sets)
            # all lists together hold at most twice the words of D_x on these
            # families (the right-nested chain 2|D_x| - 2), besides a label's [0]
            assert made and sum(map(len, made)) <= 2 * size + len(_flat_tree(x).left), text


def _tensor_type(rng: random.Random, max_systems: int = 7):
    """A random type built mostly from tensors: nested products of either
    association, I factors, duals of products, qubit and qutrit labels."""
    counter = iter(range(max_systems))

    def leaf():
        return Elementary(Label(f"L{next(counter)}", rng.choice((2, 2, 3))))

    def build(n: int):
        roll = rng.random()
        if n == 1:
            return leaf() if roll < 0.6 else bar(leaf()) if roll < 0.8 else tensor(TRIVIAL, leaf())
        split = rng.randint(1, n - 1)
        left, right = build(split), build(n - split)
        if roll < 0.5:
            return tensor(left, right)
        if roll < 0.65:
            return bar(tensor(left, right))
        if roll < 0.8:
            return tensor(tensor(left, TRIVIAL), right)
        return Arrow(left, right)

    return build(rng.randint(1, max_systems))


def _renamed(x, mapping: dict[str, str]):
    """x with every label renamed through the mapping."""
    if isinstance(x, Elementary):
        return Elementary(Label(mapping[x.label.name], x.label.dimension))
    if isinstance(x, Trivial):
        return TRIVIAL
    return Arrow(_renamed(x.left, mapping), _renamed(x.right, mapping))


class TestPromotion:
    def test_flip_sweep(self):
        rng = random.Random(41)
        for _ in range(150):
            x = random_type(rng, max_systems=6)
            analysis = io_partition(x)
            d = build_D(x)
            position = {a.name: i for i, a in enumerate(d.universe)}
            for mask in d.masks:
                for a in analysis.inputs:
                    if not (mask >> position[a.name]) & 1:
                        assert (mask | (1 << position[a.name])) in d.masks
                for b in analysis.outputs:
                    if (mask >> position[b.name]) & 1:
                        assert (mask & ~(1 << position[b.name])) in d.masks


class TestCriticalSets:
    def test_tensor_example_single_pairs(self):
        x = parse_type("(A->B)*(C->D)")
        assert words(critical_set_multi(x, [("A", "B")])) == {"0_A0_B0_C1_D", "0_A0_B1_C1_D"}
        assert words(critical_set_multi(x, [("C", "B")])) == {"0_A0_B0_C1_D", "1_A0_B0_C1_D"}
        assert words(critical_set_multi(x, [("A", "D")])) == {"0_A1_B0_C0_D", "0_A1_B1_C0_D"}

    def test_tensor_example_joint_pairs(self):
        # matched bits follow the actual pairing (C with B, A with D)
        x = parse_type("(A->B)*(C->D)")
        assert words(critical_set_multi(x, [("C", "B"), ("A", "D")])) == {
            "0_A0_B0_C0_D",
            "0_A1_B1_C0_D",
            "1_A0_B0_C1_D",
        }

    def test_plain_channel(self):
        assert words(critical_set_multi(parse_type("A->B"), [("A", "B")])) == {"0_A0_B"}

    def test_single_pair_degenerates_to_critical_set(self):
        # one pair: bit 0 at both labels, 1 on every other output, any
        # bits on the other inputs
        rng = random.Random(43)
        for _ in range(50):
            x = random_type_with_io(rng, max_systems=6)
            analysis = io_partition(x)
            a = min(analysis.inputs)
            b = min(analysis.outputs)
            s = critical_set_multi(x, [(a, b)])
            others = [c for c in analysis.outputs if c != b]
            expected = {
                w.render()
                for w in full_set(s.universe)
                if not w.bit(a) and not w.bit(b) and all(w.bit(c) for c in others)
            }
            assert words(s) == expected

    def test_size_formula(self):
        rng = random.Random(47)
        checked = 0
        while checked < 50:
            x = random_type_with_io(rng, max_systems=7, min_inputs=2, min_outputs=2)
            analysis = io_partition(x)
            ins = sorted(analysis.inputs)[:2]
            outs = sorted(analysis.outputs)[:2]
            pairs = list(zip(ins, outs))
            s = critical_set_multi(x, pairs)
            free = len(analysis.inputs) - len(pairs)
            assert len(s) == 2**free * (2 ** len(pairs) - 1)
            checked += 1

    def test_word_budget_is_checked_before_the_set_is_built(self, monkeypatch):
        x = parse_type("(A->B)*(C->D)*(E->F)")
        pairs = [("A", "B"), ("C", "D")]  # (2^2 - 1) 2^1 words, E free
        monkeypatch.setattr(hotypes.strings, "WORD_BUDGET", 6)
        assert len(critical_set_multi(x, pairs)) == 6
        monkeypatch.setattr(hotypes.strings, "WORD_BUDGET", 5)
        with pytest.raises(ValueError, match="need 6 words, over the budget of 5"):
            critical_set_multi(x, pairs)
        monkeypatch.undo()
        channels = parse_type("*".join(f"(A{i}->B{i})" for i in range(24)))
        with pytest.raises(ValueError, match=f"need {2**23} words, over the budget of {2**22}"):
            critical_set_multi(channels, [("A0", "B0")])

    def test_rejects_wrong_roles(self):
        x = parse_type("(A->B)*(C->D)")
        with pytest.raises(ValueError):
            critical_set_multi(x, [("B", "A")])
        with pytest.raises(ValueError):
            critical_set_multi(x, [("A", "B"), ("C", "B")])
