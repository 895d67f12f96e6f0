"""Word bits follow the type's textual label order; sorted-name order shows
only in rendering, iteration, witnesses and the oracle's dense layout.

Types here carry their labels in shuffled textual order, so a result that
silently depended on sorted universes would change.
"""

from __future__ import annotations

import json
import random
import re
import time

import numpy as np
import pytest

from hotypes import (
    Arrow,
    BitWord,
    ContractionSpec,
    DuplicateLabelError,
    Elementary,
    Label,
    OperatorMatrix,
    Reason,
    WordSet,
    build_D,
    check_contraction,
    check_equivalence,
    check_inclusion,
    elementary_systems,
    io_partition,
    parse_type,
    signals,
)
from hotypes.cli import main
from hotypes.oracle import _blocks
from hotypes.strings import canonical_universe, critical_set_multi, word_count

from conftest import (
    min_word,
    random_type,
    random_type_with_io,
    word_difference,
    word_intersection,
    word_is_subset,
    word_mask,
    word_union,
)


def shuffled_labels(rng: random.Random, x):
    """x with its label names permuted at random, dimensions kept."""
    labels = elementary_systems(x)
    names = [a.name for a in labels]
    rng.shuffle(names)
    mapping = dict(zip((a.name for a in labels), names))

    def rename(node):
        if isinstance(node, Elementary):
            return Elementary(Label(mapping[node.label.name], node.label.dimension))
        if isinstance(node, Arrow):
            return Arrow(rename(node.left), rename(node.right))
        return node

    return rename(x)


def permuted_types(seed: int, count: int, **kwargs) -> list:
    rng = random.Random(seed)
    return [shuffled_labels(rng, random_type_with_io(rng, **kwargs)) for _ in range(count)]


def test_word_sets_use_textual_bits_and_render_in_sorted_name_order():
    unsorted = 0
    for x in permuted_types(71, 200, max_systems=7, dims=(2, 3)):
        d = build_D(x)
        assert d.universe == elementary_systems(x)
        unsorted += list(d.universe) != sorted(d.universe)
        rendered = d.render()
        assert rendered == sorted(rendered)
        assert len(set(rendered)) == len(rendered) == word_count(x)
        names = sorted(a.name for a in d.universe)
        for word in rendered:
            assert re.findall(r"[01]_([A-Z])", word) == names
    assert unsorted > 150


def test_contraction_witness_is_the_smallest_rendered_hit():
    rejected = 0
    for x in permuted_types(73, 150, max_systems=6):
        analysis = io_partition(x)
        d = build_D(x)
        for a in analysis.inputs_ordered():
            for b in analysis.outputs_ordered():
                verdict = check_contraction(x, ContractionSpec.of([(a, b)]))
                hits = word_intersection(d, critical_set_multi(x, [(a, b)]))
                assert verdict.admissible == (not hits.masks)
                if verdict.admissible:
                    continue
                rejected += 1
                assert verdict.witness.render() == min(hits.render())
                assert verdict.witness.universe == canonical_universe(analysis.elementary)
    assert rejected > 50


def test_inclusion_witness_is_the_smallest_rendered_extra_word():
    rng = random.Random(79)
    rejected = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        x = shuffled_labels(rng, random_type(rng, max_systems=n, min_systems=n))
        y = shuffled_labels(rng, random_type(rng, max_systems=n, min_systems=n))
        verdict = check_inclusion(x, y)
        if verdict.reason is not Reason.NOT_INCLUDED:
            continue
        rejected += 1
        dx, dy = build_D(x), build_D(y)
        assert verdict.witness.render() == min(word_difference(dx, dy).render())
        assert verdict.witness.universe == canonical_universe(elementary_systems(x))
        assert verdict.witness in dx and verdict.witness not in dy
    assert rejected > 20


def test_set_operations_across_label_orders():
    rng = random.Random(83)
    for x in permuted_types(83, 100, max_systems=6):
        d = build_D(x)
        order = list(d.universe)
        rng.shuffle(order)
        moved = WordSet(
            tuple(order),
            frozenset(word_mask(order, {a.name: w.bit(a) for a in w.universe}) for w in d),
        )
        assert moved.render() == d.render()
        assert word_is_subset(d, moved) and word_is_subset(moved, d)
        assert all(w in moved for w in d) and all(w in d for w in moved)
        assert word_intersection(d, moved).masks == d.masks
        assert not word_difference(moved, d).masks
        assert word_union(d, moved) == d


def test_set_operations_across_label_orders_past_one_byte():
    # universes of 9 to 63 labels re-index several bytes of each mask
    rng = random.Random(89)
    for size in (9, 16, 17, 40, 63):
        labels = [Label(f"L{i}") for i in range(size)]
        order = labels[:]
        rng.shuffle(order)
        words = [{a.name: rng.randrange(2) for a in labels} for _ in range(50)]
        a = WordSet(tuple(labels), frozenset(word_mask(labels, w) for w in words))
        b = WordSet(tuple(order), frozenset(word_mask(order, w) for w in words[::2]))
        assert word_is_subset(b, a) and not word_is_subset(a, b)
        assert word_intersection(a, b).render() == b.render()
        assert set(word_difference(a, b).render()) == set(a.render()) - set(b.render())
        assert word_union(a, b).masks == a.masks
        assert all(w in a for w in b)


def test_permuted_channels_and_supermaps():
    assert check_equivalence(parse_type("(C->D)*(A->B)"), parse_type("(A->B)*(C->D)")).admissible
    narrow, wide = parse_type("((D->C)->(B->A))"), parse_type("((C*B)->(A*D))")
    assert check_inclusion(narrow, wide).admissible
    converse = check_inclusion(wide, narrow)
    assert converse.reason is Reason.NOT_INCLUDED
    assert converse.witness.render() == "1_A0_B0_C0_D"
    assert converse.witness in build_D(wide) and converse.witness not in build_D(narrow)


def test_oracle_verify_on_permuted_channels(capsys):
    text = "(D->C)*(B->A)"
    code = main(["--json", "oracle", "verify", text, "--trials", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["failures"] == 0
    x = parse_type(text)
    want = {f"{a}:{b}": signals(x, a, b).relation.value for a in "DB" for b in "CA"}
    assert {entry["pair"]: entry["relation"] for entry in report["pairs"]} == want


def _sorted_bits(universe, mask: int) -> list[tuple[str, int]]:
    """The word's (name, bit) pairs in sorted-name order, by sorting names."""
    return sorted((a.name, mask >> i & 1) for i, a in enumerate(universe))


def test_shown_order_equals_sorted_name_references():
    # names such as B10 < B2 sort apart from their textual order
    rng = random.Random(101)
    for size in (1, 2, 3, 5, 9, 14, 40, 1000):
        names = rng.sample([f"{c}{n}" for c in "ABCZ" for n in range(400)], size)
        universe = tuple(Label(name, rng.choice((2, 3))) for name in names)
        assert size < 3 or list(universe) != sorted(universe)
        masks = {rng.getrandbits(size) for _ in range(30)}
        words = WordSet(universe, frozenset(masks))

        def key(mask):
            return [bit for _, bit in _sorted_bits(universe, mask)]

        for mask in masks:
            expected = "".join(f"{bit}_{name}" for name, bit in _sorted_bits(universe, mask))
            assert BitWord(universe, mask).render() == expected
        ordered = sorted(masks, key=key)
        assert [w.bits for w in words] == ordered
        assert words.render() == [BitWord(universe, m).render() for m in ordered]
        least = min_word(words)
        assert least.universe == tuple(sorted(universe, key=lambda a: a.name))
        assert least.render() == BitWord(universe, ordered[0]).render()
        blocks = [
            tuple(slice(0, 1) if bit else slice(1, None) for _, bit in _sorted_bits(universe, m)) for m in ordered
        ]
        assert list(_blocks(words)) == blocks


def test_rendering_a_1000_label_witness_is_fast():
    # 500 channels: the witness of A7:B7 is over 1000 labels in sorted-name order
    x = parse_type("*".join(f"(A{i}->B{i})" for i in range(500)))
    witness = check_contraction(x, ContractionSpec.from_text("A7:B7", x)).witness
    witness.render()  # warm
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        rendered = witness.render()
        runs.append(time.perf_counter() - start)
    assert min(runs) < 0.01  # the parent's label scans took about 30 ms
    assert rendered == "".join(f"{bit}_{name}" for name, bit in _sorted_bits(witness.universe, witness.bits))


def test_a_repeated_name_is_refused_where_words_are_shown():
    universe = (Label("B"), Label("A"), Label("A", 3))
    message = "label 'A' occurs more than once"
    with pytest.raises(DuplicateLabelError, match=message):
        BitWord(universe, 0).render()
    with pytest.raises(DuplicateLabelError, match=message):
        list(WordSet(universe, frozenset({0, 1})))
    with pytest.raises(DuplicateLabelError, match=message):
        canonical_universe(universe)
    with pytest.raises(DuplicateLabelError, match=message):
        OperatorMatrix((Label("A"), Label("A")), np.eye(4))
