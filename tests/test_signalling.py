"""Signalling relations: structural algorithm, word-set agreement, matrix."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given

import hotypes
from hotypes import (
    Arrow,
    ContractionSpec,
    Elementary,
    Label,
    Relation,
    bar,
    check_contraction,
    crosscheck,
    io_partition,
    minimal_enclosing,
    parse_type,
    signalling_matrix,
    signals,
    tensor,
)
from hotypes import signalling, type_core
from hotypes.type_core import _flat_tree

from conftest import full_signalling, random_type, random_type_with_io, reference_rows, type_exprs


def _chain(n: int, nest) -> str:
    """Labels S0 … S(n-1) as the left-nested chain ((S0->S1)->S2)->… or
    the right-nested chain S0->(S1->(S2->…))."""
    names = [f"S{i}" for i in range(n)]
    if nest == "left":
        text = names[0]
        for name in names[1:]:
            text = f"({text}->{name})"
    else:
        text = names[-1]
        for name in reversed(names[:-1]):
            text = f"({name}->{text})"
    return text


def _row_keys(rows) -> list[tuple]:
    return [(r.source, r.target, r.relation, id(r.enclosing)) for r in rows]


class TestSignals:
    def test_comb_back_edge_is_silent(self):
        x = parse_type("(A->B)->(C->D)")
        verdict = signals(x, "B", "A")
        assert verdict.relation is Relation.NO_SIGNALLING
        assert verdict.enclosing == parse_type("A->B")

    def test_comb_forward_edges_signal(self):
        x = parse_type("(A->B)->(C->D)")
        assert signals(x, "C", "A").relation is Relation.FULL_SIGNALLING
        assert signals(x, "C", "D").relation is Relation.FULL_SIGNALLING
        assert signals(x, "B", "D").relation is Relation.FULL_SIGNALLING

    def test_tensor_of_channels_is_nonsignalling_across(self):
        x = parse_type("(A->B)*(C->D)")
        assert signals(x, "A", "D").relation is Relation.NO_SIGNALLING
        assert signals(x, "C", "B").relation is Relation.NO_SIGNALLING
        assert signals(x, "A", "B").relation is Relation.FULL_SIGNALLING

    def test_role_preconditions(self):
        x = parse_type("A->B")
        with pytest.raises(ValueError):
            signals(x, "B", "A")
        with pytest.raises(ValueError):
            signals(x, "A", "Z")


class TestFullSignalling:
    def test_plain_channel(self):
        assert full_signalling(parse_type("A->B"), "A", "B")

    def test_tensor_padding_keeps_full_signalling(self):
        x = parse_type("(A->B)*(C->D)")
        assert full_signalling(x, "A", "B")
        assert full_signalling(x, "C", "D")

    def test_exclusive_with_no_signalling(self):
        x = parse_type("(A->B)*(C->D)")
        assert not full_signalling(x, "A", "D")
        assert not full_signalling(x, "C", "B")

    def test_agrees_with_structural_algorithm(self):
        rng = random.Random(83)
        for _ in range(200):
            x = random_type_with_io(rng, max_systems=6)
            analysis = io_partition(x)
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():
                    structural = signals(x, a, b).relation
                    assert full_signalling(x, a, b) == (
                        structural is Relation.FULL_SIGNALLING
                    )


class TestSignallingMatrix:
    def test_single_channel(self):
        rows = signalling_matrix(parse_type("A->B"))
        assert len(rows) == 1
        assert rows[0].relation is Relation.FULL_SIGNALLING

    def test_tensor_rows(self):
        rows = signalling_matrix(parse_type("(A->B)*(C->D)"))
        by_pair = {(r.source.name, r.target.name): r.relation for r in rows}
        assert by_pair == {
            ("A", "B"): Relation.FULL_SIGNALLING,
            ("A", "D"): Relation.NO_SIGNALLING,
            ("C", "B"): Relation.NO_SIGNALLING,
            ("C", "D"): Relation.FULL_SIGNALLING,
        }

    def test_comb_rows(self):
        rows = signalling_matrix(parse_type("(A->B)->(C->D)"))
        by_pair = {(r.source.name, r.target.name): r.relation for r in rows}
        assert by_pair == {
            ("B", "A"): Relation.NO_SIGNALLING,
            ("B", "D"): Relation.FULL_SIGNALLING,
            ("C", "A"): Relation.FULL_SIGNALLING,
            ("C", "D"): Relation.FULL_SIGNALLING,
        }

    def test_row_order_inputs_then_outputs_textual(self):
        rows = signalling_matrix(parse_type("(A->B)->(C->D)"))
        assert [(r.source.name, r.target.name) for r in rows] == [
            ("B", "A"),
            ("B", "D"),
            ("C", "A"),
            ("C", "D"),
        ]

    def test_no_inputs_gives_empty_matrix(self):
        assert signalling_matrix(parse_type("A")) == []

    def test_rows_equal_pairwise_verdicts(self):
        rng = random.Random(107)
        for _ in range(200):
            x = random_type(rng, max_systems=8, dims=(2, 3))
            analysis = io_partition(x)
            assert signalling_matrix(x) == [
                signals(x, a, b)
                for a in analysis.inputs_ordered()
                for b in analysis.outputs_ordered()
            ]


    def test_rows_equal_the_pair_by_pair_climb(self):
        rng = random.Random(1818)
        types = [random_type(rng, max_systems=10, dims=(2, 3)) for _ in range(500)]
        types += [parse_type(_chain(n, nest)) for n in (2, 3, 17, 40, 60) for nest in ("left", "right")]
        both = f"({_chain(30, 'left')})->({_chain(30, 'right').replace('S', 'T')})"
        types += [parse_type("~" * 40 + "(A->B)"), parse_type(both)]
        pairs = 0
        for x in types:
            rows = signalling_matrix(x)
            assert _row_keys(rows) == _row_keys(reference_rows(x))
            pairs += len(rows)
        assert pairs > 5000


class TestFrontEndWork:
    # the five fixed families of the ``signal`` benchmark workload
    FAMILIES = [
        "*".join(f"(A{i}->B{i})" for i in range(7)),
        "*".join(f"(A{i}->B{i})" for i in range(8)),
        _chain(16, "left"),
        _chain(18, "left"),
        _chain(24, "right"),
    ]

    @pytest.mark.parametrize("text", FAMILIES)
    def test_one_walk_and_no_rebuild(self, monkeypatch, text):
        walks = []
        walk = type_core._walk_tree
        monkeypatch.setattr(type_core, "_walk_tree", lambda x: walks.append(x) or walk(x))
        x = parse_type(text)
        built = []
        arrow_init = Arrow.__init__
        with monkeypatch.context() as patch:
            patch.setattr(Arrow, "__init__", lambda self, *a: built.append(self) or arrow_init(self, *a))
            relabeled, renamed = hotypes.relabel_unique(x)
        assert relabeled is x and renamed == {} and built == []
        signalling_matrix(relabeled)
        assert walks == [x]

    @pytest.mark.parametrize("nest", ["right", "left"])
    def test_one_climb_per_input(self, nest):
        # parent steps of the climbs plus one step per verdict stay within
        # inputs * (depth + outputs); a climb per pair takes about nine
        # thousand parent steps on the left-nested chain alone
        x = parse_type(_chain(60, nest))
        tree = _flat_tree(x)
        depth = 0
        for leaf in tree.leaf_node:
            hops, node = 0, leaf
            while tree.parent[node] != -1:
                hops, node = hops + 1, tree.parent[node]
            depth = max(depth, hops)
        steps = []

        class Counted(tuple):
            def __getitem__(self, node):
                steps.append(node)
                return tuple.__getitem__(self, node)

        rows = signalling._rows(x, tree._replace(parent=Counted(tree.parent)))
        inputs, outputs = sum(tree.k), len(tree.k) - sum(tree.k)
        assert len(rows) == inputs * outputs
        assert len(steps) + len(rows) <= inputs * (depth + outputs)
        assert _row_keys(rows) == _row_keys(reference_rows(x))


class TestCrosscheck:
    def test_tensor_example(self):
        assert crosscheck(parse_type("(A->B)*(C->D)"))

    def test_vacuous_for_pure_state(self):
        assert crosscheck(parse_type("A"))

    def test_random_sweep(self):
        rng = random.Random(89)
        for _ in range(300):
            assert crosscheck(random_type(rng, max_systems=7))

    def test_mixed_dimensions(self):
        # the word calculus is dimension-blind, so the equivalence must
        # survive qutrits and ququarts
        rng = random.Random(91)
        for _ in range(100):
            assert crosscheck(random_type(rng, max_systems=6, dims=(2, 3, 4)))

    @given(type_exprs(max_systems=6, dims=(2, 3)))
    def test_property(self, x):
        assert crosscheck(x)

    def test_agreement_with_contraction_verdicts(self):
        rng = random.Random(97)
        for _ in range(100):
            x = random_type_with_io(rng, max_systems=6)
            analysis = io_partition(x)
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():
                    admissible = check_contraction(
                        x, ContractionSpec.of([(a, b)])
                    ).admissible
                    assert admissible == (
                        signals(x, a, b).relation is Relation.NO_SIGNALLING
                    )


class TestStability:
    def test_relations_survive_tensor_padding(self):
        rng = random.Random(101)
        for _ in range(100):
            x = random_type_with_io(rng, max_systems=4)
            pad = _suffixed(random_type(rng, max_systems=3), "_p")
            padded = tensor(x, pad)
            analysis = io_partition(x)
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():
                    assert signals(x, a, b).relation == signals(padded, a, b).relation

    def test_bar_swaps_roles_and_flips_relations(self):
        rng = random.Random(103)
        for _ in range(150):
            x = random_type_with_io(rng, max_systems=6)
            dual = bar(x)
            analysis = io_partition(x)
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():
                    # (a, b) on x: no-signalling exactly when (b, a) on the
                    # dual is full-signalling, by the double-bar involution
                    forward = signals(x, a, b).relation
                    backward = signals(dual, b, a).relation
                    assert (forward is Relation.NO_SIGNALLING) == (
                        backward is Relation.FULL_SIGNALLING
                    )


def _suffixed(x, suffix: str):
    from hotypes import TRIVIAL, Trivial

    def rename(node):
        if isinstance(node, Elementary):
            return Elementary(Label(node.label.name + suffix, node.label.dimension))
        if isinstance(node, Trivial):
            return TRIVIAL
        return Arrow(rename(node.left), rename(node.right))

    return rename(x)


class TestComplexity:
    def test_structural_path_never_builds_word_sets(self):
        # 60 systems: any D-set construction would need 2^60 words, so a
        # sub-second answer proves the algorithm stays structural
        chain = Elementary(Label("S0"))
        for i in range(1, 60):
            chain = Arrow(chain, Elementary(Label(f"S{i}")))
        analysis = io_partition(chain)
        a = sorted(analysis.inputs)[0]
        b = sorted(analysis.outputs)[0]
        start = time.perf_counter()
        verdict = signals(chain, a, b)
        assert time.perf_counter() - start < 1.0
        assert verdict.relation in (Relation.NO_SIGNALLING, Relation.FULL_SIGNALLING)
        assert minimal_enclosing(chain, a, b) is not None

    def test_full_matrix_on_forty_labels(self):
        x = parse_type("*".join(f"(A{i}->B{i})" for i in range(20)))
        start = time.perf_counter()
        rows = signalling_matrix(x)
        assert time.perf_counter() - start < 1.0
        assert len(rows) == 400
        full = {(r.source.name, r.target.name) for r in rows if r.relation is Relation.FULL_SIGNALLING}
        assert full == {(f"A{i}", f"B{i}") for i in range(20)}

    def test_matrix_past_the_word_set_cap(self, monkeypatch):
        # 200 labels, over three times the 63-label word-set cap, with the
        # io_partition fold and the word-set builder made to fail
        def refuse(*args, **kwargs):
            raise AssertionError("io_partition or build_D was called")

        for module in (hotypes, hotypes.type_core, hotypes.strings, hotypes.signalling):
            for name in ("io_partition", "build_D"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        x = parse_type("*".join(f"(A{i}->B{i})" for i in range(100)))
        start = time.perf_counter()
        rows = signalling_matrix(x)
        assert time.perf_counter() - start < 1.0
        assert len(rows) == 100 * 100
        full = {(r.source.name, r.target.name) for r in rows if r.relation is Relation.FULL_SIGNALLING}
        assert full == {(f"A{i}", f"B{i}") for i in range(100)}
