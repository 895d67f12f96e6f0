"""Grammar, relabeling, K parity, io partition, subtypes."""

from __future__ import annotations

import gc
import pickle
import random
import re
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given

from hotypes import (
    Arrow,
    ContractionSpec,
    DuplicateLabelError,
    Elementary,
    Label,
    Relation,
    TRIVIAL,
    TypeSyntaxError,
    bar,
    check_contraction,
    crosscheck,
    elementary_systems,
    io_partition,
    k_value,
    minimal_enclosing,
    parse_type,
    relabel_unique,
    render_type,
    signals,
    tensor,
)

from hotypes import type_core
from hotypes.oracle import basis_dimension
from hotypes.strings import _count_arrow, word_count
from hotypes.type_core import _tokenize

from conftest import (
    random_type,
    reference_equal,
    reference_fold,
    reference_parse,
    reference_relabel_unique,
    reference_tokenize,
    type_exprs,
)


def el(name: str, dim: int = 2) -> Elementary:
    return Elementary(Label(name, dim))


class TestParse:
    def test_arrow_base_case(self):
        assert parse_type("(A->B)") == Arrow(el("A"), el("B"))

    def test_bar_desugars_to_arrow_onto_trivial(self):
        assert parse_type("~(A->B)") == Arrow(Arrow(el("A"), el("B")), TRIVIAL)

    def test_tensor_desugars_through_double_bar(self):
        expected = Arrow(
            Arrow(Arrow(el("A"), el("B")), Arrow(Arrow(el("C"), el("D")), TRIVIAL)),
            TRIVIAL,
        )
        assert parse_type("(A->B)*(C->D)") == expected

    def test_arrow_is_right_associative(self):
        assert parse_type("A->B->C") == parse_type("A->(B->C)")

    def test_star_is_left_associative(self):
        assert parse_type("A*B*C") == parse_type("(A*B)*C")
        assert parse_type("A*B*C") != parse_type("A*(B*C)")

    def test_tilde_binds_tightest(self):
        assert parse_type("~A*B") == parse_type("(~A)*B")
        assert parse_type("~A->B") == parse_type("(~A)->B")

    def test_i_is_the_trivial_type(self):
        assert parse_type("I") == TRIVIAL
        assert parse_type("A->I") == bar(el("A"))

    def test_dimensions_come_from_the_table(self):
        x = parse_type("A->B", {"A": 3})
        assert elementary_systems(x) == (Label("A", 3), Label("B", 2))

    def test_trivial_label_cannot_get_a_dimension(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("A", {"I": 3})

    def test_dimension_below_one_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("A", {"A": 0})

    def test_dimension_one_is_exclusive_to_the_trivial_type(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("A", {"A": 1})
        with pytest.raises(ValueError):
            Label("A", 1)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(A->", 4), ("A->", 3), ("a", 0), ("A**B", 2), ("(A->B", 5), ("A)", 1),
            ("Ié", 1), ("A-B", 1),
        ],
    )
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(TypeSyntaxError) as err:
            parse_type(text)
        assert err.value.position == position
        assert "^" in err.value.caret_diagram()


# pieces that break the grammar, or sit at the edge of a token class
_NOISE = [
    "a", "z", "-", ">", "-->", "2", "07", "_", "$", "é", "λ", "→", "\u00a0", "\u2003", "\t",
    "\n", " ", "I2", "IA", "I_", "Ié", "I", "AB9", "(", ")", "~", "*", "->",
]


def _seeded_texts(seed: int, count: int) -> list[str]:
    """Rendered random types, spaced out at random, most of them then
    broken by one or two pieces of ``_NOISE`` or given trailing space."""
    rng = random.Random(seed)
    texts = ["", " ", "A ", "A->B \t", "a", "2A", "-A", "A-B", "A->-B", "I2", "IA", "I2->IA",
             "Ié", "λ", "A\u00a0->B", "(A->B))", "A->B\n", "A->~I", "A_b0->B"]
    while len(texts) < count:
        text = render_type(random_type(rng, max_systems=6), sugar=rng.random() < 0.5)
        text = "".join(c + " " * (rng.random() < 0.15) for c in text)
        for _ in range(rng.choice((0, 1, 1, 2))):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_NOISE) + text[at + rng.randint(0, 1):]
        if rng.random() < 0.2:
            text += rng.choice((" ", "  ", "\t", "\n"))
        texts.append(text)
    return texts


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except TypeSyntaxError as exc:
        return str(exc), exc.position, exc.caret_diagram()


def _bracketed(x) -> str:
    """Fully parenthesised surface text, as the benchmark workloads write
    it: ``~(x)`` and ``(x*y)`` for the sugar, ``(x->y)`` for the rest."""
    if isinstance(x, Elementary):
        return x.label.name
    if x == TRIVIAL:
        return "I"
    if (pair := type_core.as_tensor(x)) is not None:
        return f"({_bracketed(pair[0])}*{_bracketed(pair[1])})"
    if (operand := type_core.as_bar(x)) is not None:
        return f"~({_bracketed(operand)})"
    return f"({_bracketed(x.left)}->{_bracketed(x.right)})"


# the tokens of the random strings, ``$`` starting none
_PIECES = ["A", "B", "~", "*", "(", ")", "->", "I", "C1", "$", " "]
# a qutrit, and a table that gives B the trivial dimension
_TABLES = [{}, {"A": 3, "C1": 3}, {"B": 1}]


def _parse_or_error(parse, text: str, table: dict):
    try:
        x = parse(text, table)
    except TypeSyntaxError as exc:
        return str(exc), exc.position, exc.caret_diagram()
    return render_type(x), x


class TestOperatorStacks:
    """The parser without recursion against recursive descent."""

    def test_matches_recursive_descent_on_seeded_texts(self):
        rng = random.Random(2026)
        texts = _seeded_texts(19, 4000)
        while len(texts) < 10000:
            x = random_type(rng, max_systems=rng.randint(1, 12), dims=(2, 3))
            texts.append(_bracketed(x) if rng.random() < 0.7 else render_type(x, sugar=True))
        while len(texts) < 21000:
            texts.append("".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 14))))
        outcomes = []
        for n, text in enumerate(texts):
            table = _TABLES[n % 3]
            outcome = _parse_or_error(parse_type, text, table)
            assert outcome == _parse_or_error(reference_parse, text, table), text
            outcomes.append(outcome)
        parsed = sum(isinstance(outcome[1], type_core.TypeExpr) for outcome in outcomes)
        assert 5000 < parsed < len(texts) - 5000  # both kinds of text are well represented

    def test_bracketed_chains_past_the_recursion_limit(self):
        for n in (200, 2000):
            text = f"A{n - 1}"
            for i in reversed(range(n - 1)):
                text = f"(A{i}->{text})"
            x = parse_type(text)
            chain = el(f"A{n - 1}")
            for i in reversed(range(n - 1)):
                chain = Arrow(el(f"A{i}"), chain)
            assert render_type(x) == text and hash(x) == hash(chain)
        assert parse_type("(" * 5000 + "~A" + ")" * 5000) == bar(el("A"))
        with pytest.raises(TypeSyntaxError, match="expected '\\)'") as err:
            parse_type("(" * 5000 + "A" + ")" * 4999)
        assert err.value.position == 10000


class TestTokenizer:
    def test_matches_the_match_loop_on_seeded_texts(self):
        texts = _seeded_texts(20261019, 600)
        outcomes = [_tokens_or_error(_tokenize, text) for text in texts]
        assert outcomes == [_tokens_or_error(reference_tokenize, text) for text in texts]
        failed = sum(isinstance(outcome, tuple) for outcome in outcomes)
        assert 100 < failed < len(texts) - 100  # both kinds of text are well represented


class TestRender:
    def test_canonical_arrow(self):
        assert render_type(Arrow(el("A"), el("B"))) == "(A->B)"

    def test_sugar_prints_bar(self):
        assert render_type(Arrow(el("A"), TRIVIAL), sugar=True) == "~A"

    def test_sugar_prints_tensor(self):
        x = parse_type("(A->B)*(C->D)")
        assert render_type(x, sugar=True) == "(A->B)*(C->D)"

    def test_nested_tensor_keeps_association(self):
        assert render_type(parse_type("A*(B*C)"), sugar=True) == "A*(B*C)"
        assert render_type(parse_type("A*B*C"), sugar=True) == "A*B*C"

    @given(type_exprs(max_systems=6))
    def test_round_trip_canonical(self, x):
        assert parse_type(render_type(x)) == x

    @given(type_exprs(max_systems=6))
    def test_round_trip_sugar(self, x):
        assert parse_type(render_type(x, sugar=True)) == x

    def test_round_trip_seeded_sweep(self):
        rng = random.Random(20240601)
        for _ in range(1000):
            x = random_type(rng, max_systems=7)
            assert parse_type(render_type(x)) == x


class TestRelabel:
    def test_second_occurrence_gets_suffix(self):
        x = parse_type("(A->B)->A")
        relabeled, mapping = relabel_unique(x)
        assert relabeled == Arrow(Arrow(el("A"), el("B")), el("A1"))
        assert mapping == {"A1": "A"}

    def test_no_duplicates_no_renames(self):
        x = parse_type("(A->B)")
        relabeled, mapping = relabel_unique(x)
        assert relabeled == x
        assert mapping == {}

    def test_left_to_right_fresh_names(self):
        relabeled, mapping = relabel_unique(parse_type("(A->A)->A"))
        assert relabeled == Arrow(Arrow(el("A"), el("A1")), el("A2"))
        assert mapping == {"A1": "A", "A2": "A"}

    def test_fresh_names_avoid_existing_labels(self):
        relabeled, mapping = relabel_unique(parse_type("A1->(A->A)"))
        assert relabeled == Arrow(el("A1"), Arrow(el("A"), el("A2")))
        assert mapping == {"A2": "A"}

    def test_fresh_labels_inherit_dimension(self):
        relabeled, _ = relabel_unique(parse_type("A->A", {"A": 5}))
        assert elementary_systems(relabeled) == (Label("A", 5), Label("A1", 5))

    def test_argument_comes_back_exactly_when_no_label_repeats(self):
        rng = random.Random(1810)
        repeated = 0
        for _ in range(500):
            text = render_type(random_type(rng, max_systems=7, min_systems=2))
            names = [name for name in re.findall(r"[A-Z][A-Za-z0-9_]*", text) if name != "I"]
            if rng.random() < 0.5:
                a, b = rng.sample(names, 2)
                text = re.sub(rf"\b{b}\b", a, text)
            x = parse_type(text)
            labels = [node.label.name for node in x.walk() if isinstance(node, Elementary)]
            repeats = len(set(labels)) < len(labels)
            repeated += repeats
            relabeled, mapping = relabel_unique(x)
            assert (relabeled is x) == (not repeats) == (mapping == {})
            assert len(set(elementary_systems(relabeled))) == len(labels)
        assert 100 < repeated < 400

    def test_rebuild_equals_the_object_fold_reference(self):
        # a type with a repeat is rebuilt over its unchecked flat tree; the
        # fold over its objects is the reference, for type and provenance
        rng = random.Random(4111)
        checked = 0
        for n in range(600):
            text = render_type(random_type(rng, max_systems=8, min_systems=2))
            names = sorted({name for name in re.findall(r"[A-Z][A-Za-z0-9_]*", text) if name != "I"})
            for step in range(rng.randint(1, 3)):
                a, b = rng.sample(names, 2)
                # b becomes a repeat of a, or later a name a fresh one must skip
                text = re.sub(rf"\b{b}\b", rng.choice([a, f"{a}1", f"{a}2"]) if step else a, text)
            names = set(re.findall(r"[A-Z][A-Za-z0-9_]*", text)) - {"I"}
            x = parse_type(text, {name: 3 for name in names if n % 2 and rng.random() < 0.3})
            labels = [node.label.name for node in x.walk() if isinstance(node, Elementary)]
            if len(set(labels)) == len(labels):
                continue
            assert relabel_unique(x) == reference_relabel_unique(x)
            checked += 1
        assert checked >= 500

    def test_deep_rebuild_equals_the_object_fold_reference(self):
        # (A->B) under 5000 bars, then one repeat of A
        x = Arrow(el("A"), el("B"))
        for _ in range(5000):
            x = bar(x)
        x = Arrow(x, el("A", 3))
        relabeled, mapping = relabel_unique(x)
        assert mapping == {"A1": "A"}
        assert (relabeled, mapping) == reference_relabel_unique(x)


class TestElementarySystems:
    def test_textual_order(self):
        x = parse_type("((A->B)->I)->C")
        assert [a.name for a in elementary_systems(x)] == ["A", "B", "C"]

    def test_trivial_contributes_nothing(self):
        assert elementary_systems(TRIVIAL) == ()

    def test_desugared_tensor_walk(self):
        x = parse_type("(A->B)*(C->D)")
        assert [a.name for a in elementary_systems(x)] == ["A", "B", "C", "D"]

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateLabelError):
            elementary_systems(parse_type("A->A"))


class TestKValue:
    def test_plain_channel(self):
        x = parse_type("A->B")
        assert k_value(x, "A") == 1
        assert k_value(x, "B") == 0

    def test_second_order_map(self):
        x = parse_type("(A->B)->(C->D)")
        assert [k_value(x, n) for n in "ABCD"] == [0, 1, 1, 0]

    def test_tensor_of_channels(self):
        x = parse_type("(A->B)*(C->D)")
        assert k_value(x, "A") == 1
        assert k_value(x, "C") == 1
        assert k_value(x, "B") == 0
        assert k_value(x, "D") == 0

    def test_missing_label(self):
        with pytest.raises(ValueError):
            k_value(parse_type("A->B"), "C")

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            k_value(parse_type("A->A"), "A")

    def test_matches_literal_count_in_the_rendering(self):
        # independent oracle: count arrows and open brackets to the right of
        # the label in the canonical text (single-letter names, so a plain
        # index is unambiguous)
        rng = random.Random(19)
        for _ in range(300):
            x = random_type(rng, max_systems=8)
            text = render_type(x)
            for label in elementary_systems(x):
                rest = text[text.index(label.name) + len(label.name):]
                assert k_value(x, label) == (rest.count("->") + rest.count("(")) % 2


class TestIoPartition:
    def test_state(self):
        analysis = io_partition(parse_type("A", {"A": 3}))
        assert analysis.inputs == frozenset()
        assert analysis.outputs == {Label("A", 3)}
        assert analysis.lam == Fraction(1, 3)

    def test_channel(self):
        analysis = io_partition(parse_type("A->B", {"B": 4}))
        assert {a.name for a in analysis.inputs} == {"A"}
        assert analysis.lam == Fraction(1, 4)

    def test_effect(self):
        analysis = io_partition(parse_type("~A"))
        assert {a.name for a in analysis.inputs} == {"A"}
        assert analysis.outputs == frozenset()
        assert analysis.lam == Fraction(1)

    def test_partition_is_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            analysis = io_partition(random_type(rng, max_systems=7, dims=(2, 3, 4)))
            assert analysis.inputs | analysis.outputs == set(analysis.elementary)
            assert not analysis.inputs & analysis.outputs
            assert analysis.inputs == {a for a in analysis.elementary if analysis.k[a] == 1}

    def test_lambda_recursion_equals_product_over_outputs(self):
        rng = random.Random(11)
        for _ in range(300):
            analysis = io_partition(random_type(rng, max_systems=7, dims=(2, 3, 4)))
            closed = Fraction(1)
            for a in analysis.outputs:
                closed /= a.dimension
            assert analysis.lam == closed

    def test_lambda_of_a_wide_tensor(self):
        # the recursion's terms, unreduced, held quadratically many bits:
        # 2000 channels took 3.2 s and grew peak RSS to 1.4 GB
        x = parse_type("*".join(f"(A{i}->B{i})" for i in range(2000)), {"B0": 3})
        start = time.perf_counter()
        assert io_partition(x).lam == Fraction(1, 3 * 2**1999)
        assert time.perf_counter() - start < 1.0

    def test_kept_with_the_type_and_read_only(self):
        x = parse_type("(A->B)*(C->D)")
        analysis = io_partition(x)
        assert io_partition(x) is analysis
        with pytest.raises(TypeError):
            analysis.k[Label("A")] = 0
        assert analysis.k == {Label("A"): 1, Label("B"): 0, Label("C"): 1, Label("D"): 0}

    def test_bar_flips_the_partition(self):
        rng = random.Random(13)
        for _ in range(200):
            x = random_type(rng, max_systems=6)
            forward = io_partition(x)
            flipped = io_partition(bar(x))
            assert flipped.inputs == forward.outputs
            assert flipped.outputs == forward.inputs


def _lambda(left, right):
    (lam_x, dim_x), (lam_y, dim_y) = left, right
    return lam_y / (dim_x * lam_x), dim_x * dim_y


class TestTreeFolds:
    def test_tree_folds_equal_object_folds(self):
        # lambda and both class counts fold over the flat tree; the fold
        # over the type's objects is the reference, lambda by its recursion
        # on exact fractions with the total dimension alongside
        rng = random.Random(2718)
        tables = [(2,), (3,), (2, 3), (2, 3, 5)]
        types = [random_type(rng, max_systems=9, dims=tables[n % 4]) for n in range(400)]
        types.append(parse_type("((A->B)->(C->D))*~(E->I)", {"A": 3, "C": 3, "E": 3}))
        squares = lambda a: (a.dimension**2 - 1, 1, a.dimension**2)  # noqa: E731
        for x in types:
            lam, _ = reference_fold(x, lambda a: (Fraction(1, a.dimension), a.dimension), (Fraction(1), 1), _lambda)
            assert io_partition(x).lam == lam
            assert word_count(x) == reference_fold(x, lambda _: (1, 1, 2), (0, 1, 1), _count_arrow)[0]
            assert basis_dimension(x) == reference_fold(x, squares, (0, 1, 1), _count_arrow)[0]


class TestMinimalEnclosing:
    def test_pair_inside_left_subterm(self):
        x = parse_type("(A->B)->(C->D)")
        assert minimal_enclosing(x, "B", "A") == parse_type("A->B")

    def test_pair_straddling_the_root(self):
        x = parse_type("(A->B)->(C->D)")
        assert minimal_enclosing(x, "A", "C") == x

    def test_whole_term(self):
        x = parse_type("C->D")
        assert minimal_enclosing(x, "C", "D") == x

    def test_symmetry_and_minimality(self):
        rng = random.Random(17)
        for _ in range(100):
            x = random_type(rng, max_systems=6, min_systems=2)
            labels = elementary_systems(x)
            a, b = rng.sample(labels, 2)
            y = minimal_enclosing(x, a, b)
            assert y == minimal_enclosing(x, b, a)
            names = {lbl.name for lbl in elementary_systems(y)}
            assert {a.name, b.name} <= names
            if isinstance(y, Arrow):
                for side in (y.left, y.right):
                    side_names = {lbl.name for lbl in elementary_systems(side)}
                    assert not {a.name, b.name} <= side_names

    def test_matches_exhaustive_subterm_scan(self):
        # independent oracle: enumerate every subterm containing both labels
        # and keep the shortest as rendered text (nested candidates always
        # differ in length, so the minimum is unique)
        rng = random.Random(117)
        for _ in range(300):
            x = random_type(rng, max_systems=7, min_systems=2)
            subterms = [
                (node, {n.label.name for n in node.walk() if isinstance(n, Elementary)})
                for node in x.walk()
            ]
            labels = elementary_systems(x)
            for a in labels:
                for b in labels:
                    smallest = min(
                        (node for node, names in subterms if {a.name, b.name} <= names),
                        key=lambda t: len(render_type(t)),
                    )
                    assert minimal_enclosing(x, a, b) == smallest

    def test_missing_label(self):
        with pytest.raises(ValueError):
            minimal_enclosing(parse_type("A->B"), "A", "Z")

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            minimal_enclosing(parse_type("A->A"), "A", "A")


class TestTreeMemo:
    def test_contraction_sweep_walks_the_type_once(self, monkeypatch):
        walks = []
        walk = type_core._walk_tree
        monkeypatch.setattr(type_core, "_walk_tree", lambda x: walks.append(x) or walk(x))
        x = parse_type("(A->B)*(C->D)*((E->F)->G)")
        analysis = io_partition(x)
        for a in analysis.inputs_ordered():
            for b in analysis.outputs_ordered():
                check_contraction(x, ContractionSpec.of([(a, b)]))
        assert walks == [x]

    def test_enclosing_root_is_the_object_itself(self):
        x = parse_type("(A->B)->(C->D)")
        io_partition(x), signals(x, "B", "D"), elementary_systems(x)
        assert minimal_enclosing(x, "A", "C") is x

    def test_equal_objects_keep_their_own_trees(self):
        x, y = parse_type("(A->B)->C"), parse_type("(A->B)->C")
        assert x == y and x is not y
        assert minimal_enclosing(x, "A", "C") is x
        assert minimal_enclosing(y, "A", "C") is y

    def test_a_walked_type_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            x = parse_type("(A->B)*(C->D)")
            io_partition(x), signals(x, "A", "B"), minimal_enclosing(x, "A", "D")
            check_contraction(x, ContractionSpec.of([(Label("A"), Label("D"))])), crosscheck(x), hash(x)
            assert {"_flat_tree", "_name_order", "_base_classes", "_io_labels", "_hash"} <= set(x.__dict__)
            alive = weakref.ref(x)
            del x
            assert alive() is None
        finally:
            gc.enable()

    def test_equality_and_hash_ignore_the_tree(self):
        x, fresh = parse_type("(A->B)->C"), parse_type("(A->B)->C")
        before = hash(x)
        io_partition(x)
        assert "_flat_tree" in x.__dict__ and "_flat_tree" not in fresh.__dict__
        assert x == fresh and hash(x) == hash(fresh) == before
        assert x != parse_type("(A->C)->B")

    def test_hash_is_the_dataclass_hash_of_the_sides(self):
        x = parse_type("((A->B)*~C)->D")
        assert hash(x) == hash((x.left, x.right))
        assert hash(Arrow(x, x)) == hash((x, x))

    def test_equality_matches_the_dataclass_reference(self):
        rng = random.Random(2020)
        equal = unequal = 0
        for _ in range(1200):
            # a second seeded type of the same size often shares its
            # shape and names, so unequal pairs include near misses
            seed, size = rng.randint(0, 10**6), rng.randint(1, 7)
            x = random_type(random.Random(seed), max_systems=size, min_systems=size)
            for y in (
                random_type(random.Random(seed), max_systems=size, min_systems=size),
                random_type(random.Random(seed + 1), max_systems=size, min_systems=size),
                random_type(rng, max_systems=size, dims=(2, 3)),
            ):
                for node in (x, y):  # some pairs have cached hashes
                    if rng.random() < 0.5:
                        hash(node)
                expected = reference_equal(x, y)
                assert (x == y) is expected and (y == x) is expected
                assert (x != y) is not expected
                equal += expected
                unequal += not expected
        assert equal >= 1000 and unequal >= 1000

    def test_pickling_leaves_the_memos_behind(self):
        x = parse_type("(A->B)*(C->D)")
        hash(x), check_contraction(x, ContractionSpec.of([(Label("A"), Label("D"))]))
        copy = pickle.loads(pickle.dumps(x))
        assert set(copy.__dict__) == {"left", "right"}
        assert copy == x and hash(copy) == hash(x)


class TestDeepInput:
    def test_structural_analysis_needs_no_recursion(self):
        # far past the interpreter's recursion limit
        deep = el("A")
        for _ in range(5000):
            deep = bar(deep)
        x = Arrow(deep, el("B"))
        analysis = io_partition(x)
        assert [a.name for a in analysis.inputs_ordered()] == ["A"]
        assert [a.name for a in analysis.outputs_ordered()] == ["B"]
        assert analysis.lam == Fraction(1, 2)
        assert k_value(x, "A") == 1
        assert minimal_enclosing(x, "A", "B") is x
        verdict = signals(x, "A", "B")
        assert verdict.relation is Relation.FULL_SIGNALLING
        assert verdict.enclosing is x

    def test_hash_needs_no_recursion(self):
        def deep():
            x = Arrow(el("A"), el("B"))
            for _ in range(5000):
                x = bar(x)
            return x

        x, y = deep(), deep()
        assert hash(x) == hash(y)
        assert all("_hash" in node.__dict__ for node in x.walk() if isinstance(node, Arrow))

    def test_equality_needs_no_recursion(self):
        def deep():
            x = Arrow(el("A"), el("B"))
            for _ in range(5000):
                x = bar(x)
            return x

        for cached in (False, True):
            x, y = deep(), deep()
            if cached:
                hash(x), hash(y)
            assert x == y and y == x
            assert x != bar(bar(y)) and bar(bar(y)) != x

    def test_tree_rebuilds_need_no_recursion(self):
        from hotypes.admissibility import _rename_labels

        deep = el("A")
        for _ in range(5000):
            deep = bar(deep)
        x = Arrow(deep, el("A"))
        nodes = list(x.walk())
        assert len(nodes) == 10003 and nodes[0] is x and nodes[-1] == el("A")
        relabeled, provenance = relabel_unique(x)
        assert provenance == {"A1": "A"}
        leaves = [n.label.name for n in relabeled.walk() if isinstance(n, Elementary)]
        assert leaves == ["A", "A1"]
        renamed = _rename_labels(relabeled, {"A1": "B"})
        assert elementary_systems(renamed) == (Label("A"), Label("B"))

    def test_rendering_needs_no_recursion(self):
        deep = el("A")
        for _ in range(5000):
            deep = bar(deep)
        assert render_type(deep) == "(" * 5000 + "A" + "->I)" * 5000
        assert render_type(deep, sugar=True) == "~" * 5000 + "A"
        chain = el("A")
        for _ in range(3000):
            chain = tensor(el("B"), chain)
        assert render_type(chain, sugar=True) == "B*(" * 2999 + "B*A" + ")" * 2999


class TestConstructors:
    def test_tensor_definition_matches_parse(self):
        x, y = parse_type("A->B"), parse_type("C->D")
        assert tensor(x, y) == parse_type("(A->B)*(C->D)")

    def test_bar_definition_matches_parse(self):
        assert bar(parse_type("A")) == parse_type("~A")
