"""Inclusion, equivalence, contraction, composition, monotonicity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

from hotypes import (
    Arrow,
    ContractionSpec,
    Label,
    Reason,
    TRIVIAL,
    Verdict,
    WordSet,
    bar,
    build_D,
    check_composition,
    check_contraction,
    check_equivalence,
    check_inclusion,
    elementary_systems,
    io_partition,
    parse_type,
    tensor,
)
from hotypes.admissibility import _rename_labels
from hotypes.type_core import as_bar, as_tensor
from hotypes.strings import UniverseTooLargeError, critical_set_multi

from conftest import (
    random_type,
    random_type_with_io,
    reference_check_composition,
    reference_check_equivalence,
    reference_D,
    supermap_inclusion_form,
    type_exprs,
)


def spec_for(x, *pairs: tuple[str, str]) -> ContractionSpec:
    by_name = {a.name: a for a in elementary_systems(x)}
    return ContractionSpec.of([(by_name[p], by_name[q]) for p, q in pairs])


class TestContractionSpec:
    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            ContractionSpec.of([(Label("A"), Label("B")), (Label("A"), Label("C"))])

    def test_unequal_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ContractionSpec.of([(Label("A", 2), Label("B", 3))])

    def test_pair_text_parsing(self):
        x = parse_type("(A->B)*(C->D)")
        spec = ContractionSpec.from_text("C:B, A:D", x)
        assert {(a.name, b.name) for a, b in spec.pairs} == {("C", "B"), ("A", "D")}

    def test_pair_text_unknown_label(self):
        with pytest.raises(ValueError):
            ContractionSpec.from_text("A:Z", parse_type("A->B"))


class TestCheckContraction:
    def test_tensor_example_verdicts(self):
        x = parse_type("(A->B)*(C->D)")
        assert check_contraction(x, spec_for(x, ("C", "B"))).admissible
        assert check_contraction(x, spec_for(x, ("A", "D"))).admissible
        bad = check_contraction(x, spec_for(x, ("A", "B")))
        assert not bad.admissible
        assert bad.reason is Reason.CRITICAL_SET
        assert bad.witness.render() == "0_A0_B1_C1_D"
        joint = check_contraction(x, spec_for(x, ("C", "B"), ("A", "D")))
        assert not joint.admissible

    def test_a_verdict_is_a_tuple_of_its_fields(self):
        x = parse_type("(A->B)*(C->D)")
        verdict = check_contraction(x, spec_for(x, ("C", "B")))
        assert Verdict._fields == ("admissible", "reason", "witness", "result_in", "result_out")
        assert verdict == (True, Reason.OK, None, (Label("A"),), (Label("D"),))
        assert Verdict(False, Reason.LABEL_MISMATCH) == (False, Reason.LABEL_MISMATCH, None, None, None)
        assert verdict.to_json() == {
            "admissible": True, "reason": "ok", "witness": None, "result_in": ["A"], "result_out": ["D"],
        }

    def test_joint_verdict_depends_on_the_pairing_not_just_the_label_sets(self):
        # three independent channels; contracting {A,C} against {D,F} is a
        # sequential chain under one pairing and hits an intra-channel loop
        # under the other
        x = parse_type("(A->B)*(C->D)*(E->F)")
        chain = check_contraction(x, spec_for(x, ("A", "D"), ("C", "F")))
        assert chain.admissible
        assert [a.name for a in chain.result_in] == ["E"]
        assert [a.name for a in chain.result_out] == ["B"]
        crossed = check_contraction(x, spec_for(x, ("A", "F"), ("C", "D")))
        assert not crossed.admissible

    def test_result_io_drops_contracted_labels(self):
        x = parse_type("(A->B)*(C->D)")
        verdict = check_contraction(x, spec_for(x, ("C", "B")))
        assert [a.name for a in verdict.result_in] == ["A"]
        assert [a.name for a in verdict.result_out] == ["D"]

    def test_input_input_rejected_before_set_construction(self):
        x = parse_type("(A->B)*(C->D)")
        verdict = check_contraction(x, spec_for(x, ("A", "C")))
        assert not verdict.admissible
        assert verdict.reason is Reason.INPUT_INPUT
        assert verdict.witness is None

    def test_output_output_rejected(self):
        x = parse_type("(A->B)*(C->D)")
        verdict = check_contraction(x, spec_for(x, ("B", "D")))
        assert verdict.reason is Reason.OUTPUT_OUTPUT

    def test_reversed_orientation_is_normalized(self):
        x = parse_type("(A->B)*(C->D)")
        assert check_contraction(x, spec_for(x, ("B", "C"))).admissible

    def test_witness_is_in_both_sets(self):
        rng = random.Random(53)
        found = 0
        while found < 40:
            x = random_type_with_io(rng, max_systems=6)
            analysis = io_partition(x)
            a = rng.choice(sorted(analysis.inputs))
            b = rng.choice(sorted(analysis.outputs))
            verdict = check_contraction(x, ContractionSpec.of([(a, b)]))
            if verdict.admissible:
                continue
            found += 1
            assert verdict.witness in build_D(x)
            assert verdict.witness in critical_set_multi(x, [(a, b)])

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            check_contraction(parse_type("A->B"), ContractionSpec.of([(Label("A"), Label("Z"))]))


class TestCheckInclusion:
    def test_second_order_map_reads_as_channel(self):
        x = parse_type("(A->B)->(C->D)")
        y = parse_type("(C*B)->(A*D)")
        assert check_inclusion(x, y).admissible

    def test_reflexive(self):
        x = parse_type("(A->B)->(C->D)")
        assert check_inclusion(x, x).admissible

    def test_nonsignalling_inside_channels_strictly(self):
        lhs = parse_type("(A->B)*(C->D)")
        rhs = parse_type("(A*C)->(B*D)")
        assert check_inclusion(lhs, rhs).admissible
        converse = check_inclusion(rhs, lhs)
        assert not converse.admissible
        assert converse.reason is Reason.NOT_INCLUDED
        assert converse.witness in build_D(rhs)
        assert converse.witness not in build_D(lhs)

    def test_label_mismatch_is_a_reason_not_an_exception(self):
        verdict = check_inclusion(parse_type("A->B"), parse_type("A->C"))
        assert not verdict.admissible
        assert verdict.reason is Reason.LABEL_MISMATCH

    def test_dimension_mismatch_is_a_label_mismatch(self):
        verdict = check_inclusion(parse_type("A->B"), parse_type("A->B", {"B": 3}))
        assert verdict.reason is Reason.LABEL_MISMATCH

    def test_lambda_mismatch(self):
        # same systems, different output products: 1/2 against 1/3
        dims = {"A": 3, "B": 2}
        verdict = check_inclusion(parse_type("A->B", dims), parse_type("B->A", dims))
        assert not verdict.admissible
        assert verdict.reason is Reason.LAMBDA_MISMATCH

    def test_reversed_channel_with_equal_dims_fails_by_witness(self):
        verdict = check_inclusion(parse_type("A->B"), parse_type("B->A"))
        assert not verdict.admissible
        assert verdict.reason is Reason.NOT_INCLUDED
        assert verdict.witness.render() == "1_A0_B"


class TestCheckEquivalence:
    def test_label_cap_is_checked_before_words_are_built(self, monkeypatch):
        def refuse(x):
            raise AssertionError("build_D called on a type over the label cap")

        monkeypatch.setattr("hotypes.admissibility.build_D", refuse)
        x = parse_type("*".join(f"(A{i}->B{i})" for i in range(32)))
        for check in (check_inclusion, check_equivalence):
            with pytest.raises(UniverseTooLargeError, match="64 labels"):
                check(x, x)

    def test_double_bar(self):
        rng = random.Random(59)
        for _ in range(200):
            x = random_type(rng, max_systems=6)
            assert check_equivalence(bar(bar(x)), x).admissible

    @given(type_exprs(max_systems=5, dims=(2, 3)))
    def test_double_bar_property(self, x):
        assert check_equivalence(bar(bar(x)), x).admissible

    def test_tensor_commutes(self):
        rng = random.Random(61)
        for _ in range(100):
            x = random_type(rng, max_systems=3)
            y = _disjoint(random_type(rng, max_systems=3))
            assert check_equivalence(tensor(x, y), tensor(y, x)).admissible

    def test_tensor_associates(self):
        rng = random.Random(67)
        for _ in range(100):
            x = random_type(rng, max_systems=2)
            y = _disjoint(random_type(rng, max_systems=2), "_y")
            z = _disjoint(random_type(rng, max_systems=2), "_z")
            lhs = tensor(tensor(x, y), z)
            rhs = tensor(x, tensor(y, z))
            assert check_equivalence(lhs, rhs).admissible

    def test_bar_of_channel_is_state_with_effect(self):
        lhs = parse_type("~(A->B)")
        rhs = parse_type("A*~B")
        assert check_equivalence(lhs, rhs).admissible

    def test_inequivalent_types_fail_with_direction(self):
        lhs = parse_type("(A->B)*(C->D)")
        rhs = parse_type("(A*C)->(B*D)")
        verdict = check_equivalence(lhs, rhs)
        assert not verdict.admissible
        assert verdict.witness is not None


def _rewritten(rng: random.Random, x):
    """An equivalent type: one node rewritten by x*y = y*x, x->(y->z) =
    (x*y)->z or ~(x->y) = x*~y; x itself when no node matches."""
    sites = []
    for node in x.walk():
        if (pair := as_tensor(node)) is not None:
            sites.append((node, tensor(pair[1], pair[0])))
        if isinstance(node, Arrow) and isinstance(node.right, Arrow):
            sites.append((node, Arrow(tensor(node.left, node.right.left), node.right.right)))
        if isinstance(operand := as_bar(node), Arrow):
            sites.append((node, tensor(operand.left, bar(operand.right))))
    if not sites:
        return x
    target, replacement = rng.choice(sites)

    def rebuild(node):
        if node is target:
            return replacement
        return Arrow(rebuild(node.left), rebuild(node.right)) if isinstance(node, Arrow) else node

    return rebuild(x)


def _relabeled_like(rng: random.Random, y, x):
    """y with its labels renamed, in random order, to those of x; y keeps
    its own dimensions, so unequal ones make a label mismatch."""
    names = [a.name for a in elementary_systems(x)]
    rng.shuffle(names)
    temporary = _rename_labels(y, {a.name: f"T{i}" for i, a in enumerate(elementary_systems(y))})
    return _rename_labels(temporary, {f"T{i}": name for i, name in enumerate(names)})


def _outcome(check, x, y):
    """The verdict's JSON, or the message a refused pair raises."""
    try:
        return check(x, y).to_json()
    except ValueError as exc:
        return str(exc)


def _reference_inclusion(x, y) -> Verdict:
    """Inclusion on the word sets of the arrow-only recursion."""
    ax, ay = io_partition(x), io_partition(y)
    if set(ax.elementary) != set(ay.elementary):
        return Verdict(False, Reason.LABEL_MISMATCH)
    if ax.lam != ay.lam:
        return Verdict(False, Reason.LAMBDA_MISMATCH)
    extra = reference_D(x).difference(reference_D(y))
    if extra.masks:
        return Verdict(False, Reason.NOT_INCLUDED, witness=extra.min_word())
    return Verdict(True, Reason.OK, result_in=ax.inputs_ordered(), result_out=ax.outputs_ordered())


class TestQueriesAgainstReferences:
    """Equivalence with its one-way exit, and inclusion and composition on
    the joined word sets, against inclusion both ways and the arrow-only
    recursion."""

    def test_seeded_pairs(self):
        rng = random.Random(1919)
        kinds = {"shuffled": 0, "rewritten": 0, "unrelated": 0}
        verdicts = set()
        for n in range(1020):
            dims = (2,) if n % 4 else (2, 3)
            kind = list(kinds)[n % 3]
            if kind == "shuffled":
                blocks = [random_type(rng, max_systems=3, dims=dims) for _ in range(rng.randint(2, 3))]
                parts = [_disjoint(block, f"_{i}") for i, block in enumerate(blocks)]
                x = parts[0]
                for part in parts[1:]:
                    x = tensor(x, part)
                rng.shuffle(parts)
                y = parts[0]
                for part in parts[1:]:
                    y = tensor(y, part)
            elif kind == "rewritten":
                x = random_type(rng, max_systems=7, dims=dims)
                y = _rewritten(rng, x)
            else:
                x = random_type(rng, max_systems=7, dims=dims)
                size = len(elementary_systems(x))
                y = _relabeled_like(rng, random_type(rng, max_systems=size, dims=dims, min_systems=size), x)
            kinds[kind] += 1
            got = check_equivalence(x, y).to_json()
            assert got == reference_check_equivalence(x, y).to_json(), (x, y)
            for a, b in ((x, y), (y, x)):
                assert check_inclusion(a, b).to_json() == _reference_inclusion(a, b).to_json(), (a, b)
            composed = _outcome(check_composition, x, y)
            assert composed == _outcome(reference_check_composition, x, y), (x, y)
            verdicts.add((kind, got["reason"]))
            verdicts.add(("composition", composed["reason"] if isinstance(composed, dict) else "error"))
        assert min(kinds.values()) == 340
        assert {("shuffled", "ok"), ("rewritten", "ok"), ("unrelated", "not-included"),
                ("unrelated", "label-mismatch"), ("composition", "input-input"),
                ("composition", "error")} <= verdicts

    def test_equal_sizes_end_after_one_direction(self, monkeypatch):
        calls = []
        difference = WordSet.difference
        monkeypatch.setattr(WordSet, "difference", lambda *args: calls.append(args) or difference(*args))
        channels = [f"(A{i}->B{i})" for i in range(7)]
        x = parse_type("*".join(channels))
        y = parse_type("*".join(random.Random(7).sample(channels, 7)))
        assert check_equivalence(x, y).admissible
        assert len(calls) == 1

    def test_a_proper_inclusion_runs_the_reverse_test(self, monkeypatch):
        calls = []
        difference = WordSet.difference
        monkeypatch.setattr(WordSet, "difference", lambda *args: calls.append(args) or difference(*args))
        narrow = parse_type("((A->B)->(C->D))*(E->F)")
        wide = parse_type("((C*B)->(A*D))*(E->F)")
        assert check_inclusion(narrow, wide).admissible
        verdict = check_equivalence(narrow, wide)
        assert not verdict.admissible and verdict.witness is not None
        assert verdict == check_inclusion(wide, narrow)
        assert len(calls) == 4


def _disjoint(x, suffix: str = "_q"):
    from hotypes import Arrow, Elementary, TRIVIAL, Trivial

    def rename(node):
        if isinstance(node, Elementary):
            return Elementary(Label(node.label.name + suffix, node.label.dimension))
        if isinstance(node, Trivial):
            return TRIVIAL
        return Arrow(rename(node.left), rename(node.right))

    return rename(x)


class TestCheckComposition:
    def test_channel_chain(self):
        verdict = check_composition(parse_type("A->B"), parse_type("B->C"))
        assert verdict.admissible
        assert [a.name for a in verdict.result_in] == ["A"]
        assert [a.name for a in verdict.result_out] == ["C"]

    def test_two_effects_on_one_system(self):
        verdict = check_composition(parse_type("~A"), parse_type("~A"))
        assert not verdict.admissible
        assert verdict.reason is Reason.INPUT_INPUT

    def test_map_against_its_dual_gives_a_scalar(self):
        verdict = check_composition(parse_type("A->B"), parse_type("~(A->B)"))
        assert verdict.admissible
        assert verdict.result_in == ()
        assert verdict.result_out == ()

    def test_supermap_accepts_its_slot(self):
        verdict = check_composition(parse_type("(A->B)->(C->D)"), parse_type("A->B"))
        assert verdict.admissible
        assert [a.name for a in verdict.result_in] == ["C"]
        assert [a.name for a in verdict.result_out] == ["D"]

    def test_loop_through_two_channels(self):
        # chaining B->C is fine; also feeding C back closes a causal loop
        assert check_composition(parse_type("A->B"), parse_type("B->C")).admissible
        assert not check_composition(parse_type("A->B"), parse_type("B->A")).admissible

    def test_disjoint_labels_always_compose(self):
        verdict = check_composition(parse_type("A->B"), parse_type("C->D"))
        assert verdict.admissible
        assert {a.name for a in verdict.result_in} == {"A", "C"}

    def test_two_states_of_one_system(self):
        verdict = check_composition(parse_type("A"), parse_type("A"))
        assert verdict.reason is Reason.OUTPUT_OUTPUT

    def test_shared_label_dimension_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            check_composition(parse_type("A->B"), parse_type("B->C", {"B": 3}))

    def test_commutativity(self):
        rng = random.Random(71)
        for _ in range(100):
            x = random_type(rng, max_systems=4)
            y = random_type(rng, max_systems=4)
            try:
                one = check_composition(x, y)
                two = check_composition(y, x)
            except ValueError:
                continue  # dimension clash on a shared name
            assert one.admissible == two.admissible
            if one.admissible:
                assert set(one.result_in) == set(two.result_in)
                assert set(one.result_out) == set(two.result_out)

    def test_matches_the_explicit_role_route(self):
        # both routes share label names from one pool, so most pairs share
        # labels; mixed dimensions also give mismatches, refused alike
        rng = random.Random(73)
        outcomes = set()
        for count in range(2400):
            dims = [(2,), (3,), (2, 3)][count % 3]
            x = random_type(rng, max_systems=4, dims=dims)
            y = random_type(rng, max_systems=4, dims=dims)
            try:
                expected = reference_check_composition(x, y).to_json()
            except ValueError as exc:
                with pytest.raises(ValueError) as caught:
                    check_composition(x, y)
                assert str(caught.value) == str(exc)
                outcomes.add("mismatch")
                continue
            assert check_composition(x, y).to_json() == expected
            outcomes.add(expected["reason"])
        assert outcomes == {"ok", "input-input", "output-output", "critical-set-hit", "mismatch"}

    def test_matches_contraction_on_the_tensor(self):
        x = parse_type("E->F")
        y = parse_type("F->G")
        composed = check_composition(x, y)
        y_renamed = parse_type("F2->G")
        z = tensor(x, y_renamed)
        direct = check_contraction(z, spec_for(z, ("F2", "F")))
        assert composed.admissible == direct.admissible


def monotone(x, h: ContractionSpec, k: ContractionSpec) -> bool:
    """With H a subset of K: an inadmissible C_H must force C_K
    inadmissible.  Whether that implication holds on this instance."""
    assert set(h.pairs) <= set(k.pairs)
    return check_contraction(x, h).admissible or not check_contraction(x, k).admissible


class TestMonotonicity:
    def test_tensor_example_instance(self):
        x = parse_type("(A->B)*(C->D)")
        h = spec_for(x, ("C", "B"))
        k = spec_for(x, ("C", "B"), ("A", "D"))
        assert monotone(x, h, k)

    def test_equal_specs(self):
        x = parse_type("(A->B)*(C->D)")
        h = spec_for(x, ("A", "B"))
        assert monotone(x, h, h)

    def test_random_sweep(self):
        rng = random.Random(73)
        for _ in range(200):
            x, h, k = _random_nested_specs(rng)
            assert monotone(x, h, k)


def _random_nested_specs(rng, max_systems: int = 7):
    x = random_type_with_io(rng, max_systems=max_systems, min_inputs=1, min_outputs=1)
    analysis = io_partition(x)
    ins = sorted(analysis.inputs)
    outs = sorted(analysis.outputs)
    rng.shuffle(ins)
    rng.shuffle(outs)
    count = rng.randint(1, min(len(ins), len(outs)))
    pairs = list(zip(ins[:count], outs[:count]))
    sub = rng.randint(0, count)
    h = ContractionSpec.of(pairs[:sub]) if sub else ContractionSpec(())
    k = ContractionSpec.of(pairs)
    return x, h, k


class TestSupermapInclusionForm:
    def test_single_pair_form(self):
        x = parse_type("(A->B)*(C->D)")
        assert supermap_inclusion_form(x, spec_for(x, ("C", "B"))).admissible
        assert not supermap_inclusion_form(x, spec_for(x, ("A", "B"))).admissible

    def test_joint_pairs(self):
        x = parse_type("(A->B)*(C->D)")
        assert not supermap_inclusion_form(x, spec_for(x, ("C", "B"), ("A", "D"))).admissible

    def test_agreement_with_critical_set_route(self):
        rng = random.Random(79)
        for _ in range(200):
            x, _, spec = _random_nested_specs(rng, max_systems=6)
            inclusion = supermap_inclusion_form(x, spec)
            direct = check_contraction(x, spec)
            assert inclusion.admissible == direct.admissible
