"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here: exact equality for the
combinatorial calculus, 1e-12 for algebraic operator identities, 1e-9 for
channel/membership residuals, 1e-3 for violation margins.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from hotypes import (
    ContractionSpec,
    bar,
    build_D,
    channel_violation_margin,
    check_contraction,
    check_equivalence,
    check_inclusion,
    crosscheck,
    io_partition,
    link_product,
    membership,
    numeric_contraction,
    parse_type,
    sample_deterministic,
    tensor,
    violation_witness,
)
from hotypes.oracle import is_channel, membership_defects
from hotypes.strings import WordSet, canonical_universe, concat, critical_set_multi
from hotypes.type_core import Arrow, Elementary, Label, TRIVIAL, Trivial

from conftest import (
    all_ones,
    full_set,
    random_type,
    random_type_with_io,
    traceless_set,
    word_is_subset,
)

ALGEBRA_TOL = 1e-12
RESIDUAL_TOL = 1e-9
MARGIN_FLOOR = 1e-3


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[criterion {number}] PASS ({elapsed:.2f}s) {description}")


def _rename(x, suffix: str):
    if isinstance(x, Elementary):
        return Elementary(Label(x.label.name + suffix, x.label.dimension))
    if isinstance(x, Trivial):
        return TRIVIAL
    return Arrow(_rename(x.left, suffix), _rename(x.right, suffix))


def test_criterion_1_worked_tensor_example():
    started = time.perf_counter()
    x = parse_type("(A->B)*(C->D)")

    assert set(build_D(x).render()) == {
        "0_A0_B0_C0_D",
        "1_A0_B0_C0_D",
        "0_A0_B1_C0_D",
        "1_A0_B1_C0_D",
        "1_A1_B0_C0_D",
        "1_A1_B1_C0_D",
        "0_A0_B1_C1_D",
        "1_A0_B1_C1_D",
    }
    assert set(critical_set_multi(x, [("A", "B")]).render()) == {"0_A0_B0_C1_D", "0_A0_B1_C1_D"}
    assert set(critical_set_multi(x, [("C", "B")]).render()) == {"0_A0_B0_C1_D", "1_A0_B0_C1_D"}
    assert set(critical_set_multi(x, [("A", "D")]).render()) == {"0_A1_B0_C0_D", "0_A1_B1_C0_D"}
    # joint obstruction set for contracting C with B and A with D: bits must
    # match within each contracted pair and not all pairs may sit at one
    assert set(critical_set_multi(x, [("C", "B"), ("A", "D")]).render()) == {
        "0_A0_B0_C0_D",
        "0_A1_B1_C0_D",
        "1_A0_B0_C1_D",
    }

    spec = ContractionSpec.from_text
    assert check_contraction(x, spec("C:B", x)).admissible
    assert check_contraction(x, spec("A:D", x)).admissible
    assert not check_contraction(x, spec("A:B", x)).admissible
    assert not check_contraction(x, spec("C:B,A:D", x)).admissible
    _report(1, "worked tensor example: word set, obstruction sets, verdicts", started, 1.0)


def test_criterion_2_sandwich_inclusion():
    started = time.perf_counter()
    rng = random.Random(2024_02)
    for _ in range(500):
        x = random_type(rng, max_systems=8)
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
        assert word_is_subset(lower, d) and word_is_subset(d, upper)
    _report(2, "sandwich inclusion on 500 random types (exact)", started, 10.0)


def test_criterion_3_type_algebra_laws():
    started = time.perf_counter()
    rng = random.Random(2024_03)
    for _ in range(200):
        x = random_type(rng, max_systems=5)
        assert check_equivalence(bar(bar(x)), x).admissible
    for _ in range(200):
        x = random_type(rng, max_systems=3)
        y = _rename(random_type(rng, max_systems=3), "_y")
        assert check_equivalence(tensor(x, y), tensor(y, x)).admissible
    for _ in range(200):
        x = random_type(rng, max_systems=2)
        y = _rename(random_type(rng, max_systems=2), "_y")
        z = _rename(random_type(rng, max_systems=2), "_z")
        assert check_equivalence(tensor(tensor(x, y), z), tensor(x, tensor(y, z))).admissible
    for _ in range(200):
        x = random_type(rng, max_systems=3)
        y = _rename(random_type(rng, max_systems=3), "_y")
        assert check_equivalence(bar(Arrow(x, y)), tensor(x, bar(y))).admissible
    _report(3, "double bar, tensor commutativity/associativity, dual-of-arrow", started, 10.0)


def test_criterion_4_signalling_equals_admissibility():
    started = time.perf_counter()
    rng = random.Random(2024_04)
    for _ in range(300):
        assert crosscheck(random_type(rng, max_systems=7))
    _report(4, "signalling algorithm matches critical-set verdicts on 300 types", started, 20.0)


def test_criterion_5_monotonicity_of_contraction_sets():
    started = time.perf_counter()
    rng = random.Random(2024_05)
    for _ in range(500):
        x = random_type_with_io(rng, max_systems=7)
        analysis = io_partition(x)
        ins = sorted(analysis.inputs)
        outs = sorted(analysis.outputs)
        rng.shuffle(ins)
        rng.shuffle(outs)
        count = rng.randint(1, min(len(ins), len(outs)))
        pairs = list(zip(ins[:count], outs[:count]))
        k = ContractionSpec.of(pairs)
        h = ContractionSpec.of(pairs[: rng.randint(0, count)])
        vh, vk = check_contraction(x, h), check_contraction(x, k)
        assert vh.admissible or not vk.admissible
    _report(5, "no inadmissible subset inside an admissible contraction set (500 cases)", started, 20.0)


def test_criterion_6_promotion_flips_stay_inside():
    started = time.perf_counter()
    rng = random.Random(2024_06)
    for _ in range(300):
        x = random_type(rng, max_systems=8)
        analysis = io_partition(x)
        d = build_D(x)
        position = {a.name: i for i, a in enumerate(d.universe)}
        input_bits = [position[a.name] for a in analysis.inputs]
        output_bits = [position[a.name] for a in analysis.outputs]
        for mask in d.masks:
            for p in input_bits:
                if not (mask >> p) & 1:
                    assert (mask | (1 << p)) in d.masks
            for p in output_bits:
                if (mask >> p) & 1:
                    assert (mask & ~(1 << p)) in d.masks
    _report(6, "input 0->1 and output 1->0 flips stay in the word set (300 types)", started, 20.0)


def test_criterion_7_oracle_soundness_and_completeness():
    started = time.perf_counter()
    rng = random.Random(2024_07)
    trials = 50
    for index in range(30):
        x = random_type_with_io(rng, max_systems=4, dims=(2,))
        analysis = io_partition(x)
        samples = [sample_deterministic(x, seed=1000 * index + t) for t in range(trials)]
        for a in analysis.inputs_ordered():
            for b in analysis.outputs_ordered():
                verdict = check_contraction(x, ContractionSpec.of([(a, b)]))
                if verdict.admissible:
                    remaining_in = [s.name for s in verdict.result_in]
                    remaining_out = [s.name for s in verdict.result_out]
                    for sample in samples:
                        contracted = numeric_contraction(sample, a, b)
                        assert is_channel(contracted, remaining_in, remaining_out, RESIDUAL_TOL)
                else:
                    witness = violation_witness(x, a, b)
                    contracted = numeric_contraction(witness, a, b)
                    remaining_in = [s.name for s in analysis.inputs_ordered() if s != a]
                    remaining_out = [s.name for s in analysis.outputs_ordered() if s != b]
                    margin = channel_violation_margin(contracted, remaining_in, remaining_out)
                    assert margin >= MARGIN_FLOOR
    _report(7, f"admissible contractions give channels ({trials} samples each); "
               "inadmissible ones violate with margin >= 1e-3", started, 60.0)


def test_criterion_8_numeric_laws():
    started = time.perf_counter()
    rng = random.Random(2024_08)

    for _ in range(20):
        r = sample_deterministic(parse_type("A->B"), seed=rng.randint(0, 10**6))
        s = sample_deterministic(parse_type("B->C"), seed=rng.randint(0, 10**6))
        t = sample_deterministic(parse_type("C->D"), seed=rng.randint(0, 10**6))
        assert np.max(np.abs(link_product(r, s).data - link_product(s, r).data)) < ALGEBRA_TOL
        left = link_product(link_product(r, s), t)
        right = link_product(r, link_product(s, t))
        assert np.max(np.abs(left.data - right.data)) < ALGEBRA_TOL

    for _ in range(30):
        x = random_type_with_io(rng, max_systems=4, dims=(2,))
        analysis = io_partition(x)
        expected = 1
        for a in analysis.inputs:
            expected *= a.dimension
        sample = sample_deterministic(x, seed=rng.randint(0, 10**6))
        assert abs(sample.trace().real - expected) < RESIDUAL_TOL

    for _ in range(1000):
        analysis = io_partition(random_type(rng, max_systems=8, dims=(2, 3, 4)))
        closed = Fraction(1)
        for a in analysis.outputs:
            closed /= a.dimension
        assert analysis.lam == closed
    _report(8, "link commutativity/associativity (1e-12), trace law (1e-9), "
               "normalization recursion on 1000 types (exact)", started, 30.0)


def test_criterion_9_channel_reading_inclusion():
    started = time.perf_counter()
    narrow = parse_type("((A->B)->(C->D))")
    wide = parse_type("((C*B)->(A*D))")

    assert check_inclusion(narrow, wide).admissible
    converse = check_inclusion(wide, narrow)
    assert not converse.admissible
    assert converse.witness is not None
    assert converse.witness in build_D(wide)
    assert converse.witness not in build_D(narrow)

    for seed in range(10):
        sample = sample_deterministic(narrow, seed=seed)
        assert membership(narrow, sample, RESIDUAL_TOL)
        assert membership(wide, sample, RESIDUAL_TOL)

    # a map of the wide type deviating along the witness word escapes the
    # narrow type by a visible residual
    analysis = io_partition(wide)
    lam = float(analysis.lam)
    word = converse.witness
    sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
    factor = np.array([[1.0 + 0j]])
    for i, lbl in enumerate(word.universe):
        bit = (word.bits >> i) & 1
        factor = np.kron(factor, np.eye(lbl.dimension) if bit else sigma_z)
    from hotypes import OperatorMatrix

    escape = OperatorMatrix(word.universe, lam * np.eye(16) + (lam / 2) * factor)
    assert membership(wide, escape, RESIDUAL_TOL)
    assert membership_defects(narrow, escape)["subspace_residual"] > MARGIN_FLOOR
    assert not membership(narrow, escape, RESIDUAL_TOL)
    _report(9, "second-order map reads as a wide channel; converse fails with a "
               "word witness confirmed by the operator oracle", started, 30.0)
