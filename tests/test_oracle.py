"""Numerical ground truth: bases, sampling, link product, residuals."""

from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

import hotypes.oracle
from hotypes import (
    ContractionSpec,
    DuplicateLabelError,
    Label,
    OperatorMatrix,
    build_D,
    check_contraction,
    delta_basis,
    herm_basis,
    io_partition,
    link_product,
    membership,
    numeric_contraction,
    parse_type,
    sample_deterministic,
    verify,
)
from hotypes.oracle import (
    _to_coefficients,
    _to_matrix,
    _uniform_draws,
    basis_dimension,
    basis_for_words,
    membership_defects,
    nosignalling_defect,
    channel_defects,
    partial_trace,
    violation_witness,
)

from conftest import (
    channel_violation_margin,
    contract_set,
    identity_operator,
    is_channel,
    is_nosignalling,
    phi_operator,
    reference_verify,
    dense_basis,
    enumerated_basis_dimension,
    partial_transpose,
    random_type,
    random_type_with_io,
    reference_link_product,
    reference_partial_trace,
    reference_sample_deterministic,
    reference_violation_witness,
)

ALGEBRA_TOL = 1e-12
RESIDUAL_TOL = 1e-9


class TestHermBasis:
    def test_one_dimensional_space(self):
        basis = herm_basis(1)
        assert basis.shape == (1, 1, 1)
        assert np.allclose(basis[0], [[1.0]])

    def test_qubit_basis_shape(self):
        basis = herm_basis(2)
        assert basis.shape == (4, 2, 2)
        assert np.allclose(basis[0], np.eye(2) / np.sqrt(2))
        for element in basis[1:]:
            assert abs(np.trace(element)) < ALGEBRA_TOL

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_gram_matrix_is_identity(self, d):
        basis = herm_basis(d)
        gram = np.einsum("kij,lij->kl", basis.conj(), basis)
        assert np.max(np.abs(gram - np.eye(d * d))) < ALGEBRA_TOL

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_elements_are_hermitian(self, d):
        basis = herm_basis(d)
        assert np.max(np.abs(basis - basis.conj().transpose(0, 2, 1))) < ALGEBRA_TOL


class TestDeltaBasis:
    def test_single_qubit_state(self):
        assert len(delta_basis(parse_type("A"))) == 3

    def test_channel_dimension(self):
        # words {00, 10}: 3*3 + 1*3
        assert len(delta_basis(parse_type("A->B"))) == 12

    def test_count_matches_word_formula(self):
        rng = random.Random(107)
        for _ in range(20):
            x = random_type_with_io(rng, max_systems=4, dims=(2, 3))
            words = build_D(x)
            expected = 0
            for word in words:
                size = 1
                for i, a in enumerate(words.universe):
                    size *= 1 if (word.bits >> i) & 1 else a.dimension**2 - 1
                expected += size
            assert len(delta_basis(x)) == expected

    def test_counted_dimension_matches_the_word_sum(self):
        rng = random.Random(127)
        for _ in range(300):
            x = random_type(rng, max_systems=7, dims=(2, 3))
            assert basis_dimension(x) == enumerated_basis_dimension(build_D(x))
        assert basis_dimension(parse_type("A->B")) == 12
        assert basis_dimension(parse_type("*".join(f"(A{i}->B{i})" for i in range(3)))) == 13**3 - 1

    def test_counted_dimension_rejects_duplicate_labels(self):
        with pytest.raises(DuplicateLabelError):
            basis_dimension(parse_type("A->A"))

    def test_orthogonal_to_identity(self):
        # the all-identity coefficient is the trace; no word set allows it
        rng = random.Random(109)
        types = [parse_type(text) for text in ("A", "A->B", "(A->B)*(C->D)")]
        types += [random_type_with_io(rng, max_systems=4, dims=(2, 3)) for _ in range(20)]
        for x in types:
            allowed = delta_basis(x).allowed
            assert allowed.shape == tuple(a.dimension**2 for a in delta_basis(x).labels)
            assert not allowed[(0,) * allowed.ndim]

    def test_orthonormal(self):
        # the coefficient transform is unitary: a round trip is the identity
        labels = (Label("A", 2), Label("B", 3), Label("C", 2))
        rng = np.random.default_rng(113)
        coeffs = rng.standard_normal((4, 9, 4)) + 1j * rng.standard_normal((4, 9, 4))
        op = _to_matrix(labels, coeffs)
        assert np.max(np.abs(_to_coefficients(op) - coeffs)) < ALGEBRA_TOL
        assert np.linalg.norm(op.data) == pytest.approx(np.linalg.norm(coeffs), rel=1e-12)
        data = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        back = _to_matrix(labels, _to_coefficients(OperatorMatrix(labels, data)))
        assert np.max(np.abs(back.data - data)) < ALGEBRA_TOL

    def test_byte_budget_refusal(self, monkeypatch):
        x = parse_type("A->B", {"A": 3, "B": 2})
        monkeypatch.setattr(hotypes.oracle, "BASIS_BYTES", 1)
        with pytest.raises(ValueError, match="budget") as refused:
            delta_basis(x)
        estimate = int(re.search(r"need (\d+) bytes", str(refused.value)).group(1))
        assert estimate % (6 * 6 * 16) == 0
        monkeypatch.setattr(hotypes.oracle, "BASIS_BYTES", estimate - 1)
        for call in (lambda: delta_basis(x), lambda: sample_deterministic(x, seed=1)):
            with pytest.raises(ValueError, match=f"need {estimate} bytes"):
                call()
        monkeypatch.setattr(hotypes.oracle, "BASIS_BYTES", estimate)
        assert len(delta_basis(x)) == 8 * 3 + 3  # words {00, 10}
        assert sample_deterministic(x, seed=1).side == 6


class TestDenseOracle:
    """The coefficient transforms agree with the dense product elements."""

    def _types(self):
        rng = random.Random(127)
        found = []
        while len(found) < 24:
            x = random_type_with_io(rng, max_systems=4, dims=(2, 3))
            side = int(np.prod([a.dimension for a in io_partition(x).elementary]))
            if side <= 24:
                found.append(x)
        return found

    def test_sampling_matches_the_dense_sum(self):
        dims_seen = set()
        for seed, x in enumerate(self._types()):
            analysis = io_partition(x)
            dims_seen |= {a.dimension for a in analysis.elementary}
            elements = dense_basis(build_D(x))
            lam = float(analysis.lam)
            side = int(np.prod([a.dimension for a in analysis.elementary]))
            rng = random.Random(seed)
            coeffs = [2 * rng.random() - 1 for _ in elements]
            deviation = np.zeros((side, side), dtype=complex)
            for c, element in zip(coeffs, elements):
                deviation += c * element
            while np.linalg.eigvalsh(lam * np.eye(side) + deviation)[0] < 0:
                deviation /= 2
            sample = sample_deterministic(x, seed=seed)
            assert np.max(np.abs(sample.data - lam * np.eye(side) - deviation)) < ALGEBRA_TOL
        assert dims_seen == {2, 3}

    def test_membership_residual_matches_the_dense_projection(self):
        for seed, x in enumerate(self._types()):
            analysis = io_partition(x)
            labels = delta_basis(x).labels
            side = int(np.prod([a.dimension for a in labels]))
            rng = np.random.default_rng(seed)
            deviation = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            data = float(analysis.lam) * np.eye(side) + deviation
            projected = np.zeros_like(deviation)
            for element in dense_basis(build_D(x)):
                projected += np.vdot(element, deviation) * element
            residual = membership_defects(x, OperatorMatrix(labels, data))["subspace_residual"]
            assert residual == pytest.approx(np.linalg.norm(deviation - projected), abs=ALGEBRA_TOL)


class TestSampling:
    def test_magnitude_zero_is_the_identity_point(self):
        x = parse_type("A->B")
        sample = sample_deterministic(x, seed=1, magnitude=0)
        assert np.array_equal(sample.data, 0.5 * np.eye(4))

    def test_channel_marginal(self):
        x = parse_type("A->B")
        for seed in range(5):
            sample = sample_deterministic(x, seed=seed)
            marginal = partial_trace(sample, ["B"])
            assert np.max(np.abs(marginal.data - np.eye(2))) < RESIDUAL_TOL

    def test_trace_is_the_input_dimension(self):
        rng = random.Random(109)
        for _ in range(10):
            x = random_type_with_io(rng, max_systems=4)
            analysis = io_partition(x)
            expected = 1
            for a in analysis.inputs:
                expected *= a.dimension
            sample = sample_deterministic(x, seed=rng.randint(0, 999))
            assert abs(np.trace(sample.data).real - expected) < RESIDUAL_TOL

    def test_samples_are_members_by_construction(self):
        rng = random.Random(113)
        for _ in range(10):
            x = random_type_with_io(rng, max_systems=4)
            assert membership(x, sample_deterministic(x, seed=rng.randint(0, 999)))

    def test_reproducible_per_seed(self):
        x = parse_type("(A->B)->(C->D)")
        one = sample_deterministic(x, seed=42)
        two = sample_deterministic(x, seed=42)
        assert np.array_equal(one.data, two.data)
        assert not np.array_equal(one.data, sample_deterministic(x, seed=43).data)

    def test_positive_semidefinite(self):
        x = parse_type("(A->B)->(C->D)")
        for seed in range(5):
            sample = sample_deterministic(x, seed=seed, magnitude=4.0)
            assert np.linalg.eigvalsh(sample.data)[0] >= 0

    def test_first_draws_are_pinned(self):
        # exact floats: 2 * random() - 1 of random.Random(seed)
        assert _uniform_draws(0, 4).tolist() == [
            0.6888437030500962, 0.515908805880605, -0.15885683833831, -0.4821664994140733
        ]
        assert _uniform_draws(1, 4).tolist() == [
            -0.7312715117751976, 0.6948674738744653, 0.5275492379532281, -0.4898619485211566
        ]

    def test_draws_are_the_random_loop_bit_for_bit(self):
        for seed in (0, 1, 7, 2**40 + 3, 10**30):
            for n in (0, 1, 2, 15, 4095):
                rng = random.Random(seed)
                expected = [2 * rng.random() - 1 for _ in range(n)]
                assert _uniform_draws(seed, n).tolist() == expected

    def test_negative_seed_is_refused(self):
        x = parse_type("A->B")
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            sample_deterministic(x, seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            verify(parse_type("(A->B)*(C->D)"), trials=2, seed=-3)
        # refused before any pair, so also where no sample would be drawn
        for text, trials in (("A->B", 2), ("(A->B)*(C->D)", 0)):
            with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
                verify(parse_type(text), trials=trials, seed=-1)


class TestLinkProduct:
    def test_identity_channel_chain(self):
        a, b, c = Label("A"), Label("B"), Label("C")
        chained = link_product(phi_operator(a, b), phi_operator(b, c))
        assert np.max(np.abs(chained.data - phi_operator(a, c).data)) < ALGEBRA_TOL

    def test_disjoint_labels_give_the_tensor_product(self):
        a, b, c = Label("A"), Label("B"), Label("C")
        r = OperatorMatrix((a, b), np.arange(16, dtype=complex).reshape(4, 4))
        s = OperatorMatrix((c,), np.array([[1, 2], [3, 4]], dtype=complex))
        linked = link_product(r, s)
        assert np.max(np.abs(linked.data - np.kron(r.data, s.data))) < ALGEBRA_TOL

    def test_commutativity(self):
        rng = random.Random(127)
        for _ in range(20):
            x = random_type_with_io(rng, max_systems=3)
            names = {a.name for a in io_partition(x).elementary}
            y = parse_type("->".join(sorted(names)) if len(names) > 1 else next(iter(names)))
            r = sample_deterministic(x, seed=rng.randint(0, 99))
            s = sample_deterministic(y, seed=rng.randint(0, 99))
            forward = link_product(r, s)
            backward = link_product(s, r)
            assert np.max(np.abs(forward.data - backward.data)) < ALGEBRA_TOL

    def test_associativity(self):
        r = sample_deterministic(parse_type("A->B"), seed=5)
        s = sample_deterministic(parse_type("B->C"), seed=6)
        t = sample_deterministic(parse_type("C->D"), seed=7)
        left = link_product(link_product(r, s), t)
        right = link_product(r, link_product(s, t))
        assert np.max(np.abs(left.data - right.data)) < ALGEBRA_TOL

    def test_positivity_preserved(self):
        rng = random.Random(131)
        for _ in range(10):
            r = sample_deterministic(parse_type("A->B"), seed=rng.randint(0, 99))
            s = sample_deterministic(parse_type("B->C"), seed=rng.randint(0, 99))
            assert np.linalg.eigvalsh(link_product(r, s).data)[0] >= -ALGEBRA_TOL

    def test_trace_law_for_composed_pairs(self):
        # the linked trace counts only the uncontracted input dimensions
        cases = [
            ("A->B", "B->C", 2),        # channel chain, remaining input A
            ("(A->B)*(C->D)", "B->E", 4),  # remaining inputs A and C
            ("A->B", "~(A->B)", 1),     # map against its dual, scalar one
        ]
        for left_text, right_text, expected in cases:
            r = sample_deterministic(parse_type(left_text), seed=21)
            s = sample_deterministic(parse_type(right_text), seed=22)
            assert np.trace(link_product(r, s).data).real == pytest.approx(expected, abs=RESIDUAL_TOL)

    def test_shared_dimension_mismatch_rejected(self):
        r = identity_operator([Label("A", 2)])
        s = identity_operator([Label("A", 3)])
        with pytest.raises(ValueError):
            link_product(r, s)

    def test_matches_the_textbook_reference(self):
        # random operators on overlapping qubit and qutrit label sets, each
        # shared label of one dimension in both
        rng = np.random.default_rng(17)
        names = "ABCDE"
        for _ in range(60):
            dims = {name: int(rng.choice([2, 3])) for name in names}

            def operator(count: int) -> OperatorMatrix:
                chosen = sorted(rng.choice(list(names), size=count, replace=False))
                labels = tuple(Label(name, dims[name]) for name in chosen)
                side = int(np.prod([a.dimension for a in labels]))
                data = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
                return OperatorMatrix(labels, data)

            r, s = operator(int(rng.integers(1, 4))), operator(int(rng.integers(1, 4)))
            linked, reference = link_product(r, s), reference_link_product(r, s)
            assert linked.labels == reference.labels
            assert np.max(np.abs(linked.data - reference.data)) < ALGEBRA_TOL


class TestNumericContraction:
    def test_full_contraction_of_the_entangled_pair(self):
        # Tr[Phi Phi^T] with Phi symmetric and Phi^2 = d Phi gives d^2
        a, b = Label("A"), Label("B")
        phi = phi_operator(a, b)
        scalar = numeric_contraction(phi, a, b)
        assert scalar.labels == ()
        assert abs(scalar.data[0, 0] - 4.0) < ALGEBRA_TOL

    def test_product_rule(self):
        rng = np.random.default_rng(3)
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sigma = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a, b = Label("A"), Label("B")
        product = OperatorMatrix((a, b), np.kron(rho, sigma))
        scalar = numeric_contraction(product, a, b)
        assert abs(scalar.data[0, 0] - np.trace(rho @ sigma.T)) < ALGEBRA_TOL

    def test_admissible_pair_yields_channels(self):
        x = parse_type("(A->B)*(C->D)")
        for seed in range(10):
            sample = sample_deterministic(x, seed=seed)
            contracted = numeric_contraction(sample, "C", "B")
            assert is_channel(contracted, ["A"], ["D"], RESIDUAL_TOL)

    def test_unknown_label_is_named(self):
        op = identity_operator([Label("A"), Label("B")])
        with pytest.raises(ValueError, match="'Z'"):
            numeric_contraction(op, "Z", "A")

    def test_matches_the_link_with_the_entangled_pair(self):
        for dims in [(2,), (3,), (2, 3)]:
            rng = random.Random(sum(dims))
            for _ in range(15):
                x = random_type_with_io(rng, max_systems=4, dims=dims)
                analysis = io_partition(x)
                sample = sample_deterministic(x, seed=rng.randint(0, 999))
                for a in analysis.inputs_ordered():
                    for b in analysis.outputs_ordered():
                        if a.dimension != b.dimension:
                            continue
                        contracted = numeric_contraction(sample, a, b)
                        linked = link_product(sample, phi_operator(a, b))
                        assert contracted.labels == linked.labels
                        assert np.max(np.abs(contracted.data - linked.data), initial=0) < ALGEBRA_TOL

    def test_a_label_cannot_close_on_itself(self):
        op = identity_operator([Label("A"), Label("B")])
        with pytest.raises(ValueError, match="'A' with itself") as caught:
            numeric_contraction(op, "A", "A")
        assert not isinstance(caught.value, DuplicateLabelError)

    def test_unequal_dimensions_refused(self):
        op = identity_operator([Label("A", 2), Label("B", 3)])
        with pytest.raises(ValueError, match="equal dimensions"):
            numeric_contraction(op, "A", "B")


class TestChannelAndNoSignalling:
    def test_depolarizing_style_choi(self):
        a, b = Label("A"), Label("B")
        choi = OperatorMatrix((a, b), np.eye(4, dtype=complex) / 2)
        assert is_channel(choi, [a], [b])

    def test_in_and_out_labels_must_not_overlap(self):
        sample = sample_deterministic(parse_type("(A->B)*(C->D)"), seed=0)
        for ins, outs in [(["A", "C", "B"], ["B", "D"]), (["A", "C"], ["C", "B", "D"])]:
            with pytest.raises(ValueError, match="must partition"):
                channel_defects(sample, ins, outs)
            with pytest.raises(ValueError, match="must partition"):
                is_channel(sample, ins, outs)
        assert is_channel(sample, ["A", "C"], ["B", "D"])

    def test_identity_channel_signals(self):
        a, b = Label("A"), Label("B")
        assert not is_nosignalling(phi_operator(a, b), [a], [b], a, b)

    def test_tensor_samples_do_not_signal_across(self):
        x = parse_type("(A->B)*(C->D)")
        analysis = io_partition(x)
        for seed in range(10):
            sample = sample_deterministic(x, seed=seed)
            assert is_nosignalling(
                sample, analysis.inputs_ordered(), analysis.outputs_ordered(), "A", "D"
            )
            assert is_nosignalling(
                sample, analysis.inputs_ordered(), analysis.outputs_ordered(), "C", "B"
            )

    def test_agreement_with_the_type_level_verdicts(self):
        rng = random.Random(137)
        for _ in range(5):
            x = random_type_with_io(rng, max_systems=4)
            analysis = io_partition(x)
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():
                    admissible = check_contraction(x, ContractionSpec.of([(a, b)])).admissible
                    if admissible:
                        for seed in range(5):
                            sample = sample_deterministic(x, seed=seed)
                            assert is_nosignalling(
                                sample,
                                analysis.inputs_ordered(),
                                analysis.outputs_ordered(),
                                a,
                                b,
                            )
                    else:
                        witness = violation_witness(x, a, b)
                        assert (
                            nosignalling_defect(
                                witness,
                                analysis.inputs_ordered(),
                                analysis.outputs_ordered(),
                                a,
                                b,
                            )
                            > 1e-3
                        )


class TestSemanticCharacterization:
    def test_sampled_supermaps_send_channels_to_channels(self):
        # the defining property of the deterministic set, checked through
        # the link product rather than through the subspace construction
        supermap_type = parse_type("(A->B)->(C->D)")
        plain = parse_type("A->B")
        for seed in range(20):
            supermap = sample_deterministic(supermap_type, seed=seed)
            channel = sample_deterministic(plain, seed=1000 + seed)
            image = link_product(supermap, channel)
            assert is_channel(image, ["C"], ["D"], RESIDUAL_TOL)

    def test_ancilla_leg_rides_through(self):
        # complete preservation: feeding a channel with an extra output leg
        # must still come out a channel, the leg untouched
        supermap_type = parse_type("(A->B)->(C->D)")
        with_ancilla = parse_type("A->B*E")
        for seed in range(20):
            supermap = sample_deterministic(supermap_type, seed=seed)
            channel = sample_deterministic(with_ancilla, seed=2000 + seed)
            image = link_product(supermap, channel)
            assert is_channel(image, ["C"], ["D", "E"], RESIDUAL_TOL)


class TestMembership:
    def test_inclusion_transfers_membership(self):
        x = parse_type("(A->B)->(C->D)")
        wide = parse_type("(C*B)->(A*D)")
        for seed in range(5):
            sample = sample_deterministic(x, seed=seed)
            assert membership(x, sample)
            assert membership(wide, sample)

    def test_perturbation_outside_the_word_set_fails(self):
        x = parse_type("A->B")
        analysis = io_partition(x)
        lam = float(analysis.lam)
        # deviation along word 0_A 1_B, which the channel word set excludes
        sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
        deviation = np.kron(sigma_z, np.eye(2))
        data = lam * np.eye(4) + 0.1 * deviation
        op = OperatorMatrix((Label("A"), Label("B")), data)
        defects = membership_defects(x, op)
        assert defects["subspace_residual"] > 1e-3
        assert not membership(x, op)

    def test_defects_equal_the_one_matrix_formulas(self):
        # the stacked spectrum helpers give each matrix the bits of its own
        # eigvalsh or 2-norm call
        rng = random.Random(149)
        for seed in range(40):
            x = random_type(rng, max_systems=4, dims=(2, 3) if seed % 4 == 0 else (2,))
            sample = sample_deterministic(x, seed=seed)
            noise = np.random.default_rng(seed).standard_normal((2,) + sample.data.shape)
            data = sample.data + 1e-3 * (noise[0] + 1j * noise[1])
            defects = membership_defects(x, OperatorMatrix(sample.labels, data))
            lam = float(io_partition(x).lam)
            assert defects["hermiticity"] == float(np.linalg.norm(data - data.conj().T, 2))
            assert defects["negativity"] == max(0.0, -float(np.linalg.eigvalsh(data)[0]))
            assert defects["lambda_deviation"] == abs(np.trace(data).real / len(data) - lam)
            assert defects["hermiticity"] > 0

    def test_wrong_labels_rejected(self):
        with pytest.raises(ValueError):
            membership(parse_type("A->B"), identity_operator([Label("A")]))


class TestViolationWitness:
    def test_margin_is_visible(self):
        x = parse_type("(A->B)*(C->D)")
        witness = violation_witness(x, "A", "B")
        assert membership(x, witness)
        contracted = numeric_contraction(witness, "A", "B")
        assert channel_violation_margin(contracted, ["C"], ["D"]) >= 1e-3

    def test_admissible_pair_refused(self):
        with pytest.raises(ValueError):
            violation_witness(parse_type("(A->B)*(C->D)"), "C", "B")

    def test_unknown_label_is_named(self):
        with pytest.raises(ValueError, match="'Z'"):
            violation_witness(parse_type("(A->B)*(C->D)"), "Z", "B")

    def test_margin_scales_linearly_in_epsilon(self):
        x = parse_type("(A->B)*(C->D)")
        analysis = io_partition(x)
        lam = float(analysis.lam)
        witness = violation_witness(x, "A", "B")
        # recover the deviation direction; the construction uses epsilon = lam/2
        direction = (witness.data - lam * np.eye(witness.side)) / (lam / 2)
        margins = []
        for eps in (lam / 8, lam / 16):
            op = OperatorMatrix(witness.labels, lam * np.eye(witness.side) + eps * direction)
            contracted = numeric_contraction(op, "A", "B")
            margins.append(channel_violation_margin(contracted, ["C"], ["D"]))
        assert margins[0] == pytest.approx(2 * margins[1], rel=1e-9)


def _reference_types() -> list:
    """320 seeded types: qubits up to five systems, qubit-qutrit mixes up
    to four."""
    rng = random.Random(127)
    return [
        random_type(rng, max_systems=4, dims=(2, 3)) if n % 2 else random_type(rng, max_systems=5)
        for n in range(320)
    ]


def _same_bits(op: OperatorMatrix, reference: OperatorMatrix) -> bool:
    """Equal labels and entries, and the same bytes (so signed zeros too)."""
    return (
        op.labels == reference.labels
        and np.array_equal(op.data, reference.data)
        and op.data.dtype == reference.data.dtype
        and op.data.tobytes() == reference.data.tobytes()
    )


class _CountingLapack:
    """Counts calls of ``np.linalg.eigvalsh`` and ``np.linalg.svd``, also
    those numpy makes internally (``np.linalg.norm(m, 2)`` runs an SVD)."""

    def __init__(self, monkeypatch):
        self.calls = {"eigvalsh": 0, "svd": 0}
        for name in self.calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                self.calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (np.linalg, getattr(np.linalg, "_linalg", None)):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

    def take(self, name: str = "eigvalsh") -> int:
        calls, self.calls[name] = self.calls[name], 0
        return calls


class TestBitExactReferences:
    """The sampler and the witness against the plain dense loops of
    conftest, byte for byte, and their spectrum budgets."""

    def test_samples_equal_the_halving_loop(self, monkeypatch):
        spectra = _CountingLapack(monkeypatch)
        smallest = np.inf  # largest entry of a magnitude-64 deviation
        samples = total = 0
        for seed, x in enumerate(_reference_types()):
            lam = float(io_partition(x).lam)
            for magnitude in (0.25, 1.0, 4.0, 64.0):
                reference = reference_sample_deterministic(x, seed=seed, magnitude=magnitude)
                spectra.take()
                sample = sample_deterministic(x, seed=seed, magnitude=magnitude)
                calls = spectra.take()
                assert calls <= 3
                samples, total = samples + 1, total + calls
                assert _same_bits(sample, reference)
                deviation = np.max(np.abs(sample.data - lam * np.eye(sample.side)))
                if magnitude == 64.0 and deviation:
                    smallest = min(smallest, deviation)
        assert smallest < 64.0 / 2**8  # magnitude 64 forces many halvings
        assert total <= 1.05 * samples  # one spectrum, bar a step near 0

    def test_witnesses_equal_the_dense_kronecker_loop(self, monkeypatch):
        spectra = _CountingLapack(monkeypatch)
        witnesses = 0
        for x in _reference_types():
            analysis = io_partition(x)
            for a in analysis.inputs_ordered():
                for b in analysis.outputs_ordered():
                    if a.dimension != b.dimension:
                        continue
                    verdict = check_contraction(x, ContractionSpec.of([(a, b)]))
                    if verdict.admissible or verdict.witness is None:
                        continue
                    reference = reference_violation_witness(x, a, b)
                    spectra.take()
                    witness = violation_witness(x, a, b)
                    assert spectra.take() == 0
                    assert _same_bits(witness, reference)
                    witnesses += 1
        assert witnesses > 200


class TestStringOperatorCompatibility:
    def test_contraction_lands_in_the_contracted_span(self):
        rng = random.Random(139)
        for _ in range(5):
            x = random_type_with_io(rng, max_systems=4)
            analysis = io_partition(x)
            a = sorted(analysis.inputs)[0]
            b = sorted(analysis.outputs)[0]
            basis = delta_basis(x)
            coeffs = np.zeros(basis.allowed.shape)
            coeffs[basis.allowed] = np.random.default_rng(rng.randint(0, 999)).standard_normal(len(basis))
            contracted = numeric_contraction(_to_matrix(basis.labels, coeffs), a, b)
            target = basis_for_words(contract_set(build_D(x), [(a, b)]))
            assert target.labels == contracted.labels
            residual = np.linalg.norm(_to_coefficients(contracted)[~target.allowed])
            assert residual < RESIDUAL_TOL


class TestOperatorUtilities:
    def test_labels_must_be_sorted(self):
        with pytest.raises(ValueError):
            OperatorMatrix((Label("B"), Label("A")), np.eye(4, dtype=complex))

    def test_partial_transpose_involution(self):
        x = parse_type("A->B")
        sample = sample_deterministic(x, seed=9)
        twice = partial_transpose(partial_transpose(sample, ["A"]), ["A"])
        assert np.array_equal(twice.data, sample.data)

    def test_partial_trace_matches_the_np_trace_reference(self):
        rng = random.Random(23)
        for dims in [(2,), (3,), (2, 3)]:
            for _ in range(10):
                x = random_type(rng, max_systems=4, dims=dims)
                sample = sample_deterministic(x, seed=rng.randint(0, 999))
                for count in range(len(sample.labels) + 1):
                    drop = rng.sample([a.name for a in sample.labels], count)
                    traced = partial_trace(sample, drop)
                    reference = reference_partial_trace(sample, drop)
                    assert traced.labels == reference.labels
                    assert np.max(np.abs(traced.data - reference.data)) < ALGEBRA_TOL

    def test_hermiticity_preserved_by_operations(self):
        r = sample_deterministic(parse_type("A->B"), seed=11)
        s = sample_deterministic(parse_type("B->C"), seed=12)
        for op in (link_product(r, s), partial_trace(r, ["B"])):
            assert np.linalg.norm(op.data - op.data.conj().T, 2) < ALGEBRA_TOL


class TestVerifyArguments:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            verify(parse_type("(A->B)*(C->D)"), trials=1, tol=tol)

    def test_trials_must_not_be_negative(self):
        with pytest.raises(ValueError, match="trials must be at least 0"):
            verify(parse_type("(A->B)*(C->D)"), trials=-1)


class TestVerifyBatching:
    """``verify`` shares reductions across pairs and stacks its spectra,
    with the bits of the pair-by-pair loop."""

    def test_reports_equal_the_pair_by_pair_loop(self):
        rng = random.Random(173)
        compared = 0
        while compared < 300:
            dims = [(2,), (3,), (2, 3)][compared % 3]
            x = random_type(rng, max_systems=(7, 4, 5)[compared % 3], dims=dims)
            if hotypes.oracle._side(io_partition(x).elementary) > 128:
                continue
            got = json.dumps(verify(x, trials=3, seed=compared).to_json())
            assert got == json.dumps(reference_verify(x, trials=3, seed=compared).to_json()), x
            compared += 1

    def test_lapack_calls_per_matrix_shape(self, monkeypatch):
        x = parse_type("((A->B)*(C->D))*(E->F)")
        lapack = _CountingLapack(monkeypatch)
        report = verify(x, trials=2)
        assert report.failures == 0
        # one spectrum per sample, then per trial and for the witnesses
        # one stacked spectrum of the contractions and two stacked SVDs
        assert lapack.take("eigvalsh") <= 5
        assert lapack.take("svd") <= 6

    def test_stacks_close_at_one_operator(self, monkeypatch):
        x = parse_type("(A->B)*(C->D)*(E->F)")
        by_name = {a.name: a for a in io_partition(x).elementary}
        pairs = [(by_name["C"], by_name["B"])] * 40
        want = json.dumps(reference_verify(x, pairs, trials=2).to_json())
        stacks = []
        original = np.linalg.eigvalsh

        def recorded(m):
            if m.ndim == 3:
                stacks.append(m.nbytes)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        assert json.dumps(verify(x, pairs, trials=2).to_json()) == want
        # each contraction comes with gaps of 4352 bytes, so a chunk
        # closes after 8 of the 40 and its stack stays under 64² × 16
        assert len(stacks) == 2 * 5
        assert max(stacks) <= 64 * 64 * 16
