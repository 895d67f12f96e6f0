"""Shared test helpers: seeded random type generation and the reference
oracles the exact core is checked against.  The oracles are the
paper-literal derivations: the arrow-only word-set recursion, the full
and traceless sets and their complements, the all-ones word, word-set
union, intersection, difference and inclusion, the smallest word of a
set, word-set contraction, contraction
decided by the equivalent type inclusion, composition decided with
explicit roles, full signalling as the admissibility of the reversed
contraction on the dual, a dense product-basis builder, the per-word
basis dimension, the enumerated critical-set intersection, the sampler,
the witness and the witness residuals of ``verify`` as plain dense
loops, the oracle check pair by pair, the partial transpose, partial
trace and link product as textbook matrix operations, the tokenizer as a
match loop that re-checks every name, the signalling matrix as one climb
per pair, the parser as recursive descent, the critical-set pass from
scratch on every call, equivalence as inclusion both ways, type
equality as the recursive dataclass comparison, the fold over the type's
objects with the relabeling built on it, and pair orientation by
membership in the input set.  The identity and
entangled-pair operators and the yes/no channel and no-signalling
predicates over the oracle's residuals live here too, since only tests
use them, and so does the environment of child processes, which puts the
package under test on their import path."""

from __future__ import annotations

import itertools
import os
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Collection, Iterable, Sequence

import hypothesis
import numpy as np
from hypothesis import strategies as st

import hotypes
from hotypes import (
    Arrow,
    OperatorMatrix,
    ContractionSpec,
    Label,
    Reason,
    TRIVIAL,
    TypeExpr,
    BitWord,
    Elementary,
    Trivial,
    Verdict,
    WordSet,
    bar,
    build_D,
    check_contraction,
    check_inclusion,
    herm_basis,
    io_partition,
    tensor,
)
from hotypes.admissibility import _orient_pairs, _prime, _rename_labels
from hotypes.oracle import (
    VerifyReport,
    _defects,
    _job,
    _side,
    _to_matrix,
    _witness_map,
    basis_dimension,
    basis_for_words,
    channel_defects,
    nosignalling_defect,
    numeric_contraction,
    partial_trace,
    violation_witness,
)
from hotypes.signalling import Relation, SignallingVerdict, _resolve_pair, signals
from hotypes.strings import (
    _ARROW_CLASSES,
    _D,
    _E,
    _critical_word,
    canonical_universe,
    concat,
    critical_set_multi,
)
from hotypes.type_core import IoAnalysis, TypeSyntaxError, _distinct_labels, _flat_tree, _tokenize

hypothesis.settings.register_profile(
    "hotypes", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("hotypes")


def child_env(env: dict[str, str] | None = None) -> dict[str, str]:
    """The environment of a child Python process (default: this one's) with
    the ``src`` directory of the imported package first on PYTHONPATH, so
    the child imports the package the tests import."""
    env = dict(os.environ if env is None else env)
    src = str(Path(hotypes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# fresh-name pool; 'I' is reserved for the trivial type
_NAMES = [c for c in "ABCDEFGHJKLMNOPQRSTUVWXYZ"]


def random_type(
    rng: random.Random,
    max_systems: int = 6,
    dims: Sequence[int] = (2,),
    min_systems: int = 1,
) -> TypeExpr:
    """A random relabeled type with between min and max non-trivial systems.

    Mixes raw arrows, bars, tensors, and occasional trivial-typed sides so
    the whole grammar gets exercised.
    """
    budget = rng.randint(min_systems, max_systems)
    counter = 0

    def fresh() -> Label:
        nonlocal counter
        name = _NAMES[counter] if counter < len(_NAMES) else f"Z{counter}"
        counter += 1
        return Label(name, rng.choice(list(dims)))

    def build(n: int) -> TypeExpr:
        roll = rng.random()
        if n == 1:
            if roll < 0.55:
                return Elementary(fresh())
            if roll < 0.75:
                return bar(build(1))
            if roll < 0.85:
                return Arrow(TRIVIAL, build(1))
            return Arrow(build(1), TRIVIAL)
        split = rng.randint(1, n - 1)
        left, right = build(split), build(n - split)
        if roll < 0.55:
            return Arrow(left, right)
        if roll < 0.85:
            return tensor(left, right)
        return bar(Arrow(left, right))

    return build(budget)


def random_type_with_io(
    rng: random.Random,
    max_systems: int = 6,
    dims: Sequence[int] = (2,),
    min_inputs: int = 1,
    min_outputs: int = 1,
) -> TypeExpr:
    """Random type that has at least the requested inputs and outputs."""
    while True:
        x = random_type(rng, max_systems=max_systems, dims=dims, min_systems=min_inputs + min_outputs)
        analysis = io_partition(x)
        if len(analysis.inputs) >= min_inputs and len(analysis.outputs) >= min_outputs:
            return x


@st.composite
def type_exprs(draw, max_systems: int = 5, dims: Sequence[int] = (2,)) -> TypeExpr:
    seed = draw(st.integers(0, 2**32 - 1))
    return random_type(random.Random(seed), max_systems=max_systems, dims=dims)


@st.composite
def type_exprs_with_io(draw, max_systems: int = 5, dims: Sequence[int] = (2,)) -> TypeExpr:
    seed = draw(st.integers(0, 2**32 - 1))
    return random_type_with_io(random.Random(seed), max_systems=max_systems, dims=dims)


def reference_equal(x: TypeExpr, y: TypeExpr) -> bool:
    """The ``==`` that ``dataclass`` generates for the type variants: the
    same class, then the fields compared in order, recursing on arrows."""
    if x.__class__ is not y.__class__:
        return False
    if isinstance(x, Arrow):
        return reference_equal(x.left, y.left) and reference_equal(x.right, y.right)
    if isinstance(x, Elementary):
        return x.label == y.label
    return True  # Trivial has no fields


def reference_D(x: TypeExpr) -> WordSet:
    """D_x by the arrow rule alone, D_{x->y} = W_x D_y ∪ bar(D_x) perp(D_y),
    on the desugared form of every tensor and without a cache."""
    if isinstance(x, Trivial):
        return WordSet((), frozenset())
    if isinstance(x, Elementary):
        return WordSet((x.label,), frozenset({0}))
    left, right = reference_D(x.left), reference_D(x.right)
    return word_union(
        concat(full_set(left.universe), right), concat(complement_bar(left), complement_perp(right))
    )


def full_set(universe: Iterable[Label]) -> WordSet:
    """W: every word over the universe, which keeps the given order and is
    checked for duplicates as every word-set universe is.  Over the empty
    universe this is the singleton holding the null string."""
    ordered = _distinct_labels(list(universe))
    return WordSet(ordered, frozenset(range(1 << len(ordered))))


def all_ones(universe: Iterable[Label]) -> BitWord:
    """e: the all-ones word."""
    ordered = _distinct_labels(list(universe))
    return BitWord(ordered, (1 << len(ordered)) - 1)


def complement_perp(j: WordSet) -> WordSet:
    """W \\ J."""
    return WordSet(j.universe, full_set(j.universe).masks - j.masks)


def word_union(s: WordSet, t: WordSet) -> WordSet:
    """The words of s or t, over the labels of s; t may order the same
    labels differently."""
    return WordSet(s.universe, s.masks | s._aligned(t.universe, t.masks))


def word_intersection(s: WordSet, t: WordSet) -> WordSet:
    """The words of s that are also in t, over the labels of s; t may
    order the same labels differently."""
    return WordSet(s.universe, s.masks & s._aligned(t.universe, t.masks))


def word_difference(s: WordSet, t: WordSet) -> WordSet:
    """The words of s that are not in t, over the labels of s; t may
    order the same labels differently."""
    return WordSet(s.universe, s.masks - s._aligned(t.universe, t.masks))


def min_word(s: WordSet) -> BitWord:
    """The smallest word of s in sorted-name order (0 < 1), over the
    canonical universe."""
    if not s.masks:
        raise ValueError("empty word set has no smallest word")
    canonical = canonical_universe(s.universe)
    (bits,) = WordSet(canonical)._aligned(s.universe, [next(iter(s)).bits])
    return BitWord(canonical, bits)


def word_is_subset(s: WordSet, t: WordSet) -> bool:
    """Is every word of s in t?  The two may order their labels differently."""
    return t._aligned(s.universe, s.masks) <= t.masks


def word_mask(universe: Sequence[Label], bits_by_name: dict[str, int]) -> int:
    """The word {label name: bit} as a mask over the universe."""
    return sum(bits_by_name[a.name] << i for i, a in enumerate(universe))


def traceless_set(universe: Iterable[Label]) -> WordSet:
    """T = W minus the all-ones word; empty over the empty universe."""
    w = full_set(universe)
    return WordSet(w.universe, w.masks - {all_ones(w.universe).bits})


def complement_bar(j: WordSet) -> WordSet:
    """T \\ J."""
    return WordSet(j.universe, traceless_set(j.universe).masks - j.masks)


def _positions(universe: tuple[Label, ...], labels: Sequence[Label | str]) -> list[int]:
    index = {a.name: i for i, a in enumerate(universe)}
    out = []
    for label in labels:
        name = label.name if isinstance(label, Label) else label
        if name not in index:
            raise ValueError(f"label {name!r} not in universe")
        out.append(index[name])
    return out


def contract_set(s: WordSet, pairs: Sequence[tuple[Label | str, Label | str]]) -> WordSet:
    """Contract every pair on every word: a word whose two bits of some
    pair disagree is dropped, the others lose the paired positions.  Pair
    order is immaterial."""
    flat: list[str] = []
    for a, b in pairs:
        flat.append(a.name if isinstance(a, Label) else a)
        flat.append(b.name if isinstance(b, Label) else b)
    if len(set(flat)) != len(flat):
        raise ValueError(f"contraction pairs overlap: {flat}")
    positions = _positions(s.universe, flat)
    pair_positions = [(positions[2 * i], positions[2 * i + 1]) for i in range(len(pairs))]
    dropped = {p for pq in pair_positions for p in pq}
    keep = tuple(lbl for i, lbl in enumerate(s.universe) if i not in dropped)

    survivors = set()
    for mask in s.masks:
        if any(((mask >> pa) & 1) != ((mask >> pb) & 1) for pa, pb in pair_positions):
            continue
        out = 0
        shift = 0
        for i in range(len(s.universe)):
            if i in dropped:
                continue
            out |= ((mask >> i) & 1) << shift
            shift += 1
        survivors.add(out)
    return WordSet(keep, frozenset(survivors))


def _tensor_fold(parts: Sequence[TypeExpr]) -> TypeExpr:
    if not parts:
        return TRIVIAL
    out = parts[0]
    for part in parts[1:]:
        out = tensor(out, part)
    return out


def reference_orient_pairs(
    inputs: Collection[Label], pairs: Sequence[tuple[Label, Label]]
) -> tuple[Verdict | None, list[tuple[Label, Label]]]:
    """Each pair normalized to (input, output) by membership in the input
    set; the first pair of two inputs or two outputs rejects."""
    oriented = []
    for a, b in pairs:
        a_in, b_in = a in inputs, b in inputs
        if a_in and b_in:
            return Verdict(False, Reason.INPUT_INPUT), []
        if not a_in and not b_in:
            return Verdict(False, Reason.OUTPUT_OUTPUT), []
        oriented.append((a, b) if a_in else (b, a))
    return None, oriented


def reference_fold(x: TypeExpr, leaf, trivial, arrow):
    """Evaluate x bottom-up over its objects without recursion:
    ``leaf(label)`` at each elementary system, ``trivial`` at I, and
    ``arrow(left, right)`` on the values of the two sides of each arrow.
    The reference for ``_FlatTree.fold``; repeated labels are allowed."""
    values: list = []
    todo: list[tuple[TypeExpr, bool]] = [(x, False)]
    while todo:
        node, sides_done = todo.pop()
        if isinstance(node, Arrow):
            if sides_done:
                right = values.pop()
                values.append(arrow(values.pop(), right))
            else:
                todo += [(node, True), (node.right, False), (node.left, False)]
        elif isinstance(node, Elementary):
            values.append(leaf(node.label))
        else:
            values.append(trivial)
    return values[0]


def reference_relabel_unique(x: TypeExpr) -> tuple[TypeExpr, dict[str, str]]:
    """``relabel_unique`` by the object fold: every label renamed in
    textual order, the k-th repeat of N to the first free N1, N2, ..."""
    in_use = {node.label.name for node in x.walk() if isinstance(node, Elementary)}
    seen: set[str] = set()
    provenance: dict[str, str] = {}

    def rename(label: Label) -> TypeExpr:
        if label.name in seen:
            counter = 1
            while f"{label.name}{counter}" in in_use | seen:
                counter += 1
            provenance[f"{label.name}{counter}"] = label.name
            label = Label(f"{label.name}{counter}", label.dimension)
        seen.add(label.name)
        return Elementary(label)

    return reference_fold(x, rename, TRIVIAL, Arrow), provenance


def supermap_inclusion_form(x: TypeExpr, spec: ContractionSpec) -> Verdict:
    """Decide the contraction by the equivalent type inclusion.

    Builds (tensor of (B_i -> A_i)) -> (remaining inputs -> remaining
    outputs) for the oriented pairs (A_i input, B_i output) and runs
    check_inclusion against it.  Agrees with check_contraction.
    """
    analysis = io_partition(x)
    rejection, oriented = _orient_pairs(x, spec)
    if rejection is not None:
        raise ValueError(f"pairs must join inputs with outputs ({rejection.reason.value})")
    if not oriented:
        raise ValueError("at least one contraction pair is required")
    contracted = {name for pair in oriented for name in (pair[0].name, pair[1].name)}
    plugs = _tensor_fold([Arrow(Elementary(b), Elementary(a)) for a, b in oriented])
    rest_in = _tensor_fold(
        [Elementary(a) for a in analysis.inputs_ordered() if a.name not in contracted]
    )
    rest_out = _tensor_fold(
        [Elementary(a) for a in analysis.outputs_ordered() if a.name not in contracted]
    )
    target = Arrow(plugs, Arrow(rest_in, rest_out))
    return check_inclusion(x, target)


def reference_check_composition(x: TypeExpr, y: TypeExpr) -> Verdict:
    """Composition decided with explicit roles: a shared label that both
    types read (or both write) is rejected outright, in sorted-name order;
    the rest are oriented (input, output) and checked as a contraction on
    the tensor, with y's shared labels renamed apart."""
    tx, ty = _flat_tree(x), _flat_tree(y)
    dims_x = {a.name: a.dimension for a in tx.labels}
    dims_y = {a.name: a.dimension for a in ty.labels}
    shared = sorted(set(dims_x) & set(dims_y))
    for name in shared:
        if dims_x[name] != dims_y[name]:
            raise ValueError(
                f"shared label {name!r} has dimension {dims_x[name]} in one type "
                f"and {dims_y[name]} in the other"
            )
    inputs_x = {a.name for a in tx.inputs()}
    inputs_y = {a.name for a in ty.inputs()}
    result_in = tuple(a for a in tx.inputs() + ty.inputs() if a.name not in shared)
    result_out = tuple(a for a in tx.outputs() + ty.outputs() if a.name not in shared)
    if not shared:
        return Verdict(True, Reason.OK, result_in=result_in, result_out=result_out)
    for name in shared:
        if name in inputs_x and name in inputs_y:
            return Verdict(False, Reason.INPUT_INPUT)
        if name not in inputs_x and name not in inputs_y:
            return Verdict(False, Reason.OUTPUT_OUTPUT)
    taken = set(dims_x) | set(dims_y)
    renaming = {name: _prime(name, taken) for name in shared}
    pairs = []
    for name in shared:
        original = Label(name, dims_x[name])
        primed = Label(renaming[name], dims_y[name])
        pairs.append((original, primed) if name in inputs_x else (primed, original))
    verdict = check_contraction(tensor(x, _rename_labels(y, renaming)), ContractionSpec.of(pairs))
    if not verdict.admissible:
        return verdict
    return Verdict(True, Reason.OK, result_in=result_in, result_out=result_out)


def full_signalling(x: TypeExpr, a: Label | str, b: Label | str) -> bool:
    """Critical-set test for full signalling from input a to output b: the
    reversed contraction on the dual type must be admissible."""
    tree = _flat_tree(x)
    i, j = _resolve_pair(x, a, b)
    return _critical_word(bar(x), [(tree.labels[j], tree.labels[i])]) is None


def dense_basis(words: WordSet) -> list[np.ndarray]:
    """The product-basis elements spanned by a word set as dense matrices:
    traceless factors at 0 bits, the normalized identity at 1 bits, in
    canonical label order, word-set order, and row-major within a word."""
    labels = canonical_universe(words.universe)
    pools = {}
    for a in labels:
        stack = herm_basis(a.dimension)
        pools[(a.name, 0)], pools[(a.name, 1)] = list(stack[1:]), [stack[0]]
    elements = []
    for word in words:
        for combo in itertools.product(*(pools[(a.name, word.bit(a))] for a in labels)):
            m = np.array([[1.0 + 0j]])
            for factor in combo:
                m = np.kron(m, factor)
            elements.append(m)
    return elements


def enumerated_basis_dimension(words: WordSet) -> int:
    """The number of product-basis elements a word set spans, summed word
    by word: d^2 - 1 traceless factors per 0 bit, one identity per 1 bit."""
    total = 0
    for word in words:
        size = 1
        for a in words.universe:
            if not word.bit(a):
                size *= a.dimension**2 - 1
        total += size
    return total


def enumerated_critical_word(x: TypeExpr, pairs: Sequence[tuple[Label, Label]]) -> BitWord | None:
    """The smallest word of D_x in the critical set of the (input, output)
    pairs, by building both sets and intersecting them; None when they
    miss each other."""
    hits = word_intersection(build_D(x), critical_set_multi(x, pairs))
    return min_word(hits) if hits.masks else None


def _reference_block(word: BitWord, labels: Sequence[Label]) -> tuple[slice, ...]:
    """One word's coefficients, read bit by bit by label name: the identity
    index at its 1 bits, the traceless indices at its 0 bits."""
    return tuple(slice(0, 1) if word.bit(a) else slice(1, None) for a in labels)


def reference_sample_deterministic(x: TypeExpr, seed: int = 0, magnitude: float = 1.0) -> OperatorMatrix:
    """The seeded sample of x by the plain halving loop: a coefficient mask
    built word by word, the draws (``2 * random() - 1`` from
    ``random.Random(seed)``, one call each) filled block by block in
    word-set order, and one spectrum per halving until the operator is
    positive."""
    analysis = io_partition(x)
    labels = canonical_universe(analysis.elementary)
    lam = float(analysis.lam)
    side = int(np.prod([a.dimension for a in labels]))
    base = lam * np.eye(side, dtype=complex)
    if magnitude == 0:
        return OperatorMatrix(labels, base)
    words = build_D(x)
    allowed = np.zeros(tuple(a.dimension**2 for a in labels), dtype=bool)
    for word in words:
        allowed[_reference_block(word, labels)] = True
    rng = random.Random(seed)
    draws = magnitude * np.array([2 * rng.random() - 1 for _ in range(np.count_nonzero(allowed))])
    coeffs = np.zeros(allowed.shape)
    offset = 0
    for word in words:
        block = coeffs[_reference_block(word, labels)]
        block[...] = draws[offset : offset + block.size].reshape(block.shape)
        offset += block.size
    deviation = _to_matrix(labels, coeffs).data
    for _ in range(60):
        data = base + deviation
        if float(np.linalg.eigvalsh(data)[0]) >= 0:
            return OperatorMatrix(labels, data)
        deviation /= 2
    return OperatorMatrix(labels, base + deviation)


def reference_violation_witness(x: TypeExpr, a: Label, b: Label) -> OperatorMatrix:
    """The witness map of an inadmissible contraction as a dense operator:
    lambda I plus epsilon times the Kronecker product of diag(1, -1, 0, ...)
    at the witness word's 0 bits and identities at its 1 bits, epsilon
    halved from lambda / 2 until the spectrum is non-negative."""
    analysis = io_partition(x)
    word = check_contraction(x, ContractionSpec.of([(a, b)])).witness
    labels = canonical_universe(analysis.elementary)
    factor = np.array([[1.0 + 0j]])
    for lbl in labels:
        if word.bit(lbl):
            block = np.eye(lbl.dimension, dtype=complex)
        else:
            block = np.zeros((lbl.dimension, lbl.dimension), dtype=complex)
            block[0, 0], block[1, 1] = 1, -1
        factor = np.kron(factor, block)
    lam = float(analysis.lam)
    side = factor.shape[0]
    epsilon = lam / 2
    data = lam * np.eye(side) + epsilon * factor
    while float(np.linalg.eigvalsh(data)[0]) < 0:
        epsilon /= 2
        data = lam * np.eye(side) + epsilon * factor
    return OperatorMatrix(labels, data)


def reference_witness_defects(
    analysis: IoAnalysis, witnessed: Sequence[tuple[Label, Label, BitWord]]
) -> list[tuple[float, float, float]]:
    """(negativity, marginal deviation, signalling defect) of each (a, b,
    word) from the dense witness map: its (a, b) contraction and its
    reduction to the inputs and b, read by ``oracle._defects`` with
    stacked LAPACK calls.  Each map is built when its job is drawn."""

    def jobs():
        outputs = analysis.outputs_ordered()
        for a, b, word in witnessed:
            witness = _witness_map(analysis, word)
            drop = [s for s in outputs if s.name != b.name]
            contracted = numeric_contraction(witness, a, b)
            yield _job(contracted, [s.name for s in drop], partial_trace(witness, drop), a)

    return _defects(jobs(), _side(analysis.elementary))


def identity_operator(labels: Iterable[Label]) -> OperatorMatrix:
    ordered = canonical_universe(labels)
    return OperatorMatrix(ordered, np.eye(_side(ordered), dtype=complex))


def phi_operator(a: Label, b: Label) -> OperatorMatrix:
    """Unnormalized maximally entangled operator sum_ij |ii><jj| on (a, b),
    with the computational-basis identification of the two spaces."""
    if a.dimension != b.dimension:
        raise ValueError(f"{a.name} and {b.name} must have equal dimensions")
    d = a.dimension
    data = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            data[i * d + i, j * d + j] = 1.0
    return OperatorMatrix(canonical_universe((a, b)), data)


def is_channel(
    op: OperatorMatrix,
    in_labels: Iterable[Label | str],
    out_labels: Iterable[Label | str],
    tol: float = 1e-9,
) -> bool:
    negativity, deviation = channel_defects(op, in_labels, out_labels)
    return negativity <= tol and deviation <= tol


def channel_violation_margin(
    op: OperatorMatrix, in_labels: Iterable[Label | str], out_labels: Iterable[Label | str]
) -> float:
    """How badly the channel conditions fail (zero for a valid channel)."""
    negativity, deviation = channel_defects(op, in_labels, out_labels)
    return max(negativity, deviation)


def is_nosignalling(
    op: OperatorMatrix,
    in_labels: Iterable[Label | str],
    out_labels: Iterable[Label | str],
    a: Label | str,
    b: Label | str,
    tol: float = 1e-9,
) -> bool:
    return nosignalling_defect(op, in_labels, out_labels, a, b) <= tol


def partial_transpose(op: OperatorMatrix, labels: Iterable[Label | str]) -> OperatorMatrix:
    """Transpose the ket/bra axes of the listed labels."""
    names = {a.name if isinstance(a, Label) else a for a in labels}
    n = len(op.labels)
    axes = list(range(2 * n))
    for i, a in enumerate(op.labels):
        if a.name in names:
            axes[i], axes[n + i] = axes[n + i], axes[i]
    return OperatorMatrix(op.labels, op.tensor_view().transpose(axes).reshape(op.side, op.side))


def reference_partial_trace(op: OperatorMatrix, drop: Iterable[Label | str]) -> OperatorMatrix:
    """Trace out the listed labels one at a time: ``np.trace`` over a
    label's ket and bra axes of the reshaped (kets, bras) tensor."""
    names = {a.name if isinstance(a, Label) else a for a in drop}
    labels = list(op.labels)
    t = op.tensor_view()
    for name in sorted(names):
        i = [a.name for a in labels].index(name)
        t = np.trace(t, axis1=i, axis2=len(labels) + i)
        del labels[i]
    side = _side(labels)
    return OperatorMatrix(tuple(labels), t.reshape(side, side))


def _embed(op: OperatorMatrix, labels: tuple[Label, ...]) -> np.ndarray:
    """op tensored with the identity on the labels it lacks, as a matrix
    with its axes permuted into the order of ``labels``."""
    names = [a.name for a in op.labels]
    missing = [a for a in labels if a.name not in names]
    order = names + [a.name for a in missing]
    data = np.kron(op.data, np.eye(_side(missing)))
    dims = [a.dimension for a in op.labels + tuple(missing)]
    perm = [order.index(a.name) for a in labels]
    n = len(order)
    permuted = data.reshape(dims + dims).transpose(perm + [n + p for p in perm])
    return permuted.reshape(data.shape)


def reference_link_product(r: OperatorMatrix, s: OperatorMatrix) -> OperatorMatrix:
    """The link product as written by Chiribella, D'Ariano and Perinotti:
    Tr_shared[(r^T_shared (x) I)(I (x) s)], with both factors embedded in
    one canonical layout over all labels before the matrix product."""
    s_names = {a.name for a in s.labels}
    shared = [a for a in r.labels if a.name in s_names]
    shared_names = {a.name for a in shared}
    union = canonical_universe(r.labels + tuple(a for a in s.labels if a.name not in shared_names))
    product = _embed(partial_transpose(r, shared), union) @ _embed(s, union)
    return reference_partial_trace(OperatorMatrix(union, product), shared)


def reference_verify(
    x: TypeExpr,
    pairs: Iterable[tuple[Label, Label]] | None = None,
    trials: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
) -> VerifyReport:
    """``oracle.verify`` pair by pair: one ``violation_witness`` per
    inadmissible pair, and per trial and admissible pair one
    ``channel_defects`` of the contracted sample and one
    ``nosignalling_defect`` of the whole sample, each tracing its own
    operators.  Samples come from the plain halving loop."""
    analysis = io_partition(x)
    inputs, outputs = analysis.inputs_ordered(), analysis.outputs_ordered()
    lambda_ok = analysis.lam == Fraction(1, _side(outputs))
    basis_size = len(basis_for_words(build_D(x)))
    basis_ok = basis_size == basis_dimension(x)
    if trials == 0:
        pairs = []
    elif pairs is None:
        pairs = [(a, b) for a in inputs for b in outputs if a.dimension == b.dimension]
    input_names = {a.name for a in inputs}
    entries: list[dict] = []
    sampled = []
    for a, b in pairs:
        verdict = check_contraction(x, ContractionSpec.of([(a, b)]))
        entry = {"pair": f"{a.name}:{b.name}", "admissible": verdict.admissible,
                 "reason": verdict.reason.value}
        entries.append(entry)
        if verdict.witness is None and not verdict.admissible:
            continue
        if a.name not in input_names:
            a, b = b, a
        relation = signals(x, a, b).relation
        entry["relation"] = relation.value
        if verdict.admissible != (relation is Relation.NO_SIGNALLING):
            entry["error"] = "signalling algorithm disagrees with critical-set verdict"
        elif verdict.admissible:
            entry.update(trials=trials, channel_failures=0, worst_channel_residual=0.0,
                         worst_nosignalling_residual=0.0)
            rest_in = [s.name for s in verdict.result_in]
            rest_out = [s.name for s in verdict.result_out]
            sampled.append((entry, a, b, rest_in, rest_out))
        else:
            witness = violation_witness(x, a, b)
            rest_in = [s.name for s in inputs if s.name != a.name]
            rest_out = [s.name for s in outputs if s.name != b.name]
            margin = channel_violation_margin(numeric_contraction(witness, a, b), rest_in, rest_out)
            entry.update(violation_margin=margin,
                         witness_signalling_size=nosignalling_defect(witness, inputs, outputs, a, b))
            if margin < 10 * tol:
                entry["error"] = "violation margin too small"
    for trial in range(trials if sampled else 0):
        sample = reference_sample_deterministic(x, seed=seed + trial)
        for entry, a, b, rest_in, rest_out in sampled:
            negativity, deviation = channel_defects(numeric_contraction(sample, a, b), rest_in, rest_out)
            nosig = nosignalling_defect(sample, inputs, outputs, a, b)
            entry["worst_channel_residual"] = max(entry["worst_channel_residual"], negativity, deviation)
            entry["worst_nosignalling_residual"] = max(entry["worst_nosignalling_residual"], nosig)
            if not (negativity <= tol and deviation <= tol):
                entry["channel_failures"] += 1
    for entry, *_ in sampled:
        if entry["channel_failures"]:
            entry["error"] = "sampled contraction is not a channel"
        elif entry["worst_nosignalling_residual"] > tol:
            entry["error"] = "no-signalling residual above tolerance"
    failures = int(not (lambda_ok and basis_ok)) + sum("error" in entry for entry in entries)
    return VerifyReport(lambda_ok, basis_ok, basis_size, tuple(entries), failures)


_REFERENCE_TOKEN_RE = re.compile(r"\s*(->|[*~()]|[A-Z][A-Za-z0-9_]*|\S)")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokenizer as a match loop: one lexeme per match, sorted into its
    kind afterwards, with a second full match for a name."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            break
        lexeme = m.group(1)
        start = m.end(1) - len(lexeme)
        if lexeme in ("->", "*", "~", "(", ")"):
            tokens.append((lexeme, lexeme, start))
        elif lexeme == "I":
            tokens.append(("I", lexeme, start))
        elif re.fullmatch(r"[A-Z][A-Za-z0-9_]*", lexeme):
            tokens.append(("NAME", lexeme, start))
        else:
            raise TypeSyntaxError(f"unexpected character {lexeme!r}", text, start)
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


def reference_rows(x: TypeExpr) -> list[SignallingVerdict]:
    """The signalling matrix pair by pair: for each (input, output), climb
    from the input's leaf until the node's range holds the output's leaf."""
    tree = _flat_tree(x)
    rows = []
    for i, k_i in enumerate(tree.k):
        for j, k_j in enumerate(tree.k):
            if k_i != 1 or k_j != 0:
                continue
            node, target = tree.leaf_node[i], tree.leaf_node[j]
            while not tree.first[node] <= target <= node:
                node = tree.parent[node]
            inside = k_i ^ tree.turns[node]
            relation = Relation.FULL_SIGNALLING if inside == 1 else Relation.NO_SIGNALLING
            enclosing = tree.subterm(x, node)
            rows.append(SignallingVerdict(tree.labels[i], tree.labels[j], relation, enclosing))
    return rows


class _ReferenceParser:
    """Recursive descent over the grammar: ~ binds tightest, then *, then ->.

    ``*`` is left-associative, ``->`` right-associative.
    """

    def __init__(self, text: str, system_table: dict[str, int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.kind = self.tokens[0][0]  # of the current token, read at every step
        self.system_table = system_table

    def advance(self) -> None:
        """Step past the current token, which is never END."""
        self.index += 1
        self.kind = self.tokens[self.index][0]

    def fail(self, message: str) -> TypeSyntaxError:
        return TypeSyntaxError(message, self.text, self.tokens[self.index][2])

    def parse(self) -> TypeExpr:
        expr = self.parse_arrow()
        if self.kind != "END":
            raise self.fail(f"unexpected {self.tokens[self.index][1]!r}")
        return expr

    def parse_arrow(self) -> TypeExpr:
        left = self.parse_star()
        if self.kind == "->":
            self.advance()
            right = self.parse_arrow()
            return Arrow(left, right)
        return left

    def parse_star(self) -> TypeExpr:
        expr = self.parse_unary()
        while self.kind == "*":
            self.advance()
            expr = tensor(expr, self.parse_unary())
        return expr

    def parse_unary(self) -> TypeExpr:
        if self.kind == "~":
            self.advance()
            return bar(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> TypeExpr:
        kind, lexeme, pos = self.tokens[self.index]
        if kind == "(":
            self.advance()
            expr = self.parse_arrow()
            if self.kind != ")":
                raise self.fail("expected ')'")
            self.advance()
            return expr
        if kind == "I":
            self.advance()
            return TRIVIAL
        if kind == "NAME":
            self.advance()
            dim = self.system_table.get(lexeme, 2)
            try:
                return Elementary(Label(lexeme, dim))
            except ValueError as exc:
                raise TypeSyntaxError(str(exc), self.text, pos) from None
        raise self.fail(f"expected a type, found {lexeme or 'end of input'!r}")


def reference_parse(text: str, system_table: dict[str, int] | None = None) -> TypeExpr:
    """``parse_type`` by recursive descent, about five Python frames per
    bracket level."""
    table = dict(system_table or {})
    if table.get("I", 1) != 1:
        raise TypeSyntaxError("label 'I' is the trivial system and must have dimension 1", text, 0)
    return _ReferenceParser(text, table).parse()


def reference_critical_word(x: TypeExpr, pairs: Sequence[tuple[Label, Label]]) -> BitWord | None:
    """The critical-set pass from scratch: a full class pass over the tree
    of x with the pairs fixed, the name index and sorted order rebuilt,
    and the free inputs restored after every hit."""
    tree = _flat_tree(x)
    canonical = canonical_universe(tree.labels)
    patterns = (1 << len(pairs)) - 1
    index = {a.name: i for i, a in enumerate(tree.labels)}
    pair_index = [(index[a.name], index[b.name]) for a, b in pairs]
    paired = {i for pair in pair_index for i in pair}
    order = [index[a.name] for a in canonical]  # sorted-name rank -> label index
    free = [i for i in order if tree.k[i] and i not in paired]
    left, right, parent = tree.left, tree.right, tree.parent
    root = len(left) - 1

    values = [_E] * len(left)  # I is all-ones
    for i, node in enumerate(tree.leaf_node):
        values[node] = _D if i in paired else (_D | _E if tree.k[i] else _E)
    for j, l in enumerate(left):
        if l != -1:
            values[j] = _ARROW_CLASSES[values[l] << 3 | values[right[j]]]

    def set_leaf(i: int, classes: int) -> None:
        node = tree.leaf_node[i]
        values[node] = classes
        node = parent[node]
        while node != -1:
            reached = _ARROW_CLASSES[values[left[node]] << 3 | values[right[node]]]
            if reached == values[node]:
                return
            values[node] = reached
            node = parent[node]

    best = None
    pattern = 0
    for step in range(patterns + 1):
        if step:  # Gray-code order: one pair changes its bit per step
            flip = (step & -step).bit_length() - 1
            pattern ^= 1 << flip
            for i in pair_index[flip]:
                set_leaf(i, _E if pattern >> flip & 1 else _D)
        if pattern == patterns or not values[root] & _D:
            continue
        bits = [1] * len(tree.labels)
        for n, (a, b) in enumerate(pair_index):
            bits[a] = bits[b] = pattern >> n & 1
        for i in free:
            bits[i] = 0
        if best is not None and [bits[i] for i in order] >= best:
            continue
        for i in free:
            set_leaf(i, _D)
            if not values[root] & _D:
                set_leaf(i, _E)
                bits[i] = 1
        word = [bits[i] for i in order]
        best = word if best is None else min(best, word)
        for i in free:
            set_leaf(i, _D | _E)
    if best is None:
        return None
    return BitWord(canonical, sum(bit << r for r, bit in enumerate(best)))


def reference_check_equivalence(x: TypeExpr, y: TypeExpr) -> Verdict:
    """Inclusion both ways, each direction enumerated and aligned."""
    forward = check_inclusion(x, y)
    if not forward.admissible:
        return forward
    backward = check_inclusion(y, x)
    if not backward.admissible:
        return backward
    return forward
