"""Shared test helpers: seeded random type generation and four test
oracles, the arrow-only word-set recursion, a dense product-basis builder,
the per-word basis dimension and the enumerated critical-set
intersection."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import hypothesis
import numpy as np
from hypothesis import strategies as st

from hotypes import (
    Arrow,
    Label,
    TRIVIAL,
    TypeExpr,
    BitWord,
    Elementary,
    Trivial,
    WordSet,
    bar,
    build_D,
    complement_bar,
    complement_perp,
    concat,
    critical_set_multi,
    full_set,
    herm_basis,
    io_partition,
    tensor,
)
from hotypes.strings import canonical_universe

hypothesis.settings.register_profile(
    "hotypes", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("hotypes")

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


def reference_D(x: TypeExpr) -> WordSet:
    """D_x by the arrow rule alone, D_{x->y} = W_x D_y ∪ bar(D_x) perp(D_y),
    on the desugared form of every tensor and without a cache."""
    if isinstance(x, Trivial):
        return WordSet((), frozenset())
    if isinstance(x, Elementary):
        return WordSet((x.label,), frozenset({0}))
    left, right = reference_D(x.left), reference_D(x.right)
    return concat(full_set(left.universe), right).union(
        concat(complement_bar(left), complement_perp(right))
    )


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
    hits = build_D(x).intersection(critical_set_multi(x, pairs))
    return hits.min_word() if hits.masks else None
