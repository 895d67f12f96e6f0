"""Exact calculus of labeled binary strings.

Words are bitmasks over a label universe kept in the type's textual label
order (bit i holds the value at the i-th label), so concatenation is a
shift.  Sorted-name order is used only to show words: rendering, iteration
and the smallest member.  Word sets are plain frozensets of masks, so
every operation here is exact and exhaustive; universes are capped at 63
labels to keep single-machine-word encoding.  Every word over a subterm
is in D_x, is the all-ones word, or is in the rest R_x, and one rule on
these three classes serves every use: ``build_D`` builds D_x from the
D and R sets of the sides, never a set larger than D_x, so its cost
follows |D_x|; ``word_count`` counts D_x and ``_critical_word`` decides
contraction by one pass over the classes, without building a set.
``critical_set_multi`` builds the obstruction set only to show it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .type_core import (
    Arrow,
    Elementary,
    Label,
    Trivial,
    TypeExpr,
    _FlatTree,
    _distinct_labels,
    _flat_tree,
)

MAX_UNIVERSE = 63


class UniverseTooLargeError(ValueError):
    pass


def _universe(labels: Iterable[Label]) -> tuple[Label, ...]:
    """The labels in the given order; a repeated label
    (``DuplicateLabelError``) and an oversized universe are rejected."""
    ordered = _distinct_labels(list(labels))
    if len(ordered) > MAX_UNIVERSE:
        raise UniverseTooLargeError(f"universe has {len(ordered)} labels; the cap is {MAX_UNIVERSE}")
    return ordered


def canonical_universe(labels: Iterable[Label]) -> tuple[Label, ...]:
    """Sort labels by name and reject duplicates and oversized universes."""
    return _universe(sorted(labels, key=lambda a: a.name))


@dataclass(frozen=True)
class BitWord:
    """One bit per label of the universe; the empty-universe word is the
    null string, distinct from the absence of any word."""

    universe: tuple[Label, ...]
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << len(self.universe)):
            raise ValueError(f"bits {self.bits} out of range for {len(self.universe)} labels")

    def bit(self, label: Label | str) -> int:
        name = label.name if isinstance(label, Label) else label
        for i, a in enumerate(self.universe):
            if a.name == name:
                return (self.bits >> i) & 1
        raise ValueError(f"label {name!r} not in universe")

    def render(self) -> str:
        """Bits in sorted-name order, e.g. ``1_A0_B``."""
        if not self.universe:
            return "ε"
        return "".join(f"{self.bit(a)}_{a.name}" for a in canonical_universe(self.universe))

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class WordSet:
    """A finite set of words over one universe."""

    universe: tuple[Label, ...]
    masks: frozenset[int] = field(default_factory=frozenset)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[BitWord]:
        """Members in sorted-name lexicographic order (0 < 1)."""
        order = sorted(self.masks, key=self._lex_key())
        return iter(BitWord(self.universe, m) for m in order)

    def _lex_key(self):
        """Sort key of masks for sorted-name lexicographic order."""
        order = [self.universe.index(a) for a in canonical_universe(self.universe)]
        return lambda mask: [(mask >> i) & 1 for i in order]

    def _aligned(self, universe: tuple[Label, ...], masks: Iterable[int]) -> frozenset[int]:
        """Masks over ``universe``, this set's labels in any order, moved
        into this set's bit layout."""
        if universe == self.universe:
            return frozenset(masks)
        if len(universe) != len(self.universe) or set(universe) != set(self.universe):
            raise ValueError("word sets live over different universes")
        position = {a: i for i, a in enumerate(self.universe)}
        # one table per source byte: its 256 values mapped to target bits
        tables = []
        for start in range(0, len(universe), 8):
            table = [0]
            for a in universe[start:start + 8]:
                table += [t | 1 << position[a] for t in table]
            tables.append((start, table))
        masks = list(masks)
        moved = [0] * len(masks)
        for start, table in tables:
            moved = [out | table[m >> start & 255] for out, m in zip(moved, masks)]
        return frozenset(moved)

    def __contains__(self, word: BitWord) -> bool:
        same_labels = set(word.universe) == set(self.universe)
        return same_labels and self._aligned(word.universe, [word.bits]) <= self.masks

    def difference(self, other: "WordSet") -> "WordSet":
        return WordSet(self.universe, self.masks - self._aligned(other.universe, other.masks))

    def min_word(self) -> BitWord:
        """Lexicographically smallest member (sorted-name order, 0 < 1),
        as a word over the canonical universe."""
        if not self.masks:
            raise ValueError("empty word set has no smallest word")
        canonical = canonical_universe(self.universe)
        (bits,) = WordSet(canonical)._aligned(self.universe, [min(self.masks, key=self._lex_key())])
        return BitWord(canonical, bits)

    def render(self) -> list[str]:
        return [w.render() for w in self]


# --- concatenation -----------------------------------------------------------

def concat(j1: WordSet, j2: WordSet) -> WordSet:
    """All pairwise joins of words over the disjoint union of universes,
    the labels of j1 first.

    The null-string set {ε} is the identity and the empty set annihilates.
    """
    universe = _universe(j1.universe + j2.universe)
    shift = len(j1.universe)
    masks = frozenset(m1 | m2 << shift for m1 in j1.masks for m2 in j2.masks)
    return WordSet(universe, masks)


# --- the recursive word-set builder ------------------------------------------
#
# Every word over a subterm x is in D_x, is the all-ones word e_x, or is in
# the rest R_x.  By the classes of its halves (``_arrow_class``),
#     D_{x->y} = W_x D_y ∪ R_x (R_y ∪ {e_y}),
#     R_{x->y} = (D_x ∪ {e_x}) (R_y ∪ {e_y}) \ {e_x e_y},
# so a bar x->I swaps the two sets, and the tensor rule follows.

@lru_cache(maxsize=1024)
def build_D(x: TypeExpr) -> WordSet:
    """The word set spanning the traceless part of deterministic maps of x.

    A label gives {0} and I the empty set; arrows follow the three-class
    rule above.  W_x is enumerated only when D_y is non-empty and R_y only
    when R_x is, so no set larger than D_x is made and the cost follows
    |D_x|.  The labels of the two sides must differ
    (``DuplicateLabelError``).  Memoized per subterm.
    """
    if isinstance(x, Trivial):
        return WordSet((), frozenset())
    if isinstance(x, Elementary):
        return WordSet((x.label,), frozenset({0}))
    assert isinstance(x, Arrow)
    if isinstance(x.right, Trivial):
        return _rest(x.left)
    rest_x, d_y = _rest(x.left), build_D(x.right)
    universe, shift = _universe(rest_x.universe + d_y.universe), len(rest_x.universe)
    e_y = (1 << len(d_y.universe)) - 1
    w_x = range(1 << shift) if d_y.masks else ()
    tail = _rest(x.right).masks | {e_y} if rest_x.masks else ()
    masks = {u | v << shift for u in w_x for v in d_y.masks}
    masks.update(u | v << shift for u in rest_x.masks for v in tail)
    return WordSet(universe, frozenset(masks))


def _rest(x: TypeExpr) -> WordSet:
    """R_x, the words of x in neither D_x nor the all-ones word; not cached."""
    if isinstance(x, Trivial):
        return WordSet((), frozenset())
    if isinstance(x, Elementary):
        return WordSet((x.label,), frozenset())
    assert isinstance(x, Arrow)
    if isinstance(x.right, Trivial):
        return build_D(x.left)
    d_x, rest_y = build_D(x.left), _rest(x.right)
    universe, shift = _universe(d_x.universe + rest_y.universe), len(d_x.universe)
    e_x, e_y = (1 << shift) - 1, (1 << len(rest_y.universe)) - 1
    masks = {u | v << shift for u in d_x.masks | {e_x} for v in rest_y.masks | {e_y}}
    masks.discard(e_x | e_y << shift)
    return WordSet(universe, frozenset(masks))


def _count_arrow(left, right):
    d_x, e_x, w_x = left
    d_y, e_y, w_y = right
    r_x = w_x - d_x - e_x  # words of x neither in D_x nor all-ones
    return w_x * d_y + r_x * (w_y - d_y), e_x * e_y, w_x * w_y


def _class_count(x: TypeExpr, leaf) -> int:
    """The D count of the three-class fold, ``leaf(label)`` giving a
    label's (D, E, W) counts; a repeated label raises."""
    return _flat_tree(x).fold(leaf, (0, 1, 1), _count_arrow)[0]


def word_count(x: TypeExpr) -> int:
    """|D_x| without enumerating it, by counting the three classes of
    ``build_D``'s rule per subterm.  A label has counts (|D|, |E|, |W|) =
    (1, 1, 2) and I has (0, 1, 1).
    """
    return _class_count(x, lambda _: (1, 1, 2))


# --- the critical-set pass -----------------------------------------------------
#
# The same three classes decide contraction without building D_x.  A set of
# classes is a 3-bit mask; under a cube of words (each label fixed to 0, to
# 1, or free) a subterm reaches the classes its sides' combinations reach,
# because every label occurs once and so the sides vary independently.

_D, _E, _R = 1, 2, 4


def _arrow_class(u: int, v: int) -> int:
    """Class of the word (u, v) over x->y from the classes of its halves."""
    if v == _D or u == _R:
        return _D
    return _E if u == _E and v == _E else _R


# reachable classes of x->y, indexed by (classes of x) << 3 | (classes of y)
_ARROW_CLASSES = [
    sum({_arrow_class(u, v) for u in (_D, _E, _R) if u & sx for v in (_D, _E, _R) if v & sy})
    for sx in range(8)
    for sy in range(8)
]

# k contraction pairs cost 2^k - 1 cube passes.  At 62 labels a pattern
# takes about 0.003 ms when it misses D_x and about 0.2 ms when it hits and
# fixes its own witness, so 12 pairs stay under a second at worst.
PATTERN_BUDGET = (1 << 12) - 1


def _critical_word(tree: _FlatTree, pairs: Sequence[tuple[Label, Label]]) -> BitWord | None:
    """The smallest word of D_x in the critical set of the (input, output)
    pairs, or None when D_x misses it; x is given as its flat tree.

    Equal to the ``min_word`` of ``build_D(x) ∩ critical_set_multi(x,
    pairs)`` without building either set.  Each pair-bit pattern other
    than all ones fixes a cube: both labels of a pair at its bit, the other
    outputs at 1, the other inputs free.  One bottom-up pass gives the
    classes reachable at the root; a cube meets D_x when D is among them.
    Its smallest hit fixes the free inputs in sorted-name order, 0 first
    while D stays reachable, re-evaluating only the changed leaf's path to
    the root.  The witness is the smallest hit over all patterns.
    """
    canonical = canonical_universe(tree.labels)  # the 63-label cap
    patterns = (1 << len(pairs)) - 1
    if patterns > PATTERN_BUDGET:
        raise ValueError(
            f"{len(pairs)} contraction pairs need {patterns} critical-set patterns; "
            f"the budget is {PATTERN_BUDGET}"
        )
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
            continue  # the critical set leaves out all ones on the pairs
        bits = [1] * len(tree.labels)
        for n, (a, b) in enumerate(pair_index):
            bits[a] = bits[b] = pattern >> n & 1
        for i in free:
            bits[i] = 0
        if best is not None and [bits[i] for i in order] >= best:
            continue  # not even its free inputs all 0 would beat the best hit
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


# --- critical sets -----------------------------------------------------------

def critical_set_multi(
    x: TypeExpr, pairs: Sequence[tuple[Label | str, Label | str]]
) -> WordSet:
    """Obstruction set for a set of disjoint (input, output) contractions.

    Members carry equal bits on the two labels of each pair (not all pairs
    one), ones on the untouched outputs, anything on the untouched inputs.
    """
    tree = _flat_tree(x)
    universe = _universe(tree.labels)
    resolved: list[tuple[int, int]] = []  # textual positions, i.e. bits
    used: set[int] = set()
    for a, b in pairs:
        i, j = tree.position(a), tree.position(b)
        if not tree.k[i]:
            raise ValueError(f"{universe[i].name} is not an input system")
        if tree.k[j]:
            raise ValueError(f"{universe[j].name} is not an output system")
        if i in used or j in used:
            raise ValueError("contraction pairs overlap")
        used.update((i, j))
        resolved.append((i, j))
    if not resolved:
        raise ValueError("at least one contraction pair is required")

    free_inputs = [p for p, k in enumerate(tree.k) if k and p not in used]
    base = sum(1 << p for p, k in enumerate(tree.k) if not k and p not in used)
    masks = set()
    for pair_bits in product((0, 1), repeat=len(resolved)):
        if all(pair_bits):
            continue  # all-ones on the contracted block never meets D_x
        pattern = base
        for (i, j), bit in zip(resolved, pair_bits):
            if bit:
                pattern |= (1 << i) | (1 << j)
        for free_bits in product((0, 1), repeat=len(free_inputs)):
            mask = pattern
            for p, bit in zip(free_inputs, free_bits):
                if bit:
                    mask |= 1 << p
            masks.add(mask)
    return WordSet(universe, frozenset(masks))
