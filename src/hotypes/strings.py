"""Exact calculus of labeled binary strings.

Words are bitmasks over a label universe kept in the type's textual label
order (bit i holds the value at the i-th label), so concatenation is a
shift.  Sorted-name order (``_name_order``) only shows words: rendering,
iteration and the smallest member.  Word sets are frozensets of masks, so
every operation here is exact and exhaustive.  Every word over a subterm
is in D_x, is the all-ones word, or is in the rest R_x, and one rule on
these three classes serves every use, each a pass over the arrays of the
type's flat tree, with no recursion: ``build_D`` makes each word of D_x
once, in lists over the nodes it reads with each label at its own bit,
none longer than D_x, so its cost follows |D_x|; ``word_count`` counts
D_x; ``_critical_word`` decides contraction from the classes, by one
pass per type and climbs from the paired leaves per query, and
``_extra_word`` inclusion on truth tables over the smallest cube of
words holding D_x, neither building a set.  ``critical_set_multi``
builds the obstruction set only to show it.  What enumerates counts its
words first against ``WORD_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .type_core import (
    Label,
    TypeExpr,
    _distinct_labels,
    _flat_tree,
    _memo,
    _name_order,
)

# Building D_x peaks at about 100 bytes a word (96 to 113 by ru_maxrss in
# fresh processes, CPython 3.11, x86-64), so 2^22 words take about 400 MiB.
WORD_BUDGET = 1 << 22


def _check_words(count: int) -> None:
    """Refuse ``count`` words, counted before any is built, over the budget;
    a count too long for Python to print is named by a power of two."""
    if count > WORD_BUDGET:
        try:
            shown = str(count)
        except ValueError:
            shown = f"more than 2^{(count - 1).bit_length() - 1}"
        raise ValueError(f"word sets need {shown} words, over the budget of {WORD_BUDGET}")


def canonical_universe(labels: Iterable[Label]) -> tuple[Label, ...]:
    """Sort labels by name and reject duplicates (``DuplicateLabelError``)."""
    labels = tuple(labels)
    return tuple([labels[i] for i in _name_order(labels)])


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
        """Bits in sorted-name order, e.g. ``1_A0_B``; the null string is ``ε``."""
        return "".join(f"{self.bits >> i & 1}_{self.universe[i].name}" for i in _name_order(self.universe)) or "ε"

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
        order = _name_order(self.universe)
        return (BitWord(self.universe, m) for m in sorted(self.masks, key=lambda m: [m >> i & 1 for i in order]))

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

    def render(self) -> list[str]:
        return [w.render() for w in self]


# --- concatenation -----------------------------------------------------------

def concat(j1: WordSet, j2: WordSet) -> WordSet:
    """All pairwise joins of words over the disjoint union of universes,
    the labels of j1 first.

    The null-string set {ε} is the identity and the empty set annihilates.
    """
    universe = _distinct_labels([*j1.universe, *j2.universe])
    shift = len(j1.universe)
    masks = frozenset(m1 | m2 << shift for m1 in j1.masks for m2 in j2.masks)
    return WordSet(universe, masks)


# --- the word-set builder -----------------------------------------------------
#
# Every word over a subterm x is in D_x, is the all-ones word e_x, or is in
# the rest R_x.  By the classes of its halves (``_arrow_class``),
#     D_{x->y} = W_x D_y ⊔ R_x R_y ⊔ R_x {e_y},
#     R_{x->y} = D_x R_y ⊔ D_x {e_y} ⊔ {e_x} R_y,
# unions of disjoint products of words at disjoint bits, so a bar x->I
# swaps the two sets, the tensor rule follows, and no word is made twice.

_D, _E, _R = 1, 2, 4  # the three classes, as bits of a set of classes


@lru_cache(maxsize=1024)
def build_D(x: TypeExpr) -> WordSet:
    """The word set spanning the traceless part of deterministic maps of x.

    Two passes over the flat tree of x.  From the root, mark the sets each
    node's parent reads: D_{x->y} reads R_x, D_y, and R_y only when the
    class counts give |R_x| > 0; R_{x->y} reads D_x and R_y.  From the
    leaves, build only the marked sets, as lists of masks with each label
    at its textual bit: a label gives D = [0] and R = [], a subterm without
    labels two empty lists, and a bar swaps the lists of its side.  No word
    is made twice, no list is longer than D_x, and each is dropped once its
    parent is built, so the cost follows |D_x|, unbounded here: callers
    check ``word_count`` against the budget first (``_check_words``).  A
    repeated label raises ``DuplicateLabelError``.  Cached per type only.
    """
    tree = _flat_tree(x)
    left, right = tree.left, tree.right
    counts = tree.fold(lambda _: (1, 1, 2), (0, 1, 1), _count_arrow)
    width = [w.bit_length() - 1 for _, _, w in counts]  # labels per node
    has_rest = [w > d + e for d, e, w in counts]
    reads = [0] * (len(left) - 1) + [_D]  # _D and _R, the sets read at each node
    low = [0] * len(left)  # each node's first bit: the labels left of it
    for j in range(len(left) - 1, -1, -1):
        l, r, read = left[j], right[j], reads[j]
        if l != -1:
            reads[l] |= (read & _D) << 2 | (read & _R) >> 2  # D reads R_x, R reads D_x
            reads[r] |= read | (_R if read & _D and has_rest[l] else 0)
            low[l], low[r] = low[j], low[j] + width[l]
    sets: list = [None] * len(left)  # (D, R) at each node, None where not read
    for j, (l, r, read) in enumerate(zip(left, right, reads)):
        if not read:
            continue
        if l == -1:
            sets[j] = ([0] if width[j] else []), []
        elif not width[r]:
            sets[j] = sets[l][::-1]
        elif not width[l]:
            sets[j] = sets[r]  # I->y is y
        else:
            (d_x, rest_x), (d_y, rest_y) = sets[l], sets[r]
            sets[l] = sets[r] = None
            step, w = 1 << low[l], width[l]
            e_x, e_y = (step << w) - step, (1 << (low[r] + width[r])) - (1 << low[r])
            d = rest = None
            if read & _D:
                d = list()
                if w > 3:  # from 16 words of W_x on, a range per word of D_y is cheaper
                    for v in d_y:
                        d.extend(range(v, v + (step << w), step))
                else:
                    _product(d, range(0, step << w, step), d_y)
                if rest_x:  # else R_y is not read
                    _product(d, rest_x, rest_y)
                    _product(d, rest_x, (e_y,))
            if read & _R:
                rest = list()
                _product(rest, d_x, rest_y)
                _product(rest, d_x, (e_y,))
                _product(rest, (e_x,), rest_y)
            sets[j] = d, rest
    return WordSet(tree.labels, frozenset(sets[-1][0]))


def _product(masks: list[int], us: Sequence[int], vs: Sequence[int]) -> None:
    """Append u | v for every u in us and v in vs, the two at disjoint
    bits, to masks, the shorter side outermost."""
    if len(us) > len(vs):
        us, vs = vs, us
    for u in us:
        masks += [u | v for v in vs] if u else vs


def _count_arrow(left, right):
    d_x, e_x, w_x = left
    d_y, e_y, w_y = right
    r_x = w_x - d_x - e_x  # words of x neither in D_x nor all-ones
    return w_x * d_y + r_x * (w_y - d_y), e_x * e_y, w_x * w_y


def _class_count(x: TypeExpr, leaf) -> int:
    """The D count of the three-class fold, ``leaf(label)`` giving a
    label's (D, E, W) counts; a repeated label raises."""
    return _flat_tree(x).fold(leaf, (0, 1, 1), _count_arrow)[-1][0]


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


def _base_classes(x: TypeExpr) -> list[int]:
    """The classes each node of x reaches with every input free and every
    output at 1, indexed by node; the state every critical-set pass starts
    from before it fixes its pairs."""
    tree = _flat_tree(x)
    base = [_D | _E if k else _E for k in tree.k]  # by textual position; I is all-ones
    return tree.fold(lambda a: base[tree.index[a.name]], _E, lambda u, v: _ARROW_CLASSES[u << 3 | v])


def _critical_word(x: TypeExpr, pairs: Sequence[tuple[Label, Label]]) -> BitWord | None:
    """The smallest word of D_x in the critical set of the (input, output)
    pairs, or None when D_x misses it.

    Equal to the ``min_word`` of ``build_D(x) ∩ critical_set_multi(x,
    pairs)`` without building either set.  Each pair-bit pattern other
    than all ones fixes a cube: both labels of a pair at its bit, the other
    outputs at 1, the other inputs free.  The classes reachable at each
    node under no pair fixed are computed once per type (``_base_classes``,
    kept with x); a call copies them and climbs from each paired leaf to
    the root, stopping where a node's classes do not change, so a pattern
    changes O(depth) nodes per pair.  A cube meets D_x when D is reachable
    at the root.  Its smallest hit fixes the free inputs in sorted-name
    order, 0 first while D stays reachable, climbing from each changed
    leaf.  The witness is the smallest hit over all patterns.
    """
    tree, order = _flat_tree(x), _memo(x, "_name_order", lambda x: _name_order(_flat_tree(x).labels))
    values = _memo(x, "_base_classes", _base_classes)[:]
    patterns = (1 << len(pairs)) - 1
    if patterns > PATTERN_BUDGET:
        raise ValueError(
            f"{len(pairs)} contraction pairs need {patterns} critical-set patterns; "
            f"the budget is {PATTERN_BUDGET}"
        )
    pair_index = [(tree.index[a.name], tree.index[b.name]) for a, b in pairs]
    left, right, parent, leaf_node = tree.left, tree.right, tree.parent, tree.leaf_node
    root = len(left) - 1

    def set_leaf(i: int, classes: int) -> None:
        node = leaf_node[i]
        values[node] = classes
        node = parent[node]
        while node != -1:
            reached = _ARROW_CLASSES[values[left[node]] << 3 | values[right[node]]]
            if reached == values[node]:
                return
            values[node] = reached
            node = parent[node]

    # Gray-code order, one pair changing its bit per step, started so that
    # all ones on the pairs, which the critical set leaves out, comes last
    pattern = patterns >> 1
    for n, pair in enumerate(pair_index):
        for i in pair:
            set_leaf(i, _E if pattern >> n & 1 else _D)
    free = None  # the unpaired inputs in sorted-name order, once a cube hits
    best = None
    for step in range(patterns):
        if step:
            flip = (step & -step).bit_length() - 1
            pattern ^= 1 << flip
            for i in pair_index[flip]:
                set_leaf(i, _E if pattern >> flip & 1 else _D)
        if not values[root] & _D:
            continue
        if free is None:
            paired = {i for pair in pair_index for i in pair}
            free = [i for i in order if tree.k[i] and i not in paired]
        bits = [1] * len(tree.labels)
        for n, (a, b) in enumerate(pair_index):
            bits[a] = bits[b] = pattern >> n & 1
        for i in free:
            bits[i] = 0
        if best is not None and [bits[i] for i in order] >= best:
            continue  # not even its free inputs all 0 would beat the best hit
        cube = values[:] if step < patterns - 1 else None  # restored for the next pattern
        for i in free:
            set_leaf(i, _D)
            if not values[root] & _D:
                set_leaf(i, _E)
                bits[i] = 1
        word = [bits[i] for i in order]
        best = word if best is None else min(best, word)
        if cube is not None:
            values[:] = cube
    if best is None:
        return None
    universe = _memo(x, "_sorted_labels", lambda x: canonical_universe(_flat_tree(x).labels))
    return BitWord(universe, sum(bit << r for r, bit in enumerate(best)))


# --- inclusion on truth tables ---------------------------------------------------
#
# The same rule decides D_x ⊆ D_y on truth tables (after Bryant, 1986): over
# a cube of 2^F words, a class of a node is an integer of 2^F bits.

TABLE_BITS = 1 << 26  # bits per table, 8 MiB


def _arrow_tables(x: tuple | None, y: tuple | None, full: int) -> tuple | None:
    """The (D, E, R) tables of x->y by ``_arrow_class``, None being I."""
    if x is None or y is None:  # I->y is y, and x->I swaps D and R
        return y if x is None else x[::-1]
    d, e = y[0] | x[2], x[1] & y[1]
    return d, e, full ^ (d | e)


def _d_table(x: TypeExpr, column, full: int) -> int:
    """The table of D_x, given each label's ``column(name)``: the words
    where it is 1.  Arrows are built larger side first, so at most
    log2(nodes) wait for a sibling, and a column is made when its parent
    reads it."""
    tree = _flat_tree(x)
    left, right, first = tree.left, tree.right, tree.first
    name_at = {node: a.name for a, node in zip(tree.labels, tree.leaf_node)}
    held: dict[int, tuple | None] = {}

    def tables(j: int) -> tuple | None:
        if left[j] != -1:
            return held.pop(j)
        if j not in name_at:
            return None  # I
        a = column(name_at[j])
        return full ^ a, a, 0

    todo, arrows = [len(left) - 1], []  # top-down, smaller side first
    while todo:
        j = todo.pop()
        l, r = left[j], right[j]
        if l != -1:
            arrows.append(j)
            todo += (l, r) if l - first[l] > r - first[r] else (r, l)
    for j in reversed(arrows):
        held[j] = _arrow_tables(tables(left[j]), tables(right[j]), full)
    return tables(len(left) - 1)[0]


def _extra_word(x: TypeExpr, y: TypeExpr) -> BitWord | None:
    """The smallest word of D_x outside D_y in sorted-name order, or None;
    y has the labels of x.  Tables over ``TABLE_BITS`` raise ``ValueError``
    before any is made.

    The tables span the smallest cube holding D_x: from the classes each
    node reaches with every label free, those each node may take for the
    root to be in D, exactly as every label occurs once; a label that may
    be in D and in E is free.  A word of the cube is indexed by the free
    labels in sorted-name order, the first most significant."""
    tree = _flat_tree(x)
    left, right = tree.left, tree.right
    reach = tree.fold(lambda _: _D | _E, _E, lambda u, v: _ARROW_CLASSES[u << 3 | v])
    if not reach[-1] & _D:
        return None  # D_x is empty
    allowed = [_D] * len(left)  # the root's; each other node's comes from its parent
    for j in range(len(left) - 1, -1, -1):
        l, r, a = left[j], right[j], allowed[j]
        if l != -1:
            allowed[l] = sum(u for u in (_D, _E, _R) if _ARROW_CLASSES[u << 3 | reach[r]] & a)
            allowed[r] = sum(v for v in (_D, _E, _R) if _ARROW_CLASSES[reach[l] << 3 | v] & a)
    # a label allowing D only is fixed at 0, E only at 1, both free (None)
    fixed = [(None, 0, 1, None)[allowed[node] & (_D | _E)] for node in tree.leaf_node]
    order = _memo(x, "_name_order", lambda x: _name_order(_flat_tree(x).labels))
    free = [i for i in order if fixed[i] is None]
    size = 1 << len(free)
    if size > TABLE_BITS:
        budget = TABLE_BITS.bit_length() - 1
        raise ValueError(f"inclusion needs tables of 2^{len(free)} bits, over the budget of 2^{budget}")
    full = (1 << size) - 1
    shift = {i: len(free) - 1 - rank for rank, i in enumerate(free)}

    def column(name: str) -> int:
        i = tree.index[name]
        if fixed[i] is not None:
            return full * fixed[i]
        run = 1 << shift[i]  # runs of 2^shift zeros and ones, doubled up to the size
        table, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            table |= table << width
            width *= 2
        return table

    extra = _d_table(x, column, full) & (full ^ _d_table(y, column, full))
    if not extra:
        return None
    n = (extra & -extra).bit_length() - 1
    bits = [fixed[i] if fixed[i] is not None else n >> shift[i] & 1 for i in order]
    universe = _memo(x, "_sorted_labels", lambda x: canonical_universe(_flat_tree(x).labels))
    return BitWord(universe, sum(bit << r for r, bit in enumerate(bits)))


# --- critical sets -----------------------------------------------------------

def critical_set_multi(
    x: TypeExpr, pairs: Sequence[tuple[Label | str, Label | str]]
) -> WordSet:
    """Obstruction set for a set of disjoint (input, output) contractions.

    Members carry equal bits on the two labels of each pair (not all pairs
    one), ones on the untouched outputs, anything on the untouched inputs:
    (2^k - 1) 2^f words for k pairs and f free inputs, within the budget.
    """
    tree = _flat_tree(x)
    universe = tree.labels
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
    _check_words(((1 << len(resolved)) - 1) << len(free_inputs))
    words = [sum(1 << p for p, k in enumerate(tree.k) if not k and p not in used)]
    for i, j in resolved:
        words += [w | 1 << i | 1 << j for w in words]
    words.pop()  # every pair at 1, last to be made, never meets D_x
    for p in free_inputs:
        words += [w | 1 << p for w in words]
    return WordSet(universe, frozenset(words))
