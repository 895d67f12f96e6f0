"""Type expressions for higher-order maps: grammar, parsing, and structural analysis.

A type is either an elementary system label, the trivial one-dimensional
type ``I``, or an arrow ``(x -> y)``.  Bar and tensor are surface sugar:
``~x`` stores as ``x -> I`` and ``x * y`` as ``~(x -> ~y)``, so the core
representation is arrows all the way down.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

TRIVIAL_NAME = "I"


class TypeSyntaxError(ValueError):
    """Raised on malformed type text; carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.text = text
        self.position = position

    def caret_diagram(self) -> str:
        return f"{self.text}\n{' ' * self.position}^"


class DuplicateLabelError(ValueError):
    """A non-trivial label occurs more than once; relabel_unique was skipped."""


@dataclass(frozen=True, order=True)
class Label:
    """An elementary system: a name and its Hilbert-space dimension."""

    name: str
    dimension: int = 2

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension of {self.name!r} must be >= 1, got {self.dimension}")
        if self.name == TRIVIAL_NAME and self.dimension != 1:
            raise ValueError(f"label {TRIVIAL_NAME!r} is reserved for the trivial type")
        if self.name != TRIVIAL_NAME and self.dimension == 1:
            raise ValueError(
                f"label {self.name!r} cannot have dimension 1; use {TRIVIAL_NAME} for the trivial type"
            )

    def __str__(self) -> str:
        return self.name


class TypeExpr:
    """Base class for type expressions.  All variants are immutable."""

    def __str__(self) -> str:
        return render_type(self)

    def walk(self) -> Iterator["TypeExpr"]:
        """Yield this expression and all subterms, left to right (preorder,
        without recursion)."""
        todo: list[TypeExpr] = [self]
        while todo:
            node = todo.pop()
            yield node
            if isinstance(node, Arrow):
                todo += [node.right, node.left]


@dataclass(frozen=True)
class Elementary(TypeExpr):
    label: Label


@dataclass(frozen=True)
class Trivial(TypeExpr):
    pass


@dataclass(frozen=True)
class Arrow(TypeExpr):
    left: TypeExpr
    right: TypeExpr


TRIVIAL = Trivial()


def bar(x: TypeExpr) -> TypeExpr:
    """The dual type: ~x stores as x -> I."""
    return Arrow(x, TRIVIAL)


def tensor(x: TypeExpr, y: TypeExpr) -> TypeExpr:
    """The tensor type: x * y stores as ~(x -> ~y)."""
    return bar(Arrow(x, bar(y)))


def as_bar(x: TypeExpr) -> TypeExpr | None:
    """Return y when x is structurally y -> I, else None."""
    if isinstance(x, Arrow) and isinstance(x.right, Trivial):
        return x.left
    return None


def as_tensor(x: TypeExpr) -> tuple[TypeExpr, TypeExpr] | None:
    """Return (a, b) when x is structurally ~(a -> ~b), else None."""
    inner = as_bar(x)
    if inner is not None and isinstance(inner, Arrow):
        b = as_bar(inner.right)
        if b is not None:
            return inner.left, b
    return None


# --- parsing ---------------------------------------------------------------

# one group per token class; ``I`` followed by a name character is a name
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<symbol>->|[*~()])|(?P<I>I)(?![A-Za-z0-9_])|(?P<NAME>[A-Z][A-Za-z0-9_]*)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, lexeme, position) per token, ending with an END token; the
    kind of a symbol is the symbol itself.  Trailing whitespace is
    skipped, and the first character that starts no token raises."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group(kind)
        if kind == "bad":
            raise TypeSyntaxError(f"unexpected character {lexeme!r}", text, m.start(kind))
        tokens.append((lexeme if kind == "symbol" else kind, lexeme, m.start(kind)))
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar: ~ binds tightest, then *, then ->.

    ``*`` is left-associative, ``->`` right-associative.
    """

    def __init__(self, text: str, system_table: Mapping[str, int]):
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


def parse_type(text: str, system_table: Mapping[str, int] | None = None) -> TypeExpr:
    """Parse type text into core form, desugaring ~ and *.

    Labels absent from ``system_table`` default to dimension 2.  ``I`` is
    the trivial type and cannot carry a non-unit dimension.
    """
    table = dict(system_table or {})
    if table.get(TRIVIAL_NAME, 1) != 1:
        raise TypeSyntaxError(
            f"label {TRIVIAL_NAME!r} is the trivial system and must have dimension 1",
            text,
            0,
        )
    return _Parser(text, table).parse()


# --- rendering -------------------------------------------------------------

def render_type(x: TypeExpr, sugar: bool = False) -> str:
    """Canonical text for x.  With ``sugar`` on, bar/tensor patterns print
    as ``~``/``*`` instead of their arrow encodings.  Renders from an
    explicit stack of pending text and subterms, so deep types raise no
    ``RecursionError``.
    """
    out: list[str] = []
    todo: list = [x]  # pieces are pushed in reverse so they pop left to right
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Elementary):
            out.append(node.label.name)
        elif isinstance(node, Trivial):
            out.append(TRIVIAL_NAME)
        elif sugar and (pair := as_tensor(node)) is not None:
            left, right = pair
            todo += [")", right, "*(", left] if as_tensor(right) is not None else [right, "*", left]
        elif sugar and (operand := as_bar(node)) is not None:
            todo += [")", operand, "~("] if as_tensor(operand) is not None else [operand, "~"]
        else:
            todo += [")", node.right, "->", node.left, "("]
    return "".join(out)


# --- relabeling and label structure -----------------------------------------

def _distinct_labels(labels: list[Label]) -> tuple[Label, ...]:
    seen: set[str] = set()
    for label in labels:
        if label.name in seen:
            raise DuplicateLabelError(
                f"label {label.name!r} occurs more than once; apply relabel_unique first"
            )
        seen.add(label.name)
    return tuple(labels)


class _FlatTree(NamedTuple):
    """A type as post-order arrays, children before parents, so the root
    is the last node and the nodes of a subterm are numbered contiguously
    from ``first[j]`` to its top node j.  Node j holds the subterm
    ``subterm(x, j)``; it is an arrow when ``left[j]`` is not -1, with sides
    ``left[j]`` and ``right[j]``, and otherwise a leaf.  ``parent`` is -1
    at the root, and ``turns[j]`` is the parity of the left turns on the
    path from the root down to node j.  Label i (textual order) sits at
    node ``leaf_node[i]`` and has K parity ``k[i]``; leaves of ``I``
    belong to no label."""

    labels: tuple[Label, ...]
    k: tuple[int, ...]
    leaf_node: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    parent: tuple[int, ...]
    first: tuple[int, ...]
    turns: tuple[int, ...]
    term: tuple[TypeExpr | None, ...]  # None at the root, see ``subterm``

    def inputs(self) -> tuple[Label, ...]:
        return tuple(a for a, k in zip(self.labels, self.k) if k == 1)

    def outputs(self) -> tuple[Label, ...]:
        return tuple(a for a, k in zip(self.labels, self.k) if k == 0)

    def position(self, label: Label | str) -> int:
        """Textual position of the label, found by name."""
        name = label.name if isinstance(label, Label) else label
        for i, a in enumerate(self.labels):
            if a.name == name:
                return i
        raise ValueError(f"label {name!r} does not occur in the type")

    def subterm(self, x: TypeExpr, j: int) -> TypeExpr:
        """The subterm at node j of x, the type this tree was walked from.
        The root's entry of ``term`` is None rather than x, so that a type
        and the tree kept in its ``__dict__`` form no reference cycle."""
        return x if j == len(self.term) - 1 else self.term[j]

    def enclosing(self, sources: Sequence[int], targets: Sequence[int]) -> list[tuple[int, int]]:
        """For each pair (i, j) of ``sources`` × ``targets`` (textual
        positions, targets ascending), row by row: the node of the
        smallest subterm holding labels i and j, and K of label i inside
        that subterm.

        One climb per source: the node ranges on the way up from leaf i
        only grow, and the leaves they cover form one run of textual
        positions, so each target is reached by extending the run at
        either end when a node first covers its leaf.  The left turns
        below a node are those on the root path of i minus those above the
        node.  A source costs O(depth + targets) steps."""
        first, parent, turns = self.first, self.parent, self.turns
        leaves = [self.leaf_node[j] for j in targets]
        width = len(leaves)
        found: list = [None] * (len(sources) * width)
        for row, i in enumerate(sources):
            base, node, k = row * width, self.leaf_node[i], self.k[i]
            hi = bisect_left(leaves, node)  # targets right of the run
            lo = hi - 1  # and left of it
            while True:
                cover = node, k ^ turns[node]
                while hi < width and leaves[hi] <= node:
                    found[base + hi] = cover
                    hi += 1
                while lo >= 0 and leaves[lo] >= first[node]:
                    found[base + lo] = cover
                    lo -= 1
                if lo < 0 and hi == width:
                    break
                node = parent[node]
        return found

    def fold(self, leaf, trivial, arrow):
        """Evaluate the type bottom-up over the post-order arrays:
        ``leaf(label)`` at each elementary system, ``trivial`` at I, and
        ``arrow(left, right)`` on the values of the two sides of each
        arrow."""
        values = [trivial] * len(self.left)
        for label, node in zip(self.labels, self.leaf_node):
            values[node] = leaf(label)
        for j, (l, r) in enumerate(zip(self.left, self.right)):
            if l != -1:
                values[j] = arrow(values[l], values[r])
        return values[-1]


def _flat_tree(x: TypeExpr) -> _FlatTree:
    """The flat tree of x, built on the first call and kept in the object's
    ``__dict__``, so every structural question about one type object
    shares one walk.  It is held per object, never per equal value, so
    the root's subterm is x itself."""
    tree = x.__dict__.get("_flat_tree")
    if tree is None:
        tree = x.__dict__["_flat_tree"] = _walk_tree(x)
    return tree


def _walk_tree(x: TypeExpr) -> _FlatTree:
    """One iterative post-order walk of x: its labels in textual order
    (a repeated name raises), their K parities (left turns on the root
    path, see below) and the node arrays."""
    labels: list[Label] = []
    k: list[int] = []
    leaf_node: list[int] = []
    left: list[int] = []
    right: list[int] = []
    parent: list[int] = []
    first: list[int] = []
    turns: list[int] = []
    term: list[TypeExpr | None] = []
    finished: list[int] = []  # nodes whose parent is not yet numbered
    todo: list[tuple[TypeExpr, int, bool]] = [(x, 0, False)]
    while todo:
        node, parity, sides_done = todo.pop()
        if isinstance(node, Arrow) and not sides_done:
            todo += [(node, parity, True), (node.right, parity, False), (node.left, 1 - parity, False)]
            continue
        j = len(left)
        if isinstance(node, Arrow):
            r, l = finished.pop(), finished.pop()
            parent[l] = parent[r] = j
            first.append(first[l])
        else:
            l = r = -1
            first.append(j)
            if isinstance(node, Elementary):
                leaf_node.append(j)
                labels.append(node.label)
                k.append(parity)
        left.append(l)
        right.append(r)
        parent.append(-1)
        turns.append(parity)
        term.append(node)
        finished.append(j)
    term[-1] = None  # the root is x
    arrays = (left, right, parent, first, turns, term)
    return _FlatTree(_distinct_labels(labels), tuple(k), tuple(leaf_node), *map(tuple, arrays))


def elementary_systems(x: TypeExpr) -> tuple[Label, ...]:
    """Non-trivial elementary labels of x in left-to-right textual order.

    Requires x to be relabeled: a duplicate label raises.
    """
    return _flat_tree(x).labels


def relabel_unique(x: TypeExpr) -> tuple[TypeExpr, dict[str, str]]:
    """Rename repeated labels left to right so each occurs exactly once.

    The k-th repeat of name N becomes N1, N2, ... (skipping names already
    in use).  Fresh labels keep the original dimension.  The returned map
    sends each fresh name back to the name it replaced.  When no label
    repeats, x itself comes back with an empty map: the check is x's flat
    tree, which stays with x for every later structural question.  Only a
    type with a repeat is rebuilt.
    """
    try:
        _flat_tree(x)
        return x, {}
    except DuplicateLabelError:
        pass
    in_use = {node.label.name for node in x.walk() if isinstance(node, Elementary)}
    seen: set[str] = set()
    provenance: dict[str, str] = {}

    def fresh(base: str) -> str:
        counter = 1
        while f"{base}{counter}" in in_use or f"{base}{counter}" in seen:
            counter += 1
        return f"{base}{counter}"

    def rename(label: Label) -> TypeExpr:
        if label.name in seen:
            new_name = fresh(label.name)
            provenance[new_name] = label.name
            label = Label(new_name, label.dimension)
        seen.add(label.name)
        return Elementary(label)

    return _fold(x, rename, TRIVIAL, Arrow), provenance


# --- the K parity function and the input/output partition -------------------
#
# Every arrow renders as (L->R), adding one arrow mark and one open bracket,
# so the marks to the right of a label pair up except for the "->" of each
# arrow whose left side holds the label.  K is therefore the parity of the
# left turns on the label's root path.  The flat tree keeps that parity at
# every node (``turns``), so K inside a subterm is the label's K xor the
# parity at the subterm's node: only the left turns below it remain.


def k_value(x: TypeExpr, label: Label | str) -> int:
    """Parity of arrows and open brackets strictly to the right of the label
    in the canonical fully parenthesized rendering of x.

    Value 1 marks an input system, 0 an output system.  Requires x to be
    relabeled: a duplicate label raises ``DuplicateLabelError``.
    """
    tree = _flat_tree(x)
    return tree.k[tree.position(label)]


@dataclass(frozen=True)
class IoAnalysis:
    """Per-type record: elementary systems, input/output split, K map,
    and the identity-normalization scalar lambda (exact rational)."""

    elementary: tuple[Label, ...]
    inputs: frozenset[Label]
    outputs: frozenset[Label]
    k: Mapping[Label, int]
    lam: Fraction

    def inputs_ordered(self) -> tuple[Label, ...]:
        return tuple(a for a in self.elementary if a in self.inputs)

    def outputs_ordered(self) -> tuple[Label, ...]:
        return tuple(a for a in self.elementary if a in self.outputs)


def _fold(x: TypeExpr, leaf, trivial, arrow):
    """Evaluate x bottom-up without recursion: ``leaf(label)`` at each
    elementary system, ``trivial`` at I, and ``arrow(left, right)`` on the
    values of the two sides of each arrow.  It walks the objects, so it
    serves the rebuilders, whose types may repeat a label; everything
    else folds over the flat tree (``_FlatTree.fold``)."""
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


def _lambda_arrow(left, right):
    # lambda as an unreduced numerator and denominator, with the total
    # dimension; reducing a Fraction at every arrow cost more than the rest
    # of the analysis
    (num_x, den_x, dim_x), (num_y, den_y, dim_y) = left, right
    return num_y * den_x, den_y * dim_x * num_x, dim_x * dim_y


def io_partition(x: TypeExpr) -> IoAnalysis:
    """Split Ele_x into inputs (K = 1) and outputs (K = 0) and compute lambda
    by the recursion lambda_E = 1/d_E, lambda_I = 1,
    lambda_{x->y} = lambda_y / (d_x lambda_x)."""
    tree = _flat_tree(x)
    num, den, _ = tree.fold(lambda a: (1, a.dimension, a.dimension), (1, 1, 1), _lambda_arrow)
    return IoAnalysis(
        tree.labels,
        frozenset(tree.inputs()),
        frozenset(tree.outputs()),
        dict(zip(tree.labels, tree.k)),
        Fraction(num, den),
    )


# --- the subterm partial order ----------------------------------------------

def minimal_enclosing(x: TypeExpr, a: Label | str, b: Label | str) -> TypeExpr:
    """The unique smallest subterm of x containing both labels.

    For distinct labels in core form this is always an arrow with the two
    labels split across its sides.  Requires x to be relabeled: a
    duplicate label raises ``DuplicateLabelError``.
    """
    tree = _flat_tree(x)
    [(node, _)] = tree.enclosing([tree.position(a)], [tree.position(b)])
    return tree.subterm(x, node)
