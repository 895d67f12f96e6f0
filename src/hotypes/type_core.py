"""Type expressions for higher-order maps: grammar, parsing, and structural analysis.

A type is either an elementary system label, the trivial one-dimensional
type ``I``, or an arrow ``(x -> y)``.  Bar and tensor are surface sugar:
``~x`` stores as ``x -> I`` and ``x * y`` as ``~(x -> ~y)``, so the core
representation is arrows all the way down.  A type's labels have one
record, its flat tree: positions, K parities and a name index beside the
node arrays that every fold runs over.  Words show labels in one order,
the sorted-name order of ``_name_order``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
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

    def __getstate__(self) -> dict:
        # the memos, kept in ``__dict__`` under names that start with "_",
        # are rebuilt where the object lands: a cached hash of a label
        # name is only valid in the process that computed it
        return {key: value for key, value in self.__dict__.items() if not key.startswith("_")}

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

    def __hash__(self) -> int:
        # the dataclass hash of (left, right), kept per object; the first
        # call fills it bottom-up, so deep types raise no RecursionError
        cached = self.__dict__.get("_hash")
        return cached if cached is not None else _hash_arrows(self)

    def __eq__(self, other: object) -> bool:
        # the dataclass equality of (left, right), by an explicit stack so
        # deep types raise no RecursionError; identical sides are equal, and
        # two cached hashes that differ settle a pair as unequal
        if other.__class__ is not Arrow:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if x.__class__ is not Arrow or y.__class__ is not Arrow:
                if x != y:
                    return False
                continue
            hx, hy = x.__dict__.get("_hash"), y.__dict__.get("_hash")
            if hx is not None and hy is not None and hx != hy:
                return False
            todo += [(x.right, y.right), (x.left, y.left)]
        return True


def _hash_arrows(x: Arrow) -> int:
    """Cache the hash of every arrow in x that has none yet, children
    first, by an explicit stack; each arrow then hashes its two sides from
    their cached values."""
    todo = [x]
    while todo:
        node = todo[-1]
        pending = [
            side for side in (node.left, node.right) if isinstance(side, Arrow) and "_hash" not in side.__dict__
        ]
        if pending:
            todo += pending
        else:
            todo.pop()
            node.__dict__["_hash"] = hash((node.left, node.right))
    return x.__dict__["_hash"]


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


def _reduce(operands: list[TypeExpr], operators: list[str], binary: tuple[str, ...]) -> None:
    """Apply the operators in ``binary`` on top of the stack, each to the
    two topmost operands."""
    while operators and operators[-1] in binary:
        right = operands.pop()
        if operators.pop() == "*":
            operands.append(tensor(operands.pop(), right))
        else:
            operands.append(Arrow(operands.pop(), right))


def _parse_tokens(text: str, system_table: Mapping[str, int]) -> TypeExpr:
    """Operator precedence over the tokens, with an operand and an operator
    stack instead of recursion: ~ binds tightest, then *, then ->.  ``*``
    is left-associative, ``->`` right-associative.

    Reading alternates between two states.  Where a type must start, ~ and
    ( are stacked until an atom.  After a complete type, the ~ directly
    above it apply, a ) folds the stack down to its ( and completes a type
    again, and a * or -> folds the * below it before it is stacked.  Any
    other token ends the text, or is missing a ) if one is open.  Errors
    name the same token as a recursive descent would.
    """
    tokens = _tokenize(text)
    operands: list[TypeExpr] = []
    operators: list[str] = []  # "~", "(", "*" and "->"
    index = 0
    while True:
        kind, lexeme, pos = tokens[index]
        while kind == "~" or kind == "(":
            operators.append(kind)
            index += 1
            kind, lexeme, pos = tokens[index]
        if kind == "I":
            operands.append(TRIVIAL)
        elif kind == "NAME":
            try:
                operands.append(Elementary(Label(lexeme, system_table.get(lexeme, 2))))
            except ValueError as exc:
                raise TypeSyntaxError(str(exc), text, pos) from None
        else:
            raise TypeSyntaxError(f"expected a type, found {lexeme or 'end of input'!r}", text, pos)
        index += 1
        kind, lexeme, pos = tokens[index]
        while True:
            while operators and operators[-1] == "~":
                operators.pop()
                operands.append(bar(operands.pop()))
            if kind != ")":
                break
            _reduce(operands, operators, ("*", "->"))
            if not operators:
                raise TypeSyntaxError(f"unexpected {lexeme!r}", text, pos)
            operators.pop()  # the matching (
            index += 1
            kind, lexeme, pos = tokens[index]
        if kind == "*" or kind == "->":
            _reduce(operands, operators, ("*",))
            operators.append(kind)
            index += 1
            continue
        _reduce(operands, operators, ("*", "->"))
        if operators:
            raise TypeSyntaxError("expected ')'", text, pos)
        if kind != "END":
            raise TypeSyntaxError(f"unexpected {lexeme!r}", text, pos)
        return operands[0]


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
    return _parse_tokens(text, table)


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
    belong to no label.  ``index`` finds a label's position by name."""

    labels: tuple[Label, ...]
    k: tuple[int, ...]
    leaf_node: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    parent: tuple[int, ...]
    first: tuple[int, ...]
    turns: tuple[int, ...]
    term: tuple[TypeExpr | None, ...]  # None at the root, see ``subterm``
    index: dict[str, int]  # label name -> textual position of its first occurrence

    def inputs(self) -> tuple[Label, ...]:
        return tuple(a for a, k in zip(self.labels, self.k) if k == 1)

    def outputs(self) -> tuple[Label, ...]:
        return tuple(a for a, k in zip(self.labels, self.k) if k == 0)

    def position(self, label: Label | str) -> int:
        """Textual position of the label, found by name in ``index``."""
        name = label.name if isinstance(label, Label) else label
        i = self.index.get(name)
        if i is None:
            raise ValueError(f"label {name!r} does not occur in the type")
        return i

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
        ``leaf(label)`` at each elementary system, in textual order,
        ``trivial`` at I, and ``arrow(left, right)`` on the values of the
        two sides of each arrow.  Returns every node's value, indexed by
        node, so the type's own value is the last."""
        values = [trivial] * len(self.left)
        for label, node in zip(self.labels, self.leaf_node):
            values[node] = leaf(label)
        for j, (l, r) in enumerate(zip(self.left, self.right)):
            if l != -1:
                values[j] = arrow(values[l], values[r])
        return values


def _memo(x: TypeExpr, key: str, build):
    """``build(x)``, computed on the first call and kept in the object's
    ``__dict__`` under ``key``.  It is held per object, never per equal
    value, and dies with the object; nothing kept there may refer back to
    x, so that a dead type is freed without the cycle collector."""
    value = x.__dict__.get(key)
    if value is None:
        value = x.__dict__[key] = build(x)
    return value


def _flat_tree(x: TypeExpr) -> _FlatTree:
    """The flat tree of x, kept with x (``_memo``), so every structural
    question about one type object shares one walk and the root's subterm
    is x itself.  A repeated label raises ``DuplicateLabelError``."""
    return _memo(x, "_flat_tree", _distinct_tree)


def _distinct_tree(x: TypeExpr) -> _FlatTree:
    tree = _walk_tree(x)
    if len(tree.index) < len(tree.labels):
        _distinct_labels(tree.labels)  # raises, naming the first repeat
    return tree


def _name_order(labels: Sequence[Label]) -> tuple[int, ...]:
    """The positions of labels in sorted-name order, the one label order
    every word is shown in; a repeated name raises ``DuplicateLabelError``."""
    names = [a.name for a in labels]
    order = tuple(sorted(range(len(names)), key=names.__getitem__))
    if len(set(names)) < len(names):
        _distinct_labels([labels[i] for i in order])  # raises, naming the least repeat
    return order


def _walk_tree(x: TypeExpr) -> _FlatTree:
    """One iterative post-order walk of x: its labels in textual order, their
    K parities (left turns on the root path, see below), the node arrays
    and the name index.  Repeats are kept; ``_flat_tree`` refuses them."""
    labels: list[Label] = []
    k: list[int] = []
    leaf_node: list[int] = []
    left: list[int] = []
    right: list[int] = []
    parent: list[int] = []
    first: list[int] = []
    turns: list[int] = []
    term: list[TypeExpr | None] = []
    index: dict[str, int] = {}
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
                index.setdefault(node.label.name, len(labels))
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
    arrays = (labels, k, leaf_node, left, right, parent, first, turns, term)
    return _FlatTree(*map(tuple, arrays), index)


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
    tree = _walk_tree(x)
    seen: set[str] = set()
    provenance: dict[str, str] = {}

    def fresh(base: str) -> str:
        counter = 1
        while f"{base}{counter}" in tree.index or f"{base}{counter}" in seen:
            counter += 1
        return f"{base}{counter}"

    def rename(label: Label) -> TypeExpr:
        if label.name in seen:
            new_name = fresh(label.name)
            provenance[new_name] = label.name
            label = Label(new_name, label.dimension)
        seen.add(label.name)
        return Elementary(label)

    return tree.fold(rename, TRIVIAL, Arrow)[-1], provenance


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


def _exponent_arrow(left, right):
    # for one dimension d: the exponent e of d in lambda and the number n of
    # labels of dimension d, so lambda_y / (d_x lambda_x) has e_y - n_x - e_x
    (e_x, n_x), (e_y, n_y) = left, right
    return e_y - n_x - e_x, n_x + n_y


def io_partition(x: TypeExpr) -> IoAnalysis:
    """Split Ele_x into inputs (K = 1) and outputs (K = 0) and compute lambda
    by the recursion lambda_E = 1/d_E, lambda_I = 1,
    lambda_{x->y} = lambda_y / (d_x lambda_x), as one fold per distinct
    dimension of that dimension's exponent in lambda.  Kept with x
    (``_memo``), so its K map is read-only."""
    return _memo(x, "_io_partition", _io_partition)


def _io_partition(x: TypeExpr) -> IoAnalysis:
    tree = _flat_tree(x)
    num = den = 1
    for d in {a.dimension for a in tree.labels}:
        e, _ = tree.fold(lambda a, d=d: (-1, 1) if a.dimension == d else (0, 0), (0, 0), _exponent_arrow)[-1]
        num, den = num * d ** max(e, 0), den * d ** max(-e, 0)
    return IoAnalysis(
        tree.labels,
        frozenset(tree.inputs()),
        frozenset(tree.outputs()),
        MappingProxyType(dict(zip(tree.labels, tree.k))),
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
