"""Signalling relations read off the type expression alone.

For an input A and output B, the minimal enclosing subterm decides the
relation: A an input of that subterm means full signalling from A to B,
A an output means no signalling.  One walk turns the type into the flat
tree of ``type_core``; the enclosing subterm is the first node above A's
leaf whose node range holds B's leaf, and A's K inside it is A's K xor
the left-turn parity at that node.  The structural algorithm never builds
word sets, so it stays polynomial in the length of the type; the
critical-set route, decided by the class pass of ``strings``, is kept as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .strings import _critical_word
from .type_core import Label, TypeExpr, _flat_tree, _FlatTree, render_type


class Relation(str, Enum):
    NO_SIGNALLING = "no-signalling"
    FULL_SIGNALLING = "full-signalling"


@dataclass(frozen=True)
class SignallingVerdict:
    source: Label
    target: Label
    relation: Relation
    enclosing: TypeExpr

    def to_json(self) -> dict:
        return {
            "from": self.source.name,
            "to": self.target.name,
            "relation": self.relation.value,
            "enclosing": render_type(self.enclosing, sugar=True),
        }


def _resolve_pair(tree: _FlatTree, a: Label | str, b: Label | str) -> tuple[int, int]:
    """Textual positions of input a (K = 1) and output b (K = 0)."""
    index = {lbl.name: i for i, lbl in enumerate(tree.labels)}
    name_a = a.name if isinstance(a, Label) else a
    name_b = b.name if isinstance(b, Label) else b
    i, j = index.get(name_a), index.get(name_b)
    if i is None or tree.k[i] != 1:
        raise ValueError(f"{name_a!r} is not an input system of the type")
    if j is None or tree.k[j] != 0:
        raise ValueError(f"{name_b!r} is not an output system of the type")
    return i, j


def signals(x: TypeExpr, a: Label | str, b: Label | str) -> SignallingVerdict:
    """Relation from input a to output b, decided structurally.

    Inside the minimal enclosing subterm, a keeping its input role means
    the type signals (fully) from a to b; a flipping to an output role
    means no signalling.
    """
    tree = _flat_tree(x)
    return _verdict(x, tree, *_resolve_pair(tree, a, b))


def _verdict(x: TypeExpr, tree: _FlatTree, i: int, j: int) -> SignallingVerdict:
    node, k = tree.enclosing(i, j)
    relation = Relation.FULL_SIGNALLING if k == 1 else Relation.NO_SIGNALLING
    return SignallingVerdict(tree.labels[i], tree.labels[j], relation, tree.subterm(x, node))


def signalling_matrix(x: TypeExpr) -> list[SignallingVerdict]:
    """One verdict per (input, output) pair, inputs then outputs in textual
    order.  The type is walked once into a flat tree; each pair then climbs
    from the input's leaf to the first node whose subterm holds the output."""
    return _rows(x, _flat_tree(x))


def _rows(x: TypeExpr, tree: _FlatTree) -> list[SignallingVerdict]:
    inputs = [i for i, k in enumerate(tree.k) if k == 1]
    outputs = [j for j, k in enumerate(tree.k) if k == 0]
    return [_verdict(x, tree, i, j) for i in inputs for j in outputs]


def crosscheck(x: TypeExpr) -> bool:
    """Structural verdicts against critical-set admissibility, pair by pair:
    no signalling must coincide exactly with an admissible contraction.
    Admissibility comes from the class pass over the type tree, which,
    unlike ``check_contraction``, also takes pairs of unequal dimension."""
    tree = _flat_tree(x)
    for row in _rows(x, tree):
        admissible = _critical_word(tree, [(row.source, row.target)]) is None
        if admissible != (row.relation is Relation.NO_SIGNALLING):
            return False
    return True
