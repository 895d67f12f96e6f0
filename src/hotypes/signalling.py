"""Signalling relations read off the type expression alone.

For an input A and output B, the minimal enclosing subterm decides the
relation: A an input of that subterm means full signalling from A to B,
A an output means no signalling.  The structural algorithm never builds
word sets, so it stays polynomial in the length of the type; the
critical-set route, decided by the class pass of ``strings``, is kept as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .strings import _critical_word
from .type_core import (
    Label,
    TypeExpr,
    _enclosing,
    _flat_tree,
    _LeafPath,
    _root_paths,
    bar,
    io_partition,
    render_type,
)


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


def _resolve_pair(x: TypeExpr, a: Label | str, b: Label | str) -> tuple[Label, Label]:
    analysis = io_partition(x)
    by_name = {lbl.name: lbl for lbl in analysis.elementary}
    name_a = a.name if isinstance(a, Label) else a
    name_b = b.name if isinstance(b, Label) else b
    if name_a not in by_name or by_name[name_a] not in analysis.inputs:
        raise ValueError(f"{name_a!r} is not an input system of the type")
    if name_b not in by_name or by_name[name_b] not in analysis.outputs:
        raise ValueError(f"{name_b!r} is not an output system of the type")
    return by_name[name_a], by_name[name_b]


def signals(x: TypeExpr, a: Label | str, b: Label | str) -> SignallingVerdict:
    """Relation from input a to output b, decided structurally.

    Inside the minimal enclosing subterm, a keeping its input role means
    the type signals (fully) from a to b; a flipping to an output role
    means no signalling.
    """
    la, lb = _resolve_pair(x, a, b)
    return _verdict(la, lb, _root_paths(x))


def _verdict(a: Label, b: Label, paths: dict[str, _LeafPath]) -> SignallingVerdict:
    enclosing, k = _enclosing(paths[a.name], paths[b.name])
    relation = Relation.FULL_SIGNALLING if k == 1 else Relation.NO_SIGNALLING
    return SignallingVerdict(a, b, relation, enclosing)


def full_signalling(x: TypeExpr, a: Label | str, b: Label | str) -> bool:
    """Critical-set test for full signalling from input a to output b: the
    reversed contraction on the dual type must be admissible."""
    la, lb = _resolve_pair(x, a, b)
    return _critical_word(_flat_tree(bar(x)), [(lb, la)]) is None


def signalling_matrix(x: TypeExpr) -> list[SignallingVerdict]:
    """One verdict per (input, output) pair, inputs then outputs in textual
    order.  The type is analysed once; each pair then costs one comparison
    of two root paths."""
    analysis = io_partition(x)
    paths = _root_paths(x)
    return [
        _verdict(a, b, paths)
        for a in analysis.inputs_ordered()
        for b in analysis.outputs_ordered()
    ]


def crosscheck(x: TypeExpr) -> bool:
    """Structural verdicts against critical-set admissibility, pair by pair:
    no signalling must coincide exactly with an admissible contraction.
    Admissibility comes from the class pass over the type tree, which,
    unlike ``check_contraction``, also takes pairs of unequal dimension."""
    tree = _flat_tree(x)
    for row in signalling_matrix(x):
        admissible = _critical_word(tree, [(row.source, row.target)]) is None
        if admissible != (row.relation is Relation.NO_SIGNALLING):
            return False
    return True
