"""Decision procedures over the string calculus.

Type inclusion is a subset test of D sets on truth tables over the
smallest cube of words holding D_x, sized first against
``strings.TABLE_BITS``; equivalence adds the reverse test only when the
two sets differ in size.  Contraction and composition
admissibility is emptiness of D_x against a critical set, decided
without building either: the nodes of the type tree are sorted into
three classes of words (in D, all-ones, neither) once per type, and each
pair-bit pattern re-sorts only the paths from its paired leaves to the
root, so a pattern costs O(depth) per pair and k pairs cost 2^k - 1
patterns, refused above ``strings.PATTERN_BUDGET``.  Verdicts carry a
machine-checkable witness whenever they reject: the smallest offending
word in sorted-name order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .strings import BitWord, _critical_word, _extra_word, word_count
from .type_core import (
    Arrow,
    Elementary,
    Label,
    TRIVIAL,
    TypeExpr,
    _flat_tree,
    _memo,
    io_partition,
    tensor,
)


class Reason(str, Enum):
    OK = "ok"
    INPUT_INPUT = "input-input"
    OUTPUT_OUTPUT = "output-output"
    CRITICAL_SET = "critical-set-hit"
    LABEL_MISMATCH = "label-mismatch"
    LAMBDA_MISMATCH = "lambda-mismatch"
    NOT_INCLUDED = "not-included"


class Verdict(NamedTuple):
    """Outcome of a decision procedure.

    ``witness`` is present exactly when the rejection came from a word-level
    counterexample; ``result_in``/``result_out`` are present exactly when the
    check passes and has a resulting channel type.
    """

    admissible: bool
    reason: Reason
    witness: BitWord | None = None
    result_in: tuple[Label, ...] | None = None
    result_out: tuple[Label, ...] | None = None

    def to_json(self) -> dict:
        return {
            "admissible": self.admissible,
            "reason": self.reason.value,
            "witness": self.witness.render() if self.witness is not None else None,
            "result_in": [a.name for a in self.result_in] if self.result_in is not None else None,
            "result_out": [a.name for a in self.result_out] if self.result_out is not None else None,
        }


@dataclass(frozen=True)
class ContractionSpec:
    """Disjoint (input-label, output-label) pairs to contract, each pair on
    systems of equal dimension."""

    pairs: tuple[tuple[Label, Label], ...]

    def __post_init__(self):
        names = [name for a, b in self.pairs for name in (a.name, b.name)]
        if len(set(names)) != len(names):
            raise ValueError(f"contraction pairs overlap: {sorted(names)}")
        for a, b in self.pairs:
            if a.dimension != b.dimension:
                raise ValueError(
                    f"contracted pair ({a.name}, {b.name}) has unequal dimensions "
                    f"{a.dimension} != {b.dimension}"
                )

    @staticmethod
    def of(pairs: Iterable[tuple[Label, Label]]) -> "ContractionSpec":
        return ContractionSpec(tuple(sorted(pairs, key=lambda p: (p[0].name, p[1].name))))

    @staticmethod
    def from_text(text: str, x: TypeExpr) -> "ContractionSpec":
        """Parse pair syntax ``A:B,C:D`` against the labels of x."""
        tree = _flat_tree(x)
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ValueError(f"bad pair {chunk!r}; expected Input:Output")
            left, right = (tree.position(part.strip()) for part in chunk.split(":", 1))
            pairs.append((tree.labels[left], tree.labels[right]))
        return ContractionSpec.of(pairs)


# --- type inclusion -----------------------------------------------------------

def check_inclusion(x: TypeExpr, y: TypeExpr) -> Verdict:
    """Is every deterministic map of x also one of y?

    Holds exactly when the label sets agree, the normalization scalars
    agree, and D_x is a subset of D_y; otherwise the verdict carries the
    smallest word of D_x that falls outside D_y (or the mismatch reason).
    Neither set is built (``strings._extra_word``); tables over
    ``TABLE_BITS`` raise ``ValueError`` before any is made.
    """
    ax, ay = io_partition(x), io_partition(y)
    if set(ax.elementary) != set(ay.elementary):
        return Verdict(False, Reason.LABEL_MISMATCH)
    if ax.lam != ay.lam:
        return Verdict(False, Reason.LAMBDA_MISMATCH)
    witness = _extra_word(x, y)
    if witness is not None:
        return Verdict(False, Reason.NOT_INCLUDED, witness=witness)
    return Verdict(
        True,
        Reason.OK,
        result_in=ax.inputs_ordered(),
        result_out=ax.outputs_ordered(),
    )


def check_equivalence(x: TypeExpr, y: TypeExpr) -> Verdict:
    """Inclusion both ways.  A forward inclusion already makes D_x a subset
    of D_y, so when the two have equal size they are equal and the
    reverse test is skipped; otherwise D_x is a proper subset and the
    reverse test fails with its witness."""
    forward = check_inclusion(x, y)
    if not forward.admissible or word_count(x) == word_count(y):
        return forward
    return check_inclusion(y, x)


# --- contraction admissibility --------------------------------------------------

def _orient_pairs(x: TypeExpr, spec: ContractionSpec) -> tuple[Verdict | None, list[tuple[Label, Label]]]:
    """Bind the pair labels by name to the systems of x, the two of a pair
    sharing a dimension, and normalize each pair to (input, output) by K;
    the first pair of two inputs or two outputs rejects."""
    tree = _flat_tree(x)
    oriented = []
    for a, b in spec.pairs:
        i, j = tree.position(a), tree.position(b)
        ra, rb = tree.labels[i], tree.labels[j]
        if ra.dimension != rb.dimension:
            raise ValueError(
                f"contracted pair ({ra.name}, {rb.name}) has unequal dimensions "
                f"{ra.dimension} != {rb.dimension}"
            )
        oriented.append((i, j) if tree.k[i] else (j, i))
    for i, j in oriented:
        if tree.k[i] == tree.k[j]:
            return Verdict(False, Reason.INPUT_INPUT if tree.k[i] else Reason.OUTPUT_OUTPUT), []
    return None, [(tree.labels[i], tree.labels[j]) for i, j in oriented]


def check_contraction(x: TypeExpr, spec: ContractionSpec) -> Verdict:
    """Can these loops be closed on every deterministic map of x?

    Pairs joining two inputs or two outputs are rejected outright; the rest
    reduce to an emptiness test of D_x against the critical set of the
    oriented pairs, decided by the class pass over the type tree.
    """
    rejection, oriented = _orient_pairs(x, spec)
    if rejection is not None:
        return rejection
    witness = _critical_word(x, oriented) if oriented else None
    if witness is not None:
        return Verdict(False, Reason.CRITICAL_SET, witness=witness)
    contracted = {name for pair in oriented for name in (pair[0].name, pair[1].name)}
    inputs, outputs = _memo(x, "_io_labels", lambda x: (_flat_tree(x).inputs(), _flat_tree(x).outputs()))
    return Verdict(
        True,
        Reason.OK,
        result_in=tuple(a for a in inputs if a.name not in contracted),
        result_out=tuple(a for a in outputs if a.name not in contracted),
    )


# --- composition -----------------------------------------------------------------

def _prime(name: str, taken: set[str]) -> str:
    candidate = name + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


def _rename_labels(x: TypeExpr, mapping: dict[str, str]) -> TypeExpr:
    def rename(a: Label) -> TypeExpr:
        return Elementary(Label(mapping.get(a.name, a.name), a.dimension))

    return _flat_tree(x).fold(rename, TRIVIAL, Arrow)[-1]


def check_composition(x: TypeExpr, y: TypeExpr) -> Verdict:
    """Is connecting x and y along their shared labels always meaningful?

    Reduces to a contraction check on the tensor of the two types, with
    the shared labels of y renamed apart first: each shared label pairs
    with its renamed copy, so a label both types read or both write is
    rejected as an input-input or output-output pair.  No shared labels
    means a plain tensor, which is always admissible.
    """
    dims_x = {a.name: a.dimension for a in _flat_tree(x).labels}
    dims_y = {a.name: a.dimension for a in _flat_tree(y).labels}
    shared = sorted(set(dims_x) & set(dims_y))
    for name in shared:
        if dims_x[name] != dims_y[name]:
            raise ValueError(
                f"shared label {name!r} has dimension {dims_x[name]} in one type "
                f"and {dims_y[name]} in the other"
            )
    taken = set(dims_x) | set(dims_y)
    renaming = {name: _prime(name, taken) for name in shared}
    pairs = [(Label(name, dims_x[name]), Label(renaming[name], dims_y[name])) for name in shared]
    return check_contraction(tensor(x, _rename_labels(y, renaming)), ContractionSpec.of(pairs))
