"""Decision procedures over the string calculus.

Type inclusion is a subset test on enumerated D sets, refused above the
63-label cap before any set is built; equivalence adds the reverse test
only when the two sets differ in size.  Contraction and composition
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
from typing import Collection, Iterable, NamedTuple

from .strings import BitWord, _critical_word, _universe, build_D
from .type_core import (
    Arrow,
    Elementary,
    Label,
    TRIVIAL,
    TypeExpr,
    _flat_tree,
    _fold,
    _roles,
    elementary_systems,
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
        by_name = {a.name: a for a in elementary_systems(x)}
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ValueError(f"bad pair {chunk!r}; expected Input:Output")
            left, right = (part.strip() for part in chunk.split(":", 1))
            for name in (left, right):
                if name not in by_name:
                    raise ValueError(f"label {name!r} does not occur in the type")
            pairs.append((by_name[left], by_name[right]))
        return ContractionSpec.of(pairs)


# --- type inclusion -----------------------------------------------------------

def check_inclusion(x: TypeExpr, y: TypeExpr) -> Verdict:
    """Is every deterministic map of x also one of y?

    Holds exactly when the label sets agree, the normalization scalars
    agree, and D_x is a subset of D_y; otherwise the verdict carries a word
    of D_x that falls outside D_y (or the mismatch reason).
    """
    ax, ay = io_partition(x), io_partition(y)
    if set(ax.elementary) != set(ay.elementary):
        return Verdict(False, Reason.LABEL_MISMATCH)
    if ax.lam != ay.lam:
        return Verdict(False, Reason.LAMBDA_MISMATCH)
    _universe(ax.elementary)  # the 63-label cap, before any word is built
    dx, dy = build_D(x), build_D(y)
    extra = dx.difference(dy)
    if extra.masks:
        return Verdict(False, Reason.NOT_INCLUDED, witness=extra.min_word())
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
    if not forward.admissible or len(build_D(x)) == len(build_D(y)):
        return forward
    return check_inclusion(y, x)


# --- contraction admissibility --------------------------------------------------

def _resolve_pairs(x: TypeExpr, spec: ContractionSpec) -> list[tuple[Label, Label]]:
    """Bind pair labels by name to the systems of x; the two systems of one
    pair must share a dimension."""
    labels, index = _flat_tree(x).labels, _roles(x).index
    resolved = []
    for a, b in spec.pairs:
        for lbl in (a, b):
            if lbl.name not in index:
                raise ValueError(f"label {lbl.name!r} does not occur in the type")
        ra, rb = labels[index[a.name]], labels[index[b.name]]
        if ra.dimension != rb.dimension:
            raise ValueError(
                f"contracted pair ({ra.name}, {rb.name}) has unequal dimensions "
                f"{ra.dimension} != {rb.dimension}"
            )
        resolved.append((ra, rb))
    return resolved


def _orient_pairs(
    inputs: Collection[Label], pairs: list[tuple[Label, Label]]
) -> tuple[Verdict | None, list[tuple[Label, Label]]]:
    """Normalize each pair to (input, output); reject in-in and out-out."""
    oriented = []
    for a, b in pairs:
        a_in, b_in = a in inputs, b in inputs
        if a_in and b_in:
            return Verdict(False, Reason.INPUT_INPUT), []
        if not a_in and not b_in:
            return Verdict(False, Reason.OUTPUT_OUTPUT), []
        oriented.append((a, b) if a_in else (b, a))
    return None, oriented


def check_contraction(x: TypeExpr, spec: ContractionSpec) -> Verdict:
    """Can these loops be closed on every deterministic map of x?

    Pairs joining two inputs or two outputs are rejected outright; the rest
    reduce to an emptiness test of D_x against the critical set of the
    oriented pairs, decided by the class pass over the type tree.
    """
    roles = _roles(x)
    rejection, oriented = _orient_pairs(roles.input_set, _resolve_pairs(x, spec))
    if rejection is not None:
        return rejection
    witness = _critical_word(x, oriented) if oriented else None
    if witness is not None:
        return Verdict(False, Reason.CRITICAL_SET, witness=witness)
    contracted = {name for pair in oriented for name in (pair[0].name, pair[1].name)}
    return Verdict(
        True,
        Reason.OK,
        result_in=tuple(a for a in roles.inputs if a.name not in contracted),
        result_out=tuple(a for a in roles.outputs if a.name not in contracted),
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

    return _fold(x, rename, TRIVIAL, Arrow)


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
