"""The benchmark's own model of type expressions.

Inputs are generated here as small trees and handed to hotypes only as
text.  Every expected output is derived here too, without calling hotypes:

- K parity counts the arrows and open brackets to the right of a label in
  the fully parenthesised core rendering, straight from the definition;
- the signalling relation of an input/output pair is K of the input inside
  the smallest subterm holding both labels (the paper's structural rule);
- |D| and the deviation-basis dimension follow from the recursion
  D_{x->y} = W_x D_y ∪ bar(D_x) perp(D_y) by counting alone, with no word
  sets built.

Trees are tuples: ("lab", name), ("I",), ("->", x, y), ("~", x), ("*", x, y).
Every label is a qubit, the CLI's default dimension.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

QUBIT = 2
_LETTERS = "ABCDEFGHJKLMNOPQRSTUVWXYZ"  # "I" is the trivial type
_TOKEN = re.compile(r"[A-Z][A-Za-z0-9_]*")


class Names:
    """Fresh label names: a seeded letter plus a counter, so no name repeats
    within one generator and names differ from seed to seed."""

    def __init__(self, rng):
        self.rng = rng
        self.count = 0

    def __call__(self) -> str:
        self.count += 1
        return f"{self.rng.choice(_LETTERS)}{self.count}"


def lab(name: str) -> tuple:
    return ("lab", name)


def arrow(x: tuple, y: tuple) -> tuple:
    return ("->", x, y)


def dual(x: tuple) -> tuple:
    return ("~", x)


def tensor(x: tuple, y: tuple) -> tuple:
    return ("*", x, y)


def text(t: tuple) -> str:
    """Fully parenthesised surface text, the only form hotypes receives."""
    kind = t[0]
    if kind == "lab":
        return t[1]
    if kind == "I":
        return "I"
    if kind == "~":
        return f"~({text(t[1])})"
    op = "->" if kind == "->" else "*"
    return f"({text(t[1])}{op}{text(t[2])})"


def core(t: tuple) -> tuple:
    """Desugar: ~x is x -> I and x * y is ~(x -> ~y)."""
    kind = t[0]
    if kind in ("lab", "I"):
        return t
    if kind == "~":
        return ("->", core(t[1]), ("I",))
    if kind == "*":
        return ("->", ("->", core(t[1]), ("->", core(t[2]), ("I",))), ("I",))
    return ("->", core(t[1]), core(t[2]))


def core_text(c: tuple) -> str:
    if c[0] == "lab":
        return c[1]
    if c[0] == "I":
        return "I"
    return f"({core_text(c[1])}->{core_text(c[2])})"


def labels(t: tuple) -> list[str]:
    """Label names in textual order."""
    if t[0] == "lab":
        return [t[1]]
    return [name for child in t[1:] for name in labels(child)]


def rename(t: tuple, mapping: dict[str, str]) -> tuple:
    if t[0] == "lab":
        return ("lab", mapping.get(t[1], t[1]))
    if t[0] == "I":
        return t
    return (t[0],) + tuple(rename(child, mapping) for child in t[1:])


def k_parities(c: tuple) -> dict[str, int]:
    """K of every label of core tree c, counted on its rendering."""
    rendered = core_text(c)
    out = {}
    for m in _TOKEN.finditer(rendered):
        if m.group() != "I":
            rest = rendered[m.end():]
            out[m.group()] = (rest.count("->") + rest.count("(")) % 2
    return out


def io(t: tuple) -> tuple[list[str], list[str]]:
    """(inputs, outputs) of a tree in textual order."""
    k = k_parities(core(t))
    names = labels(t)
    return [a for a in names if k[a] == 1], [a for a in names if k[a] == 0]


def _enclosing(c: tuple, a: str, b: str) -> tuple:
    while c[0] == "->":
        left = set(labels(c[1]))
        if a in left and b in left:
            c = c[1]
        elif a not in left and b not in left:
            c = c[2]
        else:
            return c
    return c


def relation(t: tuple, a: str, b: str) -> str:
    """Signalling from input a to output b by the structural rule."""
    enclosing = _enclosing(core(t), a, b)
    return "full-signalling" if k_parities(enclosing)[a] == 1 else "no-signalling"


def relations(t: tuple) -> dict[tuple[str, str], str]:
    """The whole signalling matrix, keyed by (input, output)."""
    inputs, outputs = io(t)
    return {(a, b): relation(t, a, b) for a in inputs for b in outputs}


@lru_cache(maxsize=None)
def _counts(c: tuple) -> tuple[int, int, int, int]:
    """(|D|, 2^labels, basis dimension, 4^labels) of a core tree.

    |D_{x->y}| = 2^{n_x}|D_y| + (2^{n_x} - 1 - |D_x|)(2^{n_y} - |D_y|), and the
    same with every 0 bit weighted by d^2 - 1 for the basis dimension.
    """
    if c[0] == "I":
        return 0, 1, 0, 1
    if c[0] == "lab":
        return 1, 2, QUBIT**2 - 1, QUBIT**2
    dx, wx, bx, sx = _counts(c[1])
    dy, wy, by, sy = _counts(c[2])
    return (
        wx * dy + (wx - 1 - dx) * (wy - dy),
        wx * wy,
        sx * by + (sx - 1 - bx) * (sy - by),
        sx * sy,
    )


def word_count(t: tuple) -> int:
    return _counts(core(t))[0]


def basis_dimension(t: tuple) -> int:
    return _counts(core(t))[2]


def lam(t: tuple) -> Fraction:
    """The normalisation scalar: the product of inverse output dimensions."""
    return Fraction(1, QUBIT ** len(io(t)[1]))


# --- families ------------------------------------------------------------------

def chain(parts: list[tuple], op) -> tuple:
    out = parts[0]
    for part in parts[1:]:
        out = op(out, part)
    return out


def channels(names: Names, k: int) -> tuple:
    return chain([arrow(lab(names()), lab(names())) for _ in range(k)], tensor)


def left_nested(names: Names, n: int) -> tuple:
    return chain([lab(names()) for _ in range(n)], arrow)


def right_nested(names: Names, n: int) -> tuple:
    parts = [lab(names()) for _ in range(n)]
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = arrow(part, out)
    return out


def supermap(names: Names) -> tuple:
    """(A->B)->(C->D): a map on channels."""
    a, b, c, d = (lab(names()) for _ in range(4))
    return arrow(arrow(a, b), arrow(c, d))


def random_type(rng, names: Names, n: int) -> tuple:
    """A random tree over n fresh labels mixing arrows, tensors and duals."""
    if n == 1:
        return dual(lab(names())) if rng.random() < 0.2 else lab(names())
    split = rng.randint(1, n - 1)
    left, right = random_type(rng, names, split), random_type(rng, names, n - split)
    roll = rng.random()
    if roll < 0.5:
        return arrow(left, right)
    if roll < 0.85:
        return tensor(left, right)
    return dual(arrow(left, right))


def balanced_random_type(rng, names: Names, n: int) -> tuple:
    """A random type with as many inputs as outputs (n even), so the size of
    its signalling matrix does not depend on the seed."""
    while True:
        t = random_type(rng, names, n)
        inputs, outputs = io(t)
        if len(inputs) == len(outputs):
            return t
