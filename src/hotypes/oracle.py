"""Dense Choi-operator ground truth for the combinatorial calculus.

Operators live on the tensor product of their labels' Hilbert spaces in
canonical (sorted) label order.  Everything here is exact linear algebra
at desk scale: seeded sampling of deterministic maps on product-basis
coefficients, where a word subspace is a mask, the link product, and the
channel and no-signalling residuals ``verify`` reads to validate
combinatorial verdicts.  The yes/no predicates over those residuals are
test references, not part of this module.
Partial trace, link product, numeric contraction and the identity
padding of the no-signalling test are one label-keyed contraction,
``_contract``, that ties the ket and bra axes of matching labels.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .admissibility import ContractionSpec, check_contraction
from .signalling import Relation, signals
from .strings import BitWord, WordSet, _class_count, build_D, canonical_universe
from .type_core import IoAnalysis, Label, TypeExpr, _roles, io_partition

BASIS_BYTES = 1 << 30


def _dims(labels: Sequence[Label]) -> tuple[int, ...]:
    return tuple(a.dimension for a in labels)


def _side(labels: Sequence[Label]) -> int:
    side = 1
    for a in labels:
        side *= a.dimension
    return side


@dataclass(frozen=True)
class OperatorMatrix:
    """A square complex matrix on the tensor product of its labels' spaces."""

    labels: tuple[Label, ...]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if canonical_universe(self.labels) != self.labels:
            # the data layout is tied to the axis order, so reordering here
            # would silently permute the matrix
            raise ValueError("labels must be given in canonical (sorted) order")
        side = _side(self.labels)
        if self.data.shape != (side, side):
            raise ValueError(f"matrix side {self.data.shape} does not match labels (need {side})")

    @property
    def side(self) -> int:
        return self.data.shape[0]

    def tensor_view(self) -> np.ndarray:
        dims = _dims(self.labels)
        return self.data.reshape(dims + dims)


def _contract(
    out_labels: tuple[Label, ...],
    *ops: OperatorMatrix,
    alias: dict[tuple[str, str], tuple[str, str]] | None = None,
) -> OperatorMatrix:
    """The one einsum of the oracle: every (label name, "ket"/"bra") axis
    gets one index, shared by each operand that names it, so axes of one
    name are tied and summed unless ``out_labels`` keeps them.  ``alias``
    maps an axis onto another, tying the two.  Indices are numbered in
    order of first appearance, kets before bras within each operand;
    einsum's integer ids must stay below 52."""
    alias = alias or {}
    ids: dict[tuple[str, str], int] = {}

    def subs(labels: Sequence[Label]) -> list[int]:
        axes = [(a.name, side) for side in ("ket", "bra") for a in labels]
        return [ids.setdefault(alias.get(axis, axis), len(ids)) for axis in axes]

    operands = [arg for op in ops for arg in (op.tensor_view(), subs(op.labels))]
    result = np.einsum(*operands, subs(out_labels))
    side = _side(out_labels)
    return OperatorMatrix(out_labels, result.reshape(side, side))


def partial_trace(op: OperatorMatrix, drop: Iterable[Label | str]) -> OperatorMatrix:
    """Trace out the listed labels; the rest keep canonical order."""
    names = {a.name if isinstance(a, Label) else a for a in drop}
    unknown = names - {a.name for a in op.labels}
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} not present")
    keep = tuple(a for a in op.labels if a.name not in names)
    return _contract(keep, op, alias={(name, "bra"): (name, "ket") for name in names})


# --- the link product ---------------------------------------------------------

def link_product(r: OperatorMatrix, s: OperatorMatrix) -> OperatorMatrix:
    """Compose Choi operators over their shared labels.

    Partial transpose on the shared systems, multiply, and trace them out;
    with no shared labels this is the tensor product in canonical order.
    Tying ket with ket and bra with bra across the two operators is that
    composite in one contraction.
    """
    shared = {a.name for a in r.labels} & {a.name for a in s.labels}
    dims_r = {a.name: a.dimension for a in r.labels}
    dims_s = {a.name: a.dimension for a in s.labels}
    for name in shared:
        if dims_r[name] != dims_s[name]:
            raise ValueError(f"shared label {name!r} has mismatched dimensions")
    out_labels = canonical_universe(
        tuple(a for a in r.labels if a.name not in shared)
        + tuple(a for a in s.labels if a.name not in shared)
    )
    return _contract(out_labels, r, s)


def numeric_contraction(op: OperatorMatrix, a: Label | str, b: Label | str) -> OperatorMatrix:
    """Close the loop from output b into input a: the link product with
    the entangled pair operator on (a, b), taken as one contraction that
    ties b's ket and bra to a's."""
    la, lb = _as_label_tuple(op.labels, [a, b])
    if la.name == lb.name:
        raise ValueError(f"cannot contract label {la.name!r} with itself")
    if la.dimension != lb.dimension:
        raise ValueError(f"{la.name} and {lb.name} must have equal dimensions")
    keep = tuple(c for c in op.labels if c.name not in (la.name, lb.name))
    return _contract(keep, op, alias={(lb.name, side): (la.name, side) for side in ("ket", "bra")})


# --- operator bases -----------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """The product-basis elements a word set spans, as a boolean mask on
    the coefficient tensor indexed (d1², …, dn²) in canonical label order."""

    labels: tuple[Label, ...]
    allowed: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.allowed))


def _gellmann_traceless(d: int) -> list[np.ndarray]:
    """The d^2 - 1 orthonormal traceless Hermitian matrices: symmetric and
    antisymmetric off-diagonal pairs, then the diagonal ladder."""
    out: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            out.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(l):
            m[i, i] = 1
        m[l, l] = -l
        out.append(m / np.sqrt(l * (l + 1)))
    return out


@functools.lru_cache(maxsize=8)
def herm_basis(d: int) -> np.ndarray:
    """Orthonormal basis of Hermitian operators on one d-dimensional factor,
    stacked as a (d², d, d) array: the normalized identity at index 0, then
    the traceless elements.  The array is cached per d and read-only."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    basis = np.stack([np.eye(d, dtype=complex) / np.sqrt(d)] + _gellmann_traceless(d))
    basis.flags.writeable = False
    return basis


def _check_bytes(labels: Sequence[Label]) -> None:
    """Refuse when the dense operators held at once exceed ``BASIS_BYTES``.
    Counts eight side² complex operators.  At 10 qubits (five channels)
    ``verify`` with two trials held at most 3.7 of them in numpy arrays and
    grew peak RSS by 5.0 of them, allocator reuse included; sampling alone
    held 3.7 and grew it by 5.0, and a trial's residuals peaked at 3.1.  A
    trial holds its sample, the sample's reductions to the inputs and one
    output (at most one operator together), a chunk of contractions and
    gaps closed at one operator, and one stack of that chunk: four
    operators and two contractions at most, whatever the pairs."""
    size = 8 * _side(labels) ** 2 * 16
    if size > BASIS_BYTES:
        raise ValueError(f"dense operators need {size} bytes, over the budget of {BASIS_BYTES}")


def _coefficient_shape(labels: Sequence[Label]) -> tuple[int, ...]:
    return tuple(a.dimension**2 for a in labels)


def _to_coefficients(op: OperatorMatrix) -> np.ndarray:
    """Hilbert-Schmidt coefficients of op on the product basis, indexed
    (d1², …, dn²).  After m factors the next label's ket axis is 0 and its
    bra axis n - m; each contraction appends that label's coefficient axis."""
    t = op.tensor_view()
    n = len(op.labels)
    for m, a in enumerate(op.labels):
        t = np.tensordot(t, herm_basis(a.dimension).conj(), axes=([0, n - m], [1, 2]))
    return t


def _to_matrix(labels: tuple[Label, ...], coeffs: np.ndarray) -> OperatorMatrix:
    """The operator with the given product-basis coefficients."""
    for a in labels:  # appends each factor's (ket, bra) axes
        coeffs = np.tensordot(coeffs, herm_basis(a.dimension), axes=(0, 0))
    n, side = len(labels), _side(labels)
    kets_then_bras = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return OperatorMatrix(labels, coeffs.transpose(kets_then_bras).reshape(side, side))


def _blocks(words: WordSet) -> Iterator[tuple[slice, ...]]:
    """Each word's coefficients, in word-set order: the identity index at
    its 1 bits and the traceless indices at its 0 bits, axes in canonical
    label order.  Each label's bit position is looked up once per set."""
    shifts = [words.universe.index(a) for a in canonical_universe(words.universe)]
    for word in words:
        yield tuple(slice(0, 1) if word.bits >> s & 1 else slice(1, None) for s in shifts)


def basis_dimension(x: TypeExpr) -> int:
    """Number of coefficients ``basis_for_words(build_D(x))`` allows,
    counted without enumerating D_x: the three-class count of
    ``strings.word_count`` with each 0 bit weighted by d^2 - 1, so a label
    counts (d^2 - 1, 1, d^2) for (in D, all-ones, all words)."""
    return _class_count(x, lambda a: (a.dimension**2 - 1, 1, a.dimension**2))


def basis_for_words(words: WordSet) -> SubspaceBasis:
    """The subspace spanned by the word set: products of traceless factors
    where a bit is 0 and the normalized identity where it is 1."""
    labels = canonical_universe(words.universe)
    _check_bytes(labels)
    allowed = np.zeros(_coefficient_shape(labels), dtype=bool)
    for block in _blocks(words):
        allowed[block] = True
    return SubspaceBasis(labels, allowed)


def delta_basis(x: TypeExpr) -> SubspaceBasis:
    """Basis of the traceless deviation subspace attached to a type."""
    return basis_for_words(build_D(x))


# --- deterministic-map sampling -------------------------------------------------

def _check_seed(seed: int) -> None:
    if seed < 0:
        # random.Random would silently seed with abs(seed)
        raise ValueError(f"seed must be non-negative, got {seed}")


def _uniform_draws(seed: int, n: int) -> np.ndarray:
    """The first n values of ``2 * random() - 1`` from ``random.Random(seed)``,
    bit for bit, from one ``randbytes`` call.  ``random()`` is
    ``((w0 >> 5) * 2^26 + (w1 >> 6)) * 2^-53`` of two consecutive 32-bit
    words, and ``randbytes`` gives the words in order, little-endian; every
    step is exact in float64.  Python documents that ``random()`` repeats
    for a seed, so a seed gives the same draws on every platform."""
    _check_seed(seed)
    words = np.frombuffer(random.Random(seed).randbytes(8 * n), dtype="<u4").reshape(n, 2)
    high = (words[:, 0] >> 5).astype(np.float64)
    return 2 * ((high * 67108864.0 + (words[:, 1] >> 6)) * (1.0 / 9007199254740992.0)) - 1


def sample_deterministic(x: TypeExpr, seed: int = 0, magnitude: float = 1.0) -> OperatorMatrix:
    """A reproducible deterministic map of type x.

    Starts from the normalization-scalar multiple of the identity, adds a
    seeded random combination of the deviation basis, and halves the
    deviation until the operator is positive: the result is base + D/2^k
    for the first k below 60 with ``eigvalsh(base + D/2^k)[0] >= 0``, and
    base + D/2^60 if there is none.  Magnitude 0 gives the exact
    identity-proportional map.  The ``basis_dimension(x)`` draws, each
    ``2 * random() - 1`` from ``random.Random(seed)`` times magnitude, fill
    the words' blocks in word-set order, each block row-major in canonical
    label order.  They are exact 53-bit fractions on [-1, 1), so a seed
    gives the same sample on every platform; the halving makes their scale
    irrelevant.  A negative seed raises ``ValueError``.

    The base is lambda I, so base + D/2^j has least eigenvalue
    lambda + mu/2^j and spectral norm at most lambda + |D|/2^j, with mu
    and |D| the least eigenvalue and spectral norm of D: one spectrum of
    D predicts every step.  ``eigvalsh`` is backward stable, so both its
    least eigenvalue of base + D/2^j and the prediction lie within a
    modest multiple of 2^-52 (lambda + |D|/2^j) of the exact value.  A
    step whose prediction clears 0 by more than the slack
    1e-9 (lambda + |D|/2^j) is decided without a test: below 0 it is
    halved, above it is returned.  Only a step within the slack runs the
    numeric test, so the result is the k of testing every step, in one
    spectrum unless mu/2^j lands near -lambda.
    """
    analysis = io_partition(x)
    labels = canonical_universe(analysis.elementary)
    _check_bytes(labels)
    lam = float(analysis.lam)
    base = lam * np.eye(_side(labels), dtype=complex)
    if magnitude == 0:
        return OperatorMatrix(labels, base)
    draws = magnitude * _uniform_draws(seed, basis_dimension(x))
    coeffs = np.zeros(_coefficient_shape(labels))
    offset = 0
    for index in _blocks(build_D(x)):
        block = coeffs[index]  # a view into coeffs
        block[...] = draws[offset : offset + block.size].reshape(block.shape)
        offset += block.size
    deviation = _to_matrix(labels, coeffs).data
    spectrum = np.linalg.eigvalsh(deviation)
    mu, norm = float(spectrum[0]), float(max(-spectrum[0], spectrum[-1]))
    # halved in place one step at a time, as the reference loop does:
    # complex division can flip the sign of a zero at its second halving
    for j in range(60):
        least, slack = lam + mu / 2**j, 1e-9 * (lam + norm / 2**j)
        if least > slack:
            return OperatorMatrix(labels, base + deviation)
        if least >= -slack:
            data = base + deviation
            if float(np.linalg.eigvalsh(data)[0]) >= 0:
                return OperatorMatrix(labels, data)
        deviation /= 2
    return OperatorMatrix(labels, base + deviation)


# --- channel and no-signalling residuals -----------------------------------------

def _as_label_tuple(known: Iterable[Label], labels: Iterable[Label | str]) -> tuple[Label, ...]:
    by_name = {a.name: a for a in known}
    out = []
    for a in labels:
        name = a.name if isinstance(a, Label) else a
        if name not in by_name:
            raise ValueError(f"label {name!r} not present")
        out.append(by_name[name])
    return tuple(out)


def _by_shape(matrices: Sequence[np.ndarray], reduce) -> list[float]:
    """``reduce`` of one stack per distinct matrix shape, read back in the
    order given.  numpy's linalg routines run LAPACK on each matrix of a
    stack in turn, so every matrix gets the bits of its own call."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(matrices):
        groups.setdefault(m.shape, []).append(i)
    out = [0.0] * len(matrices)
    for indices in groups.values():
        for i, value in zip(indices, reduce(np.stack([matrices[i] for i in indices]))):
            out[i] = float(value)
    return out


def _least_eigenvalues(matrices: Sequence[np.ndarray]) -> list[float]:
    return _by_shape(matrices, lambda stack: np.linalg.eigvalsh(stack)[:, 0])


def _spectral_norms(matrices: Sequence[np.ndarray]) -> list[float]:
    """``np.linalg.norm(m, 2)`` of each matrix: its largest singular value."""
    return _by_shape(matrices, lambda stack: np.linalg.svd(stack, compute_uv=False).max(axis=-1))


def _marginal_gap(op: OperatorMatrix, outs: Iterable[Label | str]) -> np.ndarray:
    """Tr_outs[op] minus the identity: zero for a channel."""
    marginal = partial_trace(op, outs)
    return marginal.data - np.eye(marginal.side)


def _signalling_gap(reduced: OperatorMatrix, a: Label | str) -> np.ndarray:
    """reduced minus I_a/d_a (x) Tr_a[reduced]: zero when a does not
    signal to what is left of the outputs."""
    (la,) = _as_label_tuple(reduced.labels, [a])
    rest = partial_trace(reduced, [la])
    target = link_product(rest, OperatorMatrix((la,), np.eye(la.dimension) / la.dimension))
    return reduced.data - target.data


# kept for bench/tracing.py, whose LAYERS wraps it by name (test_imports pins it)
def channel_defects(
    op: OperatorMatrix, in_labels: Iterable[Label | str], out_labels: Iterable[Label | str]
) -> tuple[float, float]:
    """(negativity, marginal deviation) for reading op as a channel; the
    in and out labels must split the operator's labels into two disjoint
    parts."""
    ins = _as_label_tuple(op.labels, in_labels)
    outs = _as_label_tuple(op.labels, out_labels)
    in_names, out_names = {a.name for a in ins}, {a.name for a in outs}
    if in_names & out_names or in_names | out_names != {a.name for a in op.labels}:
        raise ValueError("in/out labels must partition the operator's labels")
    (least,) = _least_eigenvalues([op.data])
    (deviation,) = _spectral_norms([_marginal_gap(op, outs)])
    return max(0.0, -least), deviation


# kept for bench/tracing.py, whose LAYERS wraps it by name (test_imports pins it)
def nosignalling_defect(
    op: OperatorMatrix,
    in_labels: Iterable[Label | str],
    out_labels: Iterable[Label | str],
    a: Label | str,
    b: Label | str,
) -> float:
    """Norm of Tr_{out minus b}[R] minus I_a/d_a (x) Tr_{a,out minus b}[R]."""
    ins = _as_label_tuple(op.labels, in_labels)
    outs = _as_label_tuple(op.labels, out_labels)
    la, lb = _as_label_tuple(op.labels, [a, b])
    if la not in ins or lb not in outs:
        raise ValueError("a must be an input label and b an output label")
    reduced = partial_trace(op, [o for o in outs if o.name != lb.name])
    (defect,) = _spectral_norms([_signalling_gap(reduced, la)])
    return defect


def membership_defects(x: TypeExpr, op: OperatorMatrix) -> dict[str, float]:
    """Deviation of op from the deterministic set of x, component by component:
    hermiticity, negativity, identity coefficient, and the residual outside
    the type's deviation subspace."""
    analysis = io_partition(x)
    labels = canonical_universe(analysis.elementary)
    if labels != op.labels:
        raise ValueError("operator labels do not match the type's systems")
    lam = float(analysis.lam)
    (herm,) = _spectral_norms([op.data - op.data.conj().T])
    (least,) = _least_eigenvalues([op.data])
    coeff = float(np.trace(op.data).real) / op.side
    basis = delta_basis(x)
    deviation = OperatorMatrix(labels, op.data - lam * np.eye(op.side))
    residual = float(np.linalg.norm(_to_coefficients(deviation)[~basis.allowed]))
    return {
        "hermiticity": herm,
        "negativity": max(0.0, -least),
        "lambda_deviation": abs(coeff - lam),
        "subspace_residual": residual,
    }


def membership(x: TypeExpr, op: OperatorMatrix, tol: float = 1e-9) -> bool:
    """Is op a deterministic map of type x, to tolerance?"""
    defects = membership_defects(x, op)
    return all(value <= tol for value in defects.values())


# --- explicit violations -----------------------------------------------------------

# kept for bench/tracing.py, whose LAYERS wraps it by name (test_imports pins it)
def violation_witness(x: TypeExpr, a: Label | str, b: Label | str) -> OperatorMatrix:
    """A deterministic map of x whose (a, b) contraction is not a channel.

    Requires the contraction to be combinatorially inadmissible; the map is
    the identity-proportional point plus a small deviation along the witness
    word (diagonal traceless factors diag(1, -1, 0, …) at 0 bits, identities
    at 1 bits).  That operator is diagonal, so its diagonal is built as a
    product of the factors' diagonals and tested for positivity directly,
    with no spectrum and no dense Kronecker products.
    """
    analysis = io_partition(x)
    la, lb = _as_label_tuple(analysis.elementary, [a, b])
    verdict = check_contraction(x, ContractionSpec.of([(la, lb)]))
    if verdict.admissible:
        raise ValueError(f"contraction ({la.name}, {lb.name}) is admissible; nothing to violate")
    if verdict.witness is None:
        raise ValueError(f"no word-level witness for reason {verdict.reason.value!r}")
    return _witness_map(analysis, verdict.witness)


def _witness_map(analysis: IoAnalysis, word: BitWord) -> OperatorMatrix:
    """lambda I plus epsilon times the diagonal product of diag(1, -1, 0, …)
    at the word's 0 bits and identities at its 1 bits, epsilon halved from
    lambda / 2 until the diagonal is non-negative."""
    labels = canonical_universe(analysis.elementary)
    _check_bytes(labels)
    factor = np.ones(1)
    for lbl in labels:
        block = np.ones(lbl.dimension)
        if not word.bit(lbl):
            block[1], block[2:] = -1, 0
        factor = np.kron(factor, block)
    lam = float(analysis.lam)
    epsilon = lam / 2
    while (lam + epsilon * factor).min() < 0:
        epsilon /= 2
    data = np.zeros((_side(labels),) * 2, dtype=complex)
    np.fill_diagonal(data, lam + epsilon * factor)
    return OperatorMatrix(labels, data)


# --- the three-way check -------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    """Outcome of ``verify``: one JSON-ready entry per checked pair, which
    carries ``error`` exactly when that pair failed."""

    lambda_ok: bool
    basis_ok: bool
    basis_size: int
    pairs: tuple[dict, ...]
    failures: int

    def to_json(self) -> dict:
        return {
            "lambda_recursion_matches_closed_form": self.lambda_ok,
            "deviation_basis_dimension_matches": self.basis_ok,
            "pairs": list(self.pairs),
            "failures": self.failures,
        }


# the matrices one pair's residuals are read from: the contracted map, its
# marginal gap, and the signalling gap of the map traced down to the inputs
# and the contracted output
_Job = tuple[np.ndarray, np.ndarray, np.ndarray]


def _job(
    contracted: OperatorMatrix, rest_out: Sequence[str], reduced: OperatorMatrix, a: Label
) -> _Job:
    return contracted.data, _marginal_gap(contracted, rest_out), _signalling_gap(reduced, a)


def _stacked_defects(jobs: Sequence[_Job]) -> list[tuple[float, float, float]]:
    least = _least_eigenvalues([contracted for contracted, _, _ in jobs])
    norms = _spectral_norms([gap for _, *gaps in jobs for gap in gaps])
    return [(max(0.0, -least[i]), norms[2 * i], norms[2 * i + 1]) for i in range(len(jobs))]


def _defects(jobs: Iterable[_Job], side: int) -> list[tuple[float, float, float]]:
    """(negativity, marginal deviation, signalling defect) of each job, as
    ``channel_defects`` of the contracted map and ``nosignalling_defect``
    of the whole map give them.  Jobs are drawn lazily into chunks, each
    closed once its matrices reach the bytes of one side × side operator
    and read with one stacked spectrum or singular-value call per matrix
    shape."""
    out: list[tuple[float, float, float]] = []
    chunk: list[_Job] = []
    size = 0
    for job in jobs:
        chunk.append(job)
        size += sum(m.nbytes for m in job)
        if size >= side * side * 16:
            out += _stacked_defects(chunk)
            chunk, size = [], 0
    return out + _stacked_defects(chunk)


def _witness_jobs(analysis: IoAnalysis, witnessed: Sequence[tuple]) -> Iterator[_Job]:
    """The job of the witness map of each inadmissible (entry, a, b,
    witness word); each map is built when its job is drawn."""
    outputs = analysis.outputs_ordered()
    for _, a, b, word in witnessed:
        witness = _witness_map(analysis, word)
        drop = [s for s in outputs if s.name != b.name]
        contracted = numeric_contraction(witness, a, b)
        yield _job(contracted, [s.name for s in drop], partial_trace(witness, drop), a)


def _sample_jobs(
    sample: OperatorMatrix, sampled: Sequence[tuple], outputs: Sequence[Label]
) -> Iterator[_Job]:
    """The job of each admissible (entry, a, b, rest outputs) on one
    sample.  The sample is traced down to the inputs and b once per output
    b, and every pair that contracts b reads that reduction."""
    reduced: dict[str, OperatorMatrix] = {}
    for _, a, b, rest_out in sampled:
        if b.name not in reduced:
            reduced[b.name] = partial_trace(sample, [s for s in outputs if s.name != b.name])
        yield _job(numeric_contraction(sample, a, b), rest_out, reduced[b.name], a)


def verify(
    x: TypeExpr,
    pairs: Iterable[tuple[Label, Label]] | None = None,
    trials: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
) -> VerifyReport:
    """Check the calculus on x against the numerics.

    The normalization scalar is compared with its closed form and the
    deviation basis with its counted dimension.  Unless trials is 0, each
    pair (default: every input/output pair of equal dimension) is then
    checked three ways: the structural signalling relation against the
    critical-set verdict; for an admissible pair, the channel and
    no-signalling residuals on the samples ``seed + trial``, each drawn
    once for all pairs; for an inadmissible pair, the channel violation of
    the witness map.  A tolerance that is not finite and positive, a
    negative trial count or a negative seed raises ``ValueError``, before
    any pair is tried.

    The residuals are those ``channel_defects`` and ``nosignalling_defect``
    give pair by pair, bit for bit, at less cost: each sample is traced
    down to the inputs and an output once for all pairs that contract
    that output, and the least eigenvalues and spectral norms come from
    stacked LAPACK calls (see ``_defects``).
    """
    if not 0 < tol < float("inf"):  # also refuses nan
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    _check_seed(seed)
    analysis, roles = io_partition(x), _roles(x)
    inputs, outputs = roles.inputs, roles.outputs
    lambda_ok = analysis.lam == Fraction(1, _side(outputs))
    _check_bytes(analysis.elementary)  # before D_x is enumerated
    basis_size = len(basis_for_words(build_D(x)))
    basis_ok = basis_size == basis_dimension(x)
    if trials == 0:
        pairs = []
    elif pairs is None:
        pairs = [(a, b) for a in inputs for b in outputs if a.dimension == b.dimension]
    input_names = {a.name for a in inputs}
    entries: list[dict] = []
    sampled: list[tuple[dict, Label, Label, list[str]]] = []
    witnessed: list[tuple[dict, Label, Label, BitWord]] = []
    for a, b in pairs:
        verdict = check_contraction(x, ContractionSpec.of([(a, b)]))
        entry = {"pair": f"{a.name}:{b.name}", "admissible": verdict.admissible,
                 "reason": verdict.reason.value}
        entries.append(entry)
        if verdict.witness is None and not verdict.admissible:
            # rejected on roles alone (both inputs or both outputs);
            # there is no signalling relation to compare against
            continue
        if a.name not in input_names:
            a, b = b, a
        relation = signals(x, a, b).relation
        entry["relation"] = relation.value
        if verdict.admissible != (relation is Relation.NO_SIGNALLING):
            entry["error"] = "signalling algorithm disagrees with critical-set verdict"
        elif verdict.admissible:
            entry.update(trials=trials, channel_failures=0, worst_channel_residual=0.0,
                         worst_nosignalling_residual=0.0)
            sampled.append((entry, a, b, [s.name for s in verdict.result_out]))
        else:
            witnessed.append((entry, a, b, verdict.witness))
    side = _side(analysis.elementary)
    witness_defects = _defects(_witness_jobs(analysis, witnessed), side)
    for (entry, *_), (negativity, deviation, nosig) in zip(witnessed, witness_defects):
        margin = max(negativity, deviation)
        entry.update(violation_margin=margin, witness_signalling_size=nosig)
        if margin < 10 * tol:
            entry["error"] = "violation margin too small"
    for trial in range(trials if sampled else 0):
        # the sample and its contractions are freed before the next draw
        defects = _defects(_sample_jobs(sample_deterministic(x, seed=seed + trial), sampled, outputs), side)
        for (entry, *_), (negativity, deviation, nosig) in zip(sampled, defects):
            entry["worst_channel_residual"] = max(entry["worst_channel_residual"], negativity, deviation)
            entry["worst_nosignalling_residual"] = max(entry["worst_nosignalling_residual"], nosig)
            if not (negativity <= tol and deviation <= tol):
                entry["channel_failures"] += 1
    for entry, *_ in sampled:
        if entry["channel_failures"]:
            entry["error"] = "sampled contraction is not a channel"
        elif entry["worst_nosignalling_residual"] > tol:
            entry["error"] = "no-signalling residual above tolerance"
    failures = int(not (lambda_ok and basis_ok)) + sum("error" in entry for entry in entries)
    return VerifyReport(lambda_ok, basis_ok, basis_size, tuple(entries), failures)
