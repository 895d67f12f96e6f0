"""The four workloads: what one round runs, how one operation is timed, and
how its output is checked against ``model``.

A workload is three functions.  ``plan(seed)`` builds the round's fixed
list of operations from the seed alone; only the ``text`` of a type ever
reaches hotypes.  ``run(op, ctx)`` is the timed part.
``check(op, out, ctx)`` runs after the clock stops and returns a list of
errors; an operation with any error counts as failed.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import random
from dataclasses import dataclass
from typing import Callable

import model as M

# --- signal: structural signalling matrices, no word sets -----------------------
#
# The fixed families outnumber the random types, and every random 12-label
# type costs less than the cheapest fixed one, so the median operation is a
# fixed family whatever the seed draws.

def plan_signal(seed: int) -> list[dict]:
    rng = random.Random(f"signal:{seed}")
    names = M.Names(rng)
    ops = [
        {"kind": "channels-7", "tree": M.channels(names, 7)},
        {"kind": "channels-8", "tree": M.channels(names, 8)},
        {"kind": "left-16", "tree": M.left_nested(names, 16)},
        {"kind": "left-18", "tree": M.left_nested(names, 18)},
        {"kind": "right-24", "tree": M.right_nested(names, 24)},
    ]
    ops += [{"kind": "random-12", "tree": M.balanced_random_type(rng, names, 12)} for _ in range(3)]
    return ops


def run_signal(op: dict, ctx) -> dict:
    H = ctx.hotypes
    before = H.build_D.cache_info()
    x, renamed = H.relabel_unique(H.parse_type(op["text"]))
    rows = H.signalling_matrix(x)
    after = H.build_D.cache_info()
    built = after.hits + after.misses - before.hits - before.misses
    return {"renamed": renamed, "rows": rows, "word_sets_built": built}


def _closed_form_rows(op: dict) -> dict[tuple[str, str], str] | None:
    """Rows known without any derivation: in a tensor of channels A_i fully
    signals to B_i only; in a right-nested chain every input fully signals
    to the last output."""
    t, kind = op["tree"], op["kind"]
    names = M.labels(t)
    if kind.startswith("channels"):
        ins, outs = names[0::2], names[1::2]
        return {(a, b): "full-signalling" if i == j else "no-signalling"
                for i, a in enumerate(ins) for j, b in enumerate(outs)}
    if kind.startswith("right"):
        return {(a, names[-1]): "full-signalling" for a in names[:-1]}
    return None


def check_signal(op: dict, out: dict, ctx) -> list[str]:
    errors = []
    if out["renamed"]:
        errors.append(f"fresh labels were renamed: {out['renamed']}")
    got = {(r.source.name, r.target.name): r.relation.value for r in out["rows"]}
    order = [(r.source.name, r.target.name) for r in out["rows"]]
    want = M.relations(op["tree"])
    if order != list(want):
        errors.append("signalling rows are not inputs x outputs in textual order")
    if got != want:
        errors.append("signalling matrix differs from the structural rule")
    closed = _closed_form_rows(op)
    if closed is not None and got != closed:
        errors.append("signalling matrix differs from the closed-form rows")
    if out["word_sets_built"]:
        errors.append(f"structural path built {out['word_sets_built']} word sets")
    return errors


# --- decide: a cold word-set query, then every single-pair contraction ------------

def _rewrite(rng, t: tuple) -> tuple | None:
    """An equivalent type: one randomly chosen node rewritten by a known
    identity (x*y = y*x, x->(y->z) = (x*y)->z, ~(x->y) = x*~y), or None
    when no node matches."""
    sites = []

    def visit(node, rebuild):
        kind = node[0]
        if kind == "*":
            sites.append(lambda: rebuild(M.tensor(node[2], node[1])))
        if kind == "->" and node[2][0] == "->":
            sites.append(lambda: rebuild(M.arrow(M.tensor(node[1], node[2][1]), node[2][2])))
        if kind == "~" and node[1][0] == "->":
            sites.append(lambda: rebuild(M.tensor(node[1][1], M.dual(node[1][2]))))
        for i in range(1, len(node)):
            if node[i][0] not in ("lab", "I"):
                visit(node[i], lambda new, i=i: rebuild(node[:i] + (new,) + node[i + 1:]))

    visit(t, lambda new: new)
    return rng.choice(sites)() if sites else None


def plan_decide(seed: int) -> list[dict]:
    """Six fixed 14-label shapes with fresh names, whose known answers are
    the identities of the type algebra, and two cheaper random types.  The
    fixed shapes outnumber the random ones and cost more, so the median
    operation does not depend on what the seed draws."""
    rng = random.Random(f"decide:{seed}")
    names = M.Names(rng)

    def channels(k):
        return M.channels(names, k)

    parts = [M.arrow(M.lab(names()), M.lab(names())) for _ in range(7)]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    chain = [M.lab(names()) for _ in range(14)]
    rest = M.chain(chain[2:][::-1], lambda a, b: M.arrow(b, a))
    p, q, r = channels(2), channels(2), channels(3)
    dp, dq, dz = channels(2), channels(2), channels(3)
    a, b, c, d = (M.lab(names()) for _ in range(4))
    z = channels(5)
    narrow = M.tensor(M.arrow(M.arrow(a, b), M.arrow(c, d)), z)
    wide = M.tensor(M.arrow(M.tensor(c, b), M.tensor(a, d)), z)
    while True:
        x = M.balanced_random_type(rng, names, 10)
        y = _rewrite(rng, x)
        if y is not None:
            break
    while True:  # one output of the first type feeds one input of the second
        left, right = M.random_type(rng, names, 6), M.random_type(rng, names, 4)
        outs, ins = M.io(left)[1], M.io(right)[0]
        if outs and ins:
            right = M.rename(right, {rng.choice(ins): rng.choice(outs)})
            break
    ops = [
        ("equivalence", "channels-7", M.chain(parts, M.tensor), M.chain(shuffled, M.tensor)),
        ("equivalence", "chain-14", M.arrow(chain[0], M.arrow(chain[1], rest)),
         M.arrow(M.tensor(chain[0], chain[1]), rest)),
        ("equivalence", "curry-14", M.arrow(p, M.arrow(q, r)), M.arrow(M.tensor(p, q), r)),
        ("equivalence", "dual-14", M.tensor(M.dual(M.arrow(dp, dq)), dz),
         M.tensor(M.tensor(dp, M.dual(dq)), dz)),
        ("inclusion", "sandwich-14", narrow, wide),
        ("inclusion", "sandwich-reversed-14", wide, narrow),
        ("equivalence", "random-10", x, y),
        ("composition", "compose-6+4", left, right),
    ]
    return [{"kind": kind, "query": query, "tree": x, "other": y} for query, kind, x, y in ops]


def run_decide(op: dict, ctx) -> dict:
    H = ctx.hotypes
    x, _ = H.relabel_unique(H.parse_type(op["text"]))
    y, _ = H.relabel_unique(H.parse_type(op["other_text"]))
    query = {
        "equivalence": H.check_equivalence,
        "inclusion": H.check_inclusion,
        "composition": H.check_composition,
    }[op["query"]]
    verdict = query(x, y)
    analysis = H.io_partition(x)
    sweep = {
        (a.name, b.name): H.check_contraction(x, H.ContractionSpec.of([(a, b)])).admissible
        for a in analysis.inputs_ordered()
        for b in analysis.outputs_ordered()
    }
    return {"verdict": verdict, "sweep": sweep, "words": len(H.build_D(x))}


def _expected_composition(x: tuple, y: tuple) -> dict:
    """Composition along the one shared label is the contraction of its two
    copies on x * y', admissible exactly when they do not signal."""
    (shared,) = set(M.labels(x)) & set(M.labels(y))
    primed = shared + "p0"
    tensor = M.tensor(x, M.rename(y, {shared: primed}))
    admissible = M.relation(tensor, primed, shared) == "no-signalling"
    (ix, ox), (iy, oy) = M.io(x), M.io(y)
    return {
        "admissible": admissible,
        "result_in": [a for a in ix + iy if a != shared] if admissible else None,
        "result_out": [a for a in ox + oy if a != shared] if admissible else None,
    }


def check_decide(op: dict, out: dict, ctx) -> list[str]:
    errors = []
    verdict = out["verdict"].to_json()
    if op["query"] == "composition":
        want = _expected_composition(op["tree"], op["other"])
        got = {key: verdict[key] for key in want}
    elif op["kind"].startswith("sandwich-reversed"):
        want = {"admissible": False, "reason": "not-included", "has_witness": True}
        got = {"admissible": verdict["admissible"], "reason": verdict["reason"],
               "has_witness": verdict["witness"] is not None}
    else:
        want = {"admissible": True, "reason": "ok"}
        got = {key: verdict[key] for key in want}
    if got != want:
        errors.append(f"{op['query']} verdict {got} != {want}")
    expected = {pair: rel == "no-signalling" for pair, rel in M.relations(op["tree"]).items()}
    if out["sweep"] != expected:
        wrong = sorted(p for p in expected if out["sweep"].get(p) != expected[p])
        errors.append(f"contraction verdicts disagree with the signalling rule on {wrong[:4]}")
    size = out["words"]
    closed = {"channels-7": 3**7 - 1, "chain-14": 2**13}.get(op["kind"], M.word_count(op["tree"]))
    if size != closed or size != M.word_count(op["tree"]):
        errors.append(f"|D| = {size}, expected {closed}")
    return errors


# --- oracle: in-process `hotypes --json oracle verify` on 6-qubit types ------------

ORACLE_TRIALS = 2


def plan_oracle(seed: int) -> list[dict]:
    rng = random.Random(f"oracle:{seed}")
    names = M.Names(rng)
    channel = M.arrow(M.lab(names()), M.lab(names()))
    pair = [M.supermap(names), channel]
    rng.shuffle(pair)
    return [
        {"kind": "channels-3", "tree": M.channels(names, 3), "seed": rng.randrange(10**6)},
        {"kind": "supermap+channel", "tree": M.tensor(*pair), "seed": rng.randrange(10**6)},
    ]


def run_oracle(op: dict, ctx) -> dict:
    argv = ["--json", "oracle", "verify", op["text"],
            "--trials", str(ORACLE_TRIALS), "--seed", str(op["seed"])]
    buffer = _io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ctx.cli.main(argv)
    return {"code": code, "stdout": buffer.getvalue()}


def check_oracle(op: dict, out: dict, ctx) -> list[str]:
    report = json.loads(out["stdout"])
    ctx.command_ms += report["timing_ms"]
    errors = []
    if out["code"] != 0 or report["failures"] != 0:
        errors.append(f"oracle verify exit {out['code']} with {report['failures']} failures")
    if not (report["lambda_recursion_matches_closed_form"] and report["deviation_basis_dimension_matches"]):
        errors.append("oracle verify rejected lambda or the basis dimension")
    want = {f"{a}:{b}": rel for (a, b), rel in M.relations(op["tree"]).items()}
    got = {p["pair"]: p.get("relation") for p in report["pairs"]}
    if got != want:
        errors.append("oracle verify pairs or relations differ from the structural rule")
    for p in report["pairs"]:
        if p["admissible"] != (want.get(p["pair"]) == "no-signalling"):
            errors.append(f"pair {p['pair']} admissible={p['admissible']}")
        if p["admissible"] and p["channel_failures"]:
            errors.append(f"pair {p['pair']} failed {p['channel_failures']} channel checks")
    H = ctx.hotypes
    x, _ = H.relabel_unique(H.parse_type(op["text"]))
    size = len(H.oracle.basis_for_words(H.build_D(x)))
    closed = 13**3 - 1 if op["kind"] == "channels-3" else M.basis_dimension(op["tree"])
    if size != closed or size != M.basis_dimension(op["tree"]):
        errors.append(f"deviation basis has {size} elements, expected {closed}")
    return errors


# --- cli: one `hotypes --json ...` process per operation ---------------------------

def plan_cli(seed: int) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    names = M.Names(rng)

    def block(n):
        return M.random_type(rng, names, n)

    def with_io(n):
        while True:
            t = block(n)
            ins, outs = M.io(t)
            if ins and outs:
                return t

    a, b, c, d = (M.lab(names()) for _ in range(4))
    small = M.arrow(M.arrow(a, b), M.arrow(c, d))
    wide = M.arrow(M.tensor(c, b), M.tensor(a, d))
    p, q, r = block(2), block(3), block(3)
    contracted = with_io(8)
    ins, outs = M.io(contracted)
    x = with_io(4)
    y = with_io(4)  # one output of x feeds one input of y
    y = M.rename(y, {rng.choice(M.io(y)[0]): rng.choice(M.io(x)[1])})
    e, f = block(4), block(4)
    return [
        {"kind": "analyze", "args": ["analyze"], "trees": [with_io(8)]},
        {"kind": "inclusion", "args": ["check", "inclusion"], "trees": [small, wide]},
        {"kind": "inclusion-reversed", "args": ["check", "inclusion"], "trees": [wide, small]},
        {"kind": "equivalence-curry", "args": ["check", "equivalence"],
         "trees": [M.arrow(p, M.arrow(q, r)), M.arrow(M.tensor(p, q), r)]},
        {"kind": "equivalence-dual", "args": ["check", "equivalence"],
         "trees": [M.dual(M.arrow(e, f)), M.tensor(e, M.dual(f))]},
        {"kind": "contraction", "args": ["check", "contraction"], "trees": [contracted],
         "pair": (rng.choice(ins), rng.choice(outs))},
        {"kind": "composition", "args": ["check", "composition"], "trees": [x, y]},
        {"kind": "signalling", "args": ["signalling"], "trees": [with_io(8)]},
    ]


def run_cli(op: dict, ctx) -> dict:
    return ctx.spawn_cli(op["argv"])


def check_cli(op: dict, out: dict, ctx) -> list[str]:
    try:
        report = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return [f"exit {out['code']} without a JSON report: {out['stderr'][-200:]}"]
    ctx.command_ms += report["timing_ms"]
    kind, trees = op["kind"], op["trees"]
    if kind == "analyze":
        t = trees[0]
        ins, outs = M.io(t)
        want = {"code": 0, "inputs": ins, "outputs": outs, "lambda": str(M.lam(t)),
                "word_count": M.word_count(t)}
        got = {"code": out["code"], **{key: report[key] for key in want if key != "code"}}
    elif kind == "signalling":
        want = {"code": 0, "rows": M.relations(trees[0])}
        got = {"code": out["code"],
               "rows": {(r["from"], r["to"]): r["relation"] for r in report["rows"]}}
    else:
        if kind == "contraction":
            admissible = M.relation(trees[0], *op["pair"]) == "no-signalling"
            reason = "ok" if admissible else "critical-set-hit"
        elif kind == "composition":
            admissible = _expected_composition(*trees)["admissible"]
            reason = "ok" if admissible else "critical-set-hit"
        elif kind == "inclusion-reversed":
            admissible, reason = False, "not-included"
        else:
            admissible, reason = True, "ok"
        # README: exit 0 when admissible, 1 when not; a rejection by word
        # carries a witness, a pass carries the resulting channel type
        want = {"code": 0 if admissible else 1, "admissible": admissible, "reason": reason,
                "witness": not admissible, "result": admissible}
        v = report["verdict"]
        got = {"code": out["code"], "admissible": v["admissible"], "reason": v["reason"],
               "witness": v["witness"] is not None, "result": v["result_in"] is not None}
    return [] if got == want else [f"{kind}: {got} != {want}"]


# --- registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    plan: Callable[[int], list[dict]]
    run: Callable
    check: Callable
    in_process: bool = True


WORKLOADS = {
    "signal": Workload(plan_signal, run_signal, check_signal),
    "decide": Workload(plan_decide, run_decide, check_decide),
    "oracle": Workload(plan_oracle, run_oracle, check_oracle),
    "cli": Workload(plan_cli, run_cli, check_cli, in_process=False),
}


def prepare(ops: list[dict]) -> list[dict]:
    """Render the texts and command lines hotypes receives."""
    for op in ops:
        if "tree" in op:
            op["text"] = M.text(op["tree"])
        if "other" in op:
            op["other_text"] = M.text(op["other"])
        if "trees" in op:
            op["argv"] = ["--json"] + op["args"] + [M.text(t) for t in op["trees"]]
            if "pair" in op:
                op["argv"] += ["--pairs", ":".join(op["pair"])]
    return ops
