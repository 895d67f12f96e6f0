"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Confirms the independent closed forms, then runs real operations with one
output corrupted at a time (a wrong contraction verdict, a wrong |D|, an
oracle report with a nonzero ``failures``) and confirms that each is
counted as a failed operation and marks the run incorrect, while the same
operations uncorrupted pass.  Exits 0 when every case behaves so.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import model as M  # noqa: E402
from run import tally  # noqa: E402
from worker import Context, run_ops  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def closed_forms() -> list[str]:
    names = M.Names(random.Random(0))
    errors = []
    for k in range(1, 7):
        t = M.channels(names, k)
        if M.word_count(t) != 3**k - 1 or M.basis_dimension(t) != 13**k - 1:
            errors.append(f"tensor of {k} channels")
    for n in range(1, 16):
        if M.word_count(M.right_nested(names, n)) != 2 ** (n - 1):
            errors.append(f"right-nested chain of {n}")
    return errors


def flip_first_verdict(out: dict) -> dict:
    pair = next(iter(out["sweep"]))
    out["sweep"][pair] = not out["sweep"][pair]
    return out


def miscount_words(out: dict) -> dict:
    out["words"] += 1
    return out


def report_failure(out: dict) -> dict:
    report = json.loads(out["stdout"])
    report["failures"] = 1
    out["stdout"] = json.dumps(report)
    return out


CASES = [
    ("wrong contraction verdict", "decide", "channels-7", flip_first_verdict),
    ("wrong |D|", "decide", "chain-14", miscount_words),
    ("nonzero oracle failures", "oracle", "channels-3", report_failure),
]


def main() -> int:
    import hotypes.cli

    ctx = Context(trace=False)
    ctx.hotypes, ctx.cli = sys.modules["hotypes"], hotypes.cli
    problems = [f"closed form fails: {e}" for e in closed_forms()]
    for label, name, kind, corrupt in CASES:
        workload = WORKLOADS[name]
        ops = [op for op in prepare(workload.plan(0)) if op["kind"] == kind]
        clean = tally(run_ops(workload, ops, ctx))
        broken = replace(workload, run=lambda op, ctx, run=workload.run, f=corrupt: f(run(op, ctx)))
        caught = tally(run_ops(broken, ops, ctx))
        ok = clean == (True, 0) and caught == (False, 1)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: clean {clean}, corrupted {caught}")
        if not ok:
            problems.append(label)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
