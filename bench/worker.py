"""One round of a workload in a fresh process.

    python3 bench/worker.py WORKLOAD SEED TRACE SPANS_FILE

Runs the round's fixed operations once, timing each and checking each after
its clock stops, and prints one JSON object as the last line of stdout.
``first_op`` is the CLOCK_MONOTONIC reading when the first operation
started; the parent subtracts its own reading at spawn to get set-up time.
With TRACE=1, spans are appended to SPANS_FILE as JSON lines
``[op, span, parent, name, start_ns, end_ns]``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, prepare

BENCH = Path(__file__).resolve().parent
TRACE_MARK = "BENCH_TRACE "


class Context:
    """What the operations of one round share: the imported package, the
    CLI launcher and what the checks collect for the trace."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.hotypes = None
        self.cli = None
        self.command_ms = 0.0
        self.layers: dict[str, float] = {}
        self.spans: list[list] = []
        self.op = 0

    def spawn_cli(self, argv: list[str]) -> dict:
        """One `hotypes` process; with tracing, through bench/cli_child.py."""
        if self.trace:
            command = [sys.executable, str(BENCH / "cli_child.py")] + argv
        else:
            command = [sys.executable, "-m", "hotypes.cli"] + argv
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_MARK):
                traced = json.loads(line[len(TRACE_MARK):])
                for key, value in traced["layers"].items():
                    self.layers[key] = self.layers.get(key, 0) + value
                self.spans += [[self.op] + span for span in traced["spans"]]
        return out


def run_ops(workload, ops: list[dict], ctx: Context, tracer=None) -> list[dict]:
    """Run and check each operation, recording its time, the exception it
    raised, if any, and the errors its check found."""
    results = []
    for index, op in enumerate(ops):
        ctx.op = index
        if tracer:
            tracer.start(index)
        start = time.perf_counter()
        try:
            out, raised = workload.run(op, ctx), None
        except Exception as exc:  # an operation that raises counts as failed
            out, raised = None, repr(exc)
        ms = (time.perf_counter() - start) * 1000
        if tracer:
            tracer.stop()
        errors = []
        if out is not None:
            try:
                errors = workload.check(op, out, ctx)
            except Exception as exc:
                errors = [f"check raised {exc!r}"]
        results.append({"kind": op["kind"], "ms": ms, "raised": raised, "errors": errors})
    return results


def main(argv: list[str]) -> int:
    name, seed, trace, spans_file = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    workload = WORKLOADS[name]
    ctx = Context(trace)
    tracer = None
    processes = 0
    if workload.in_process:
        start = time.perf_counter()
        import hotypes.cli

        ctx.layers["cli.import_ms"] = (time.perf_counter() - start) * 1000
        ctx.layers["cli.numpy_imported"] = int("numpy" in sys.modules)
        processes = 1
        ctx.hotypes, ctx.cli = sys.modules["hotypes"], hotypes.cli
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
    ops = prepare(workload.plan(seed))
    if not workload.in_process:
        # compiles the bytecode cache and warms the page cache, as any
        # earlier run of the command would have
        warm = subprocess.run([sys.executable, "-m", "hotypes.cli", "--json", "analyze", "(A->B)"],
                              capture_output=True, text=True, timeout=120)
        if warm.returncode != 0:
            print(warm.stderr, file=sys.stderr)
            return 1
        processes = len(ops)

    first_op = time.monotonic()
    results = run_ops(workload, ops, ctx, tracer)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    report = {
        "first_op": first_op,
        "ops": results,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
    }
    if trace:
        layers = ctx.layers
        if tracer:
            layers.update(tracer.summary())
            ctx.spans += [[op, span, parent, name, start, end]
                          for span, parent, op, name, start, end in tracer.spans]
        layers["cli.command_ms"] = ctx.command_ms
        report["layers"] = layers
        report["processes"] = processes
        with open(spans_file, "a", encoding="utf-8") as handle:
            for span in ctx.spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
