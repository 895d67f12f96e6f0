"""Benchmark of hotypes, one workload per invocation.

    python3 bench/run.py --workload signal|decide|oracle|cli --seed N \
        --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh worker process, until
S seconds have passed, then prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The full record of the run goes to
bench/results/<workload>-seed<N>[-trace].json, and with tracing the spans to
bench/results/<workload>-seed<N>.spans.jsonl.  Run it from the repository
root; hotypes is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
PER_PROCESS = ("cli.import_ms", "cli.numpy_imported")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # cache bytecode next to the sources, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # one BLAS thread: on two CPUs more threads were slower and noisier
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_round(workload: str, seed: int, trace: bool, spans: Path) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(trace)), str(spans)],
        capture_output=True,
        text=True,
        env=worker_env(),
        cwd=ROOT,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_op"] - spawned
    return report


def end_to_end(rounds: list[dict], ops: list[dict]) -> dict[str, float]:
    seconds = sum(op["ms"] for op in ops) / 1000
    return {
        "ops_per_s": len(ops) / seconds,
        "latency_p50_ms": statistics.median(op["ms"] for op in ops),
        "peak_rss_mib": max(r["peak_rss_kib"] for r in rounds) / 1024,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }


def per_layer(rounds: list[dict], names: list[str]) -> dict[str, float]:
    """Self times and counters per operation; import figures and the cache
    size a process ends with, per hotypes process."""
    total_ops = sum(len(r["ops"]) for r in rounds)
    processes = sum(r["processes"] for r in rounds)
    out = {}
    for name in names:
        total = sum(r["layers"].get(name, 0) for r in rounds)
        per_process = name.endswith(".cache_size") or name in PER_PROCESS
        out[name] = total / (processes if per_process else total_ops)
    return out


def tally(ops: list[dict]) -> tuple[bool, int]:
    """(correct, failed): an operation that raised or whose output failed a
    check failed; the run is incorrect when an output was found wrong."""
    failed = [op for op in ops if op["raised"] or op["errors"]]
    for op in failed[:5]:
        print(f"failed {op['kind']}: {op['raised'] or '; '.join(op['errors'])}", file=sys.stderr)
    return not any(op["errors"] for op in ops), len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hotypes" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: no hotypes source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans = RESULTS / f"{stem}.spans.jsonl"
    if args.trace:
        spans.write_text("")
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        try:
            rounds.append(run_round(args.workload, args.seed, bool(args.trace), spans))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    ops = [op for r in rounds for op in r["ops"]]
    correct, failed = tally(ops)
    if args.trace:
        values = per_layer(rounds, [m["name"] for m in metrics])
    else:
        values = end_to_end(rounds, ops)
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  end_to_end=end_to_end(rounds, ops), rounds=rounds)
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{stem}{suffix}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
