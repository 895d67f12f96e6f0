"""A traced `hotypes` process: ``python3 bench/cli_child.py ARGS...`` runs
``hotypes ARGS...`` with the layer tracer installed, and reports the
import time, whether numpy was loaded and the per-layer totals on stderr
after the marker line prefix ``BENCH_TRACE ``."""

from __future__ import annotations

import json
import sys
import time

start = time.perf_counter()
import hotypes.cli  # noqa: E402  (the import is what is timed)

import_ms = (time.perf_counter() - start) * 1000
numpy_imported = int("numpy" in sys.modules)

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    tracer.start(0)
    code = hotypes.cli.main(sys.argv[1:])
    tracer.stop()
    layers = tracer.summary()
    layers.update({"cli.import_ms": import_ms, "cli.numpy_imported": numpy_imported})
    spans = [[span, parent, name, t0, t1] for span, parent, _, name, t0, t1 in tracer.spans]
    sys.stdout.flush()
    print("BENCH_TRACE " + json.dumps({"layers": layers, "spans": spans}), file=sys.stderr)
    sys.exit(code)
