"""Scaling exponent of the structural signalling path.

    python3 bench/scaling.py

Times ``signalling_matrix`` (median of three, fresh parse each time) on the
fixed families at growing label counts and fits the slope of
log(time) against log(labels) by least squares.  A polynomial algorithm
shows a bounded slope; word-set enumeration would grow exponentially.
Prints one line per size and one exponent per family.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hotypes as H  # noqa: E402
import model as M  # noqa: E402

FAMILIES = {
    "channels": (lambda names, n: M.channels(names, n // 2), range(6, 19, 2)),
    "left-nested": (M.left_nested, range(8, 23, 2)),
    "right-nested": (M.right_nested, range(8, 33, 4)),
}


def seconds(tree: tuple) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        H.signalling_matrix(H.relabel_unique(H.parse_type(M.text(tree)))[0])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    names = M.Names(random.Random(0))
    for family, (make, sizes) in FAMILIES.items():
        logs_n, logs_t = [], []
        for n in sizes:
            t = seconds(make(names, n))
            print(f"{family:13s} {n:3d} labels {t * 1000:9.1f} ms")
            logs_n.append(math.log(n))
            logs_t.append(math.log(t))
        print(f"{family:13s} exponent {slope(logs_n, logs_t):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
