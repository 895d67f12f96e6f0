"""Spans around the calls into each hotypes layer, recorded from the
benchmark's side.

``Tracer.install`` replaces each traced public function with a wrapper in
every hotypes module namespace that holds it, so calls between modules
(``signalling`` calling ``type_core.k_value``) and recursive calls
(``build_D`` building its subterms) pass through the wrapper too.  The
wrapper calls the original object, so ``lru_cache`` behaviour is unchanged.
Spans are recorded only between ``start`` and ``stop``, i.e. inside timed
operations, and stay in memory until the worker writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> traced public functions
LAYERS = {
    "type_core": ["parse_type", "relabel_unique", "io_partition", "k_value", "minimal_enclosing"],
    "signalling": ["signals", "signalling_matrix"],
    "strings": ["build_D", "concat", "critical_set_multi"],
    "admissibility": ["check_inclusion", "check_equivalence", "check_contraction", "check_composition"],
    "oracle": [
        "basis_for_words",
        "sample_deterministic",
        "numeric_contraction",
        "channel_defects",
        "nosignalling_defect",
        "violation_witness",
    ],
}


def _words(result) -> dict[str, int]:
    return {"words": len(result)}


def _basis(result) -> dict[str, int]:
    side = 1
    for label in result.labels:
        side *= label.dimension
    return {"elements": len(result), "bytes": len(result) * side * side * 16}


COUNTERS = {
    "strings.build_D": _words,
    "strings.concat": _words,
    "strings.critical_set_multi": _words,
    "oracle.basis_for_words": _basis,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._caches: dict[str, object] = {}  # name -> cache_info of cached functions
        self._before: dict[str, object] = {}

    def start(self, op: int) -> None:
        """Record spans of operation ``op`` until ``stop``."""
        self._before = {name: info() for name, info in self._caches.items()}
        self.op, self.active = op, True

    def stop(self) -> None:
        self.active = False
        for name, info in self._caches.items():
            now, before = info(), self._before[name]
            self.counts[name + ".cache_hits"] += now.hits - before.hits
            self.counts[name + ".cache_misses"] += now.misses - before.misses

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # reserve the id; filled in on return
            frame = [span, 0]
            self._stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.self_ns[name] += end - start - frame[1]
                self.counts[name + ".calls"] += 1
                self.spans[span] = (span, parent, self.op, name, start, end)
            # a cached function counts only what it built, not what it reused
            built = cache_info is None or cache_info().misses > misses
            if counter is not None and built:
                for key, value in counter(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        if cache_info:
            traced.cache_info = cache_info
            self._caches[name] = cache_info
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a hotypes module binds it."""
        wrappers = {}
        for module, functions in LAYERS.items():
            owner = sys.modules[f"hotypes.{module}"]
            for function in functions:
                original = getattr(owner, function)
                wrappers[id(original)] = self._wrap(f"{module}.{function}", original)
        for name, module in list(sys.modules.items()):
            if name == "hotypes" or name.startswith("hotypes."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

    def summary(self) -> dict[str, float]:
        """Self milliseconds and counters, summed over everything traced,
        and the size each cache has now."""
        out = {f"{name}.ms": ns / 1e6 for name, ns in self.self_ns.items()}
        out.update(self.counts)
        for name, info in self._caches.items():
            out[name + ".cache_size"] = info().currsize
        return out
