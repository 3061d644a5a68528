"""Span tracer for the treegmf command-line program.

    PYTHONPATH=src python3 perfbench/tracer.py PREFIX -- verify --n 8 ...

runs ``treegmf.cli.main(ARGS)`` after replacing each function named in
SPANS, COUNTERS and POOL, at the module attribute its caller looks up, with a
wrapper.  A span wrapper records (name, parent span, start, end); a counter
wrapper only counts calls.  Spans stay in memory, and each process writes one
JSON record to ``PREFIX.<pid>.json`` when it exits, so the timed work does no
extra I/O.  Forked pool workers inherit the wrappers and write their own
record through a multiprocessing finalizer.  Writing a record is itself a
span (trace.flush), because a worker's flush runs inside the pool block.

A target that cannot be found is recorded as absent rather than raising, so
when a later change renames or moves a function the layer shows up as
missing instead of breaking the benchmark.

The analysis half (self_times, layer_metrics) reads those records; it does
not import treegmf.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from functools import wraps

# Span name -> attribute paths as the callers look them up.  One function
# can be reached under several names (cli imports it from gmf, say); each
# name gets its own wrapper and every call passes through exactly one.
SPANS = {
    "trees.enumerate": ("treegmf.cli.enumerate_free_trees", "treegmf.gts.enumerate_free_trees"),
    "gts.pairs": ("treegmf.cli.proper_gts_pairs",),
    "gmf.profile": ("treegmf.cli.matching_profile", "treegmf.gmf.matching_profile"),
    "symfunc.expand": ("treegmf.cli.power_expansion",),
    "symfunc.classvalues": (
        "treegmf.cli.involution_class_values",
        "treegmf.gmf.involution_class_values",
    ),
    "gmf.assembly": (
        "treegmf.cli.coefficients_from_profile",
        "treegmf.gmf.coefficients_from_profile",
    ),
    "gmf.monotone": (
        "treegmf.cli.monotone_report_from_coeffs",
        "treegmf.gmf.monotone_report_from_coeffs",
    ),
    "gmf.air": (
        "treegmf.cli.air_monotone_report_from_tables",
        "treegmf.gmf.air_monotone_report_from_tables",
    ),
    "cli.sweep": ("treegmf.cli.run_sweep",),
    "cli.command": ("treegmf.cli.cmd_verify", "treegmf.cli.cmd_poset", "treegmf.cli.cmd_gmf"),
}
COUNTERS = {
    "trees.canonical": (
        "treegmf.trees.ahu_canonical",
        "treegmf.gts.ahu_canonical",
        "treegmf.gmf.ahu_canonical",
    ),
    "gts.shift_test": ("treegmf.gts.shift_is_proper",),
    "gts.shift": ("treegmf.gts.gts_shift",),
}
# The pool is patched before treegmf is imported, so a later
# `from concurrent.futures import ProcessPoolExecutor` also sees it.
POOL = "concurrent.futures.ProcessPoolExecutor"
POOL_SPAN = "cli.pool"
FLUSH_SPAN = "trace.flush"
MATCHING_COUNTS = "treegmf.trees.matching_counts"

# Per-layer seconds are the summed self time of these spans.
LAYER_SECONDS = {
    "trees.enumerate_s": ("trees.enumerate",),
    "gts.pairs_s": ("gts.pairs",),
    "gmf.profile_s": ("gmf.profile",),
    "symfunc.gamma_s": ("symfunc.expand", "symfunc.classvalues"),
    "gmf.assembly_s": ("gmf.assembly",),
    "gmf.cone_s": ("gmf.monotone", "gmf.air"),
    "cli.sweep_s": ("cli.sweep",),
    "cli.report_s": ("cli.command",),
    "cli.pool_s": (POOL_SPAN,),
}


def _resolve(path: str):
    """(owner object, attribute name) for a dotted path, or None."""
    module_path, _, attr = path.rpartition(".")
    parts = module_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name, None)
        if owner is not None and hasattr(owner, attr):
            return owner, attr
        return None
    return None


class Tracer:
    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.absent: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gammas: list[list[str]] = []
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.profiled: set = set()

    def _process(self) -> None:
        """In a forked worker, drop what the parent recorded and arrange for
        this process's own record to be written when it exits."""
        if os.getpid() != self.pid:
            self._reset()
            from multiprocessing import util

            util.Finalize(None, self.flush, exitpriority=100)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        self._process()
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "symfunc.classvalues":
            self.gammas.append([str(v) for v in result])
        elif name in ("gmf.monotone", "gmf.air"):
            self.counts[name] += 1
            if not result.ok:
                self.counts["gmf.cone_failures"] += 1
        elif name == "gmf.assembly":
            self.counts[name] += 1
        elif name == "gmf.profile" and args:
            self.profiled.add(args[0])
        elif name in ("trees.enumerate", "gts.pairs"):
            self.sizes[name].append(len(result))

    def span(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            self._observe(name, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._process()
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._trace_idx = tracer._enter(POOL_SPAN)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._exit(self._trace_idx)

        return TracedPool

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        found = _resolve(POOL)
        if found is None:
            self.absent.append(POOL)
        else:
            owner, attr = found
            setattr(owner, attr, self.pool_class(getattr(owner, attr)))
        for kinds, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for name, paths in kinds.items():
                for path in paths:
                    found = _resolve(path)
                    if found is None:
                        self.absent.append(path)
                        continue
                    owner, attr = found
                    setattr(owner, attr, make(name, getattr(owner, attr)))

    # -- output ------------------------------------------------------------

    def _profile_terms(self):
        """Matchings visited by the profiled trees, counted after the timed
        work by the library's own matching counter."""
        if not self.profiled:
            return 0
        found = _resolve(MATCHING_COUNTS)
        if found is None:
            return None
        count = getattr(*found)
        return sum(sum(count(tree).values()) for tree in self.profiled)

    def flush(self) -> None:
        start = time.perf_counter()
        profile_terms = self._profile_terms()
        self.spans.append([FLUSH_SPAN, -1, start, time.perf_counter()])
        record = {
            "pid": self.pid,
            "absent": self.absent,
            "spans": self.spans,
            "counts": dict(self.counts),
            "gammas": self.gammas,
            "sizes": dict(self.sizes),
            "profile_terms": profile_terms,
        }
        with open(f"{self.prefix}.{self.pid}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans, foreign=()) -> list[tuple[str, float]]:
    """(name, self time) per span: its duration minus the part of it that
    its child spans cover.  A pool span also loses the part that `foreign`,
    the top-level spans of other processes (its workers), covers."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    foreign = list(foreign)
    return [
        (name, (end - start) - covered_length(
            children[i] + foreign if name == POOL_SPAN else children[i], start, end))
        for i, (name, _, start, end) in enumerate(spans)
    ]


def load_records(paths) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics summed over every process record of a traced run,
    and the sorted list of targets that were absent.  perf_counter is one
    system-wide clock, so spans of different processes compare; the ops of
    a round run one after another, so another op's spans never fall inside
    a pool span."""
    seconds = defaultdict(float)
    counts = defaultdict(int)
    gammas = []
    sizes = defaultdict(list)
    absent = set()
    profile_terms = 0
    for rec in records:
        absent.update(rec["absent"])
        foreign = [(start, end) for other in records if other is not rec
                   for _, parent, start, end in other["spans"] if parent < 0]
        for name, t in self_times(rec["spans"], foreign):
            seconds[name] += t
        for name, c in rec["counts"].items():
            counts[name] += c
        gammas.extend(tuple(g) for g in rec["gammas"])
        for name, values in rec["sizes"].items():
            sizes[name].extend(values)
        if rec["profile_terms"] is None:
            absent.add(MATCHING_COUNTS)
        else:
            profile_terms += rec["profile_terms"]

    out = {metric: sum(seconds[s] for s in names) for metric, names in LAYER_SECONDS.items()}
    out["trees.canonical_calls"] = counts["trees.canonical"]
    out["trees.count"] = max(sizes["trees.enumerate"], default=0)
    out["gts.shift_tests"] = counts["gts.shift_test"]
    out["gts.pairs"] = max(sizes["gts.pairs"], default=0)
    out["gts.pair_yield"] = out["gts.pairs"] / counts["gts.shift"] if counts["gts.shift"] else 0.0
    out["gmf.profile_terms"] = profile_terms
    out["symfunc.gammas"] = len(gammas)
    out["symfunc.gamma_distinct"] = len(set(gammas))
    out["symfunc.gamma_zero"] = sum(1 for g in gammas if all(v == "0" for v in g))
    out["gmf.assembly_calls"] = counts["gmf.assembly"]
    out["gmf.monotone_checks"] = counts["gmf.monotone"]
    out["gmf.air_checks"] = counts["gmf.air"]
    out["gmf.cone_failures"] = counts["gmf.cone_failures"]
    return out, sorted(absent)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py PREFIX -- TREEGMF-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    tracer.install()
    atexit.register(tracer.flush)
    import treegmf.cli

    return treegmf.cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
