"""Spans around calls into the package's layers, recorded from outside.

Each public function is wrapped where its caller looks it up (a module
global), so nothing under ``src/`` changes. A span records its name, start,
end, thread and parent; work counters ride along on the span. Spans stay in
memory until the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover. Calls made from worker threads take the innermost open
span of the thread that installed the tracer as parent, so a parallel
section's layers are summed over threads (thread-seconds).
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from floquet_lattice import cli, csvio, experiments, floquet


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    thread: int
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered, reach = 0.0, self.start
        for lo, hi in sorted((c.start, c.end) for c in self.children):
            lo, hi = max(lo, reach), min(hi, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


def _one_period_table(args, kwargs, result):
    spec, a2_values, steps = args[:3]
    return {"step_rows": steps * len(a2_values) * spec.n_sites}


def _folded_min_population(args, kwargs, result):
    return {"periods": args[3]}


def _track_branches(args, kwargs, result):
    ambiguous = sum("ambiguous" in w for w in result.warnings)
    return {"points": len(result.param_values), "ambiguous": ambiguous}


def _classify(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _csv_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute looked up by the caller, span name, counters)
TARGETS = (
    (experiments, "one_period_table", "propagator.one_period_table",
     _one_period_table),
    (experiments, "folded_min_population", "propagator.folded_min_population",
     _folded_min_population),
    (experiments, "folded_population_series",
     "propagator.folded_population_series", None),
    (experiments, "track_branches", "floquet.track_branches", _track_branches),
    (experiments, "classify_closest_approach",
     "floquet.classify_closest_approach", _classify),
    (floquet, "monodromy", "floquet.monodromy", None),
    (csvio, "write_min_p1_scan", "csvio.write", _csv_write),
    (csvio, "write_spectrum", "csvio.write", _csv_write),
    (csvio, "write_population_series", "csvio.write", _csv_write),
    (csvio, "write_heatmap", "csvio.write", _csv_write),
    (experiments, "scan_min_p1", "experiments", None),
    (experiments, "scan_spectrum", "experiments", None),
    (cli, "reproduce", "experiments", None),
)


class Tracer:
    """Records spans of wrapped layer calls while installed (``with tracer:``)."""

    def __init__(self):
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._owner = threading.get_ident()
        self._saved = []

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            owner = self._stacks.get(self._owner, [])
            parent = stack[-1] if stack else (owner[-1] if owner else None)
            span = Span(name, time.perf_counter(), parent, tid)
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def walk(span: Span):
    yield span
    for child in span.children:
        yield from walk(child)


def spans_by_name(roots) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for root in roots:
        for span in walk(root):
            out.setdefault(span.name, []).append(span)
    return out


def dump(roots) -> list[dict]:
    """Spans as plain records (parent by index) for a JSON trace file."""
    records, index = [], {}
    for root in roots:
        for span in walk(root):
            index[id(span)] = len(records)
            records.append({
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "thread": span.thread,
                "parent": index.get(id(span.parent)),
                "counters": span.counters,
            })
    return records


def _percentile_ms(durations, tail: bool) -> float:
    """Median, or the highest percentile with at least ten samples beyond
    it (0 when there are fewer than eleven samples)."""
    if tail:
        return 1e3 * sorted(durations)[-11] if len(durations) >= 11 else 0.0
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(roots, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of ``passes`` traced passes."""
    by_name = spans_by_name(roots)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s.self_time() for s in spans(name))

    def total(name, counter):
        return sum(s.counters.get(counter, 0) for s in spans(name))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    opt, fmp = "propagator.one_period_table", "propagator.folded_min_population"
    mono = "floquet.monodromy"
    durations = [s.duration for s in spans(mono)]
    return {
        f"{opt}.self_s": self_s(opt) / passes,
        f"{opt}.calls": len(spans(opt)) / passes,
        f"{opt}.step_rows": total(opt, "step_rows") / passes,
        f"{opt}.step_rows_per_s": rate(total(opt, "step_rows"), self_s(opt)),
        f"{fmp}.self_s": self_s(fmp) / passes,
        f"{fmp}.calls": len(spans(fmp)) / passes,
        f"{fmp}.periods_per_s": rate(total(fmp, "periods"), self_s(fmp)),
        "propagator.folded_population_series.self_s":
            self_s("propagator.folded_population_series") / passes,
        f"{mono}.self_s": self_s(mono) / passes,
        f"{mono}.calls": len(durations) / passes,
        f"{mono}.p50_ms": _percentile_ms(durations, tail=False),
        f"{mono}.tail_ms": _percentile_ms(durations, tail=True),
        "floquet.track_branches.self_s":
            self_s("floquet.track_branches") / passes,
        "floquet.track_branches.points":
            total("floquet.track_branches", "points") / passes,
        "floquet.track_branches.ambiguous":
            total("floquet.track_branches", "ambiguous") / passes,
        "floquet.classify_closest_approach.self_s":
            self_s("floquet.classify_closest_approach") / passes,
        "floquet.classify_closest_approach.evaluations":
            total("floquet.classify_closest_approach", "evaluations") / passes,
        "experiments.self_s": self_s("experiments") / passes,
        "csvio.write.self_s": self_s("csvio.write") / passes,
        "csvio.write.bytes": total("csvio.write", "bytes") / passes,
        "csvio.write.mb_per_s":
            rate(total("csvio.write", "bytes") / 1e6, self_s("csvio.write")),
    }
