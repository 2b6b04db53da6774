"""Spans around the program's public functions, and the per-layer metrics
derived from them.

The tracer replaces module attributes that the pipeline looks up at call
time (``layoutloom.pipeline.topk_retrieve``, ``layoutloom.retrieval.solve_exact``,
``Gateway.complete`` and so on) with timing wrappers, so no program code
changes. Every wrapped function runs on the caller's thread, so one stack of
open spans gives each span its parent. Spans live in memory until the run
ends. The injected transport, which runs on the gateway's worker threads,
keeps its own call intervals (see ``inputs.LatencyTransport``).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Percentiles a tail may be reported at; the highest one that leaves at least
# ten samples above it is used.
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    item: str        # id of the item being generated when the span opened
    value: float     # per-name measure: matrix cells, prompt bytes, ...

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for every call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self._stack: list[int] = []
        self.item = ""

    def wrap(self, owner, attr: str, name: str,
             value: Callable[[tuple, dict, object], float] | None = None,
             item: Callable[[tuple, dict], str] | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``value(args, kwargs, result)`` gives the span's measure, and
        ``item(args, kwargs)`` names the item that this call starts.
        """
        inner = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if item is not None:
                self.item = item(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                spans[sid] = Span(name, start, time.perf_counter(), parent, self.item, 0.0)
                stack.pop()
                self.errors[(name, type(exc).__name__)] += 1
                raise
            end = time.perf_counter()
            stack.pop()
            measure = 0.0 if value is None else float(value(args, kwargs, result))
            spans[sid] = Span(name, start, end, parent, self.item, measure)
            return result

        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                     span.item, span.value]) + "\n")


# --- derived metrics ----------------------------------------------------------

def tail(values: Sequence[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile) of the samples; zeros when empty."""
    if not len(values):
        return 0.0, 0.0, 0.0
    n = len(values)
    pct = next((q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= 10.0), 50.0)
    p50, ptail = np.percentile(np.asarray(values, dtype=float), [50.0, pct])
    return float(p50), float(ptail), pct


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total time covered by at least one interval."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: Sequence[Span], errors: Counter,
                  transport_calls: Sequence[tuple[float, float]],
                  transport_inflight_max: int, transport_retries: int) -> dict[str, tuple]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Self time of a span is its duration minus the time its direct children
    cover; every wrapped call runs on the caller's thread, so children never
    overlap and their durations add.
    """
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for sid, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(sid)
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def of(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, [])]

    def busy(*names: str) -> float:
        return sum(s.duration for name in names for s in of(name))

    out: dict[str, tuple] = {}

    solves = of("solve_exact")
    p50, ptail, pct = tail([s.duration * 1e6 for s in solves])
    out["transport.solves"] = (len(solves), "count")
    out["transport.busy_s"] = (busy("solve_exact"), "s")
    out["transport.solve_us_p50"] = (p50, "us")
    out["transport.solve_us_ptail"] = (ptail, "us")
    out["transport.solve_us_tail_pct"] = (pct, "%")
    out["transport.cells_mean"] = (_share(sum(s.value for s in solves), len(solves)), "count")

    queries = of("topk_retrieve")
    query_ids = set(by_name.get("topk_retrieve", []))
    solves_in_queries = sum(1 for s in solves if s.parent in query_ids)
    p50, ptail, pct = tail([s.duration * 1e3 for s in queries])
    out["retrieval.queries"] = (len(queries), "count")
    out["retrieval.busy_s"] = (busy("topk_retrieve"), "s")
    out["retrieval.self_s"] = (sum(s.duration - child_time[i] for i, s in
                                   zip(by_name.get("topk_retrieve", []), queries)), "s")
    out["retrieval.query_ms_p50"] = (p50, "ms")
    out["retrieval.query_ms_ptail"] = (ptail, "ms")
    out["retrieval.query_ms_tail_pct"] = (pct, "%")
    out["retrieval.exact_solve_ratio"] = (
        _share(solves_in_queries, sum(s.value for s in queries)), "ratio")
    out["retrieval.load_index_s"] = (busy("load_index"), "s")

    prompts = of("build_coarse_prompt") + of("build_stage_prompt")
    out["prompts.calls"] = (len(prompts), "count")
    out["prompts.busy_s"] = (sum(s.duration for s in prompts), "s")
    out["prompts.bytes"] = (sum(s.value for s in prompts), "bytes")

    completes = of("Gateway.complete")
    extracts = of("extract_layout")
    wait = union_length(transport_calls)
    out["gateway.complete_calls"] = (len(completes), "count")
    out["gateway.completions"] = (sum(s.value for s in completes), "count")
    out["gateway.busy_s"] = (busy("Gateway.complete"), "s")
    out["gateway.transport_wait_s"] = (wait, "s")
    out["gateway.inflight_mean"] = (_share(sum(e - s for s, e in transport_calls), wait),
                                    "count")
    out["gateway.inflight_max"] = (transport_inflight_max, "count")
    out["gateway.transport_retries"] = (transport_retries, "count")
    out["gateway.replay_misses"] = (errors.get(("Gateway.complete", "ReplayMiss"), 0),
                                    "count")
    out["gateway.extract_busy_s"] = (busy("extract_layout"), "s")
    out["gateway.extract_failure_ratio"] = (
        _share(sum(s.value for s in extracts), len(extracts)), "ratio")

    coarse_ids = set(by_name.get("generate_coarse", []))
    coarse_extracts = [s for s in extracts if s.parent in coarse_ids]
    out["pipeline.coarse_busy_s"] = (busy("generate_coarse"), "s")
    out["pipeline.refine_busy_s"] = (busy("refine_cot"), "s")
    out["pipeline.rank_busy_s"] = (busy("rank_candidates"), "s")
    out["pipeline.viable_ratio"] = (
        _share(sum(1 - s.value for s in coarse_extracts), len(coarse_extracts)), "ratio")

    # An item runs from the start of its coarse generation to the start of the
    # next item's, and the run's last item to the start of the metric report.
    item_s = []
    for run_id in by_name.get("run_task", []):
        starts = sorted(s.start for s in of("generate_coarse") if s.parent == run_id)
        reports = [s.start for s in of("population_report") if s.parent == run_id]
        ends = starts[1:] + [min(reports, default=spans[run_id].end)]
        item_s += [end - start for start, end in zip(starts, ends)]
    p50, ptail, pct = tail(item_s)
    out["pipeline.items"] = (len(item_s), "count")
    out["pipeline.item_s_p50"] = (p50, "s")
    out["pipeline.item_s_ptail"] = (ptail, "s")
    out["pipeline.item_s_tail_pct"] = (pct, "%")
    out["pipeline.run_self_s"] = (sum(spans[i].duration - child_time[i]
                                      for i in by_name.get("run_task", [])), "s")

    rasters = of("load_raster")
    out["dataset.raster_loads"] = (len(rasters), "count")
    out["dataset.raster_load_s"] = (busy("load_raster"), "s")
    out["metrics.report_s"] = (busy("population_report"), "s")
    return out
