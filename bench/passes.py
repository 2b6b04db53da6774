"""Child process of the benchmark: the measured (or traced) run passes.

Usage: python3 bench/passes.py SPEC.json

A pass is one ``layoutloom.pipeline.run_task`` call over one batch of items,
in a fresh run directory. Untraced, passes repeat until the run has lasted
the requested seconds; traced, a fixed number of passes runs under the span
wrappers of ``tracing.py``. A calibration probe (``speed.py``) runs before
the first pass and after each one. The pass timings, the probe times, peak
memory and, when traced, the per-layer metrics are written to the spec's
``out`` file. Running in its own process keeps the parent's set-up and
record pass out of the peak memory figure, and keeps the tracing wrappers
out of untraced runs.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from pathlib import Path


def pass_config(spec: dict, p: int) -> dict:
    """run_task config of pass ``p``: its own run directory and batch, and in
    record mode its own transcript directory."""
    cfg = dict(spec["base"])
    cfg["run_dir"] = str(Path(spec["runs_dir"]) / f"{spec['tag']}{p:03d}")
    cfg["dataset"] = {"records": "test.jsonl", "split": f"batch{p % spec['batches']:03d}"}
    backend = dict(cfg["backend"])
    if backend["mode"] == "record":
        backend["transcript_dir"] = str(Path(spec["transcripts_dir"]) / f"{spec['tag']}{p:03d}")
    cfg["backend"] = backend
    return cfg


def install_tracer(tracer, pipeline, retrieval, gateway) -> None:
    """Wrap the module-level names run_task looks up at call time."""
    tracer.wrap(retrieval, "solve_exact", "solve_exact",
                value=lambda a, kw, r: len(a[0]) * len(a[0][0]))
    tracer.wrap(pipeline, "topk_retrieve", "topk_retrieve",
                value=lambda a, kw, r: len(a[1]))
    for name in ("build_coarse_prompt", "build_stage_prompt"):
        tracer.wrap(pipeline, name, name, value=lambda a, kw, r: len(
            r.system.encode("utf-8")) + len(r.user.encode("utf-8")))
    failure = gateway.ExtractionFailure
    tracer.wrap(pipeline, "extract_layout", "extract_layout",
                value=lambda a, kw, r: isinstance(r, failure) or not r.elements)
    for name in ("rank_candidates", "population_report", "load_index", "load_raster",
                 "refine_cot", "run_task"):
        tracer.wrap(pipeline, name, name)
    tracer.wrap(pipeline, "generate_coarse", "generate_coarse",
                item=lambda a, kw: kw.get("run_id", ""))
    tracer.wrap(gateway.Gateway, "complete", "Gateway.complete",
                value=lambda a, kw, r: len(r))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from layoutloom import gateway, pipeline, retrieval
    from layoutloom.errors import TransportError

    import inputs
    import speed
    import tracing

    # Items that fall back or retry log warnings; keep them off stderr.
    logging.getLogger("layoutloom").addHandler(logging.NullHandler())
    logging.getLogger("layoutloom").propagate = False

    tracer = tracing.Tracer() if spec["traced"] else None
    if tracer is not None:
        install_tracer(tracer, pipeline, retrieval, gateway)

    passes, transports = [], []
    probe_s = speed.probe()
    began = time.perf_counter()
    p = 0
    while True:
        if tracer is not None and p == spec["passes"]:
            break
        if tracer is None and p >= spec["min_passes"] \
                and time.perf_counter() - began >= spec["seconds"]:
            break
        transport = None
        if spec["latency_s"] > 0:
            transport = inputs.LatencyTransport(spec["latency_s"], TransportError)
            transports.append(transport)
        cfg = pass_config(spec, p)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        pipeline.run_task(cfg, transport=transport)
        wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
        probes = [probe_s, speed.probe()]
        probe_s = probes[1]
        passes.append({"run_dir": cfg["run_dir"], "split": cfg["dataset"]["split"],
                       "transcript_dir": cfg["backend"]["transcript_dir"],
                       "wall_s": wall_s, "cpu_s": cpu_s, "probes_s": probes})
        p += 1

    result = {"passes": passes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "transport_retries": sum(len(t.failed) for t in transports)}
    if tracer is not None:
        calls = [c for t in transports for c in t.calls]
        layers = tracing.layer_metrics(
            tracer.spans, tracer.errors, calls,
            max((t.inflight_max for t in transports), default=0),
            result["transport_retries"])
        fallbacks = 0
        written = 0
        for entry in passes:
            for trace in sorted(Path(entry["run_dir"], "traces").glob("*.json")):
                stages = json.loads(trace.read_text(encoding="utf-8")).get("stages", [])
                fallbacks += sum(1 for stage in stages if stage["fallback"])
            if spec["latency_s"] > 0:
                written += sum(1 for _ in Path(entry["transcript_dir"]).glob("*.json"))
        layers["pipeline.stage_fallbacks"] = (fallbacks, "count")
        layers["gateway.transcripts_written"] = (written, "count")
        result["layers"] = layers
        tracer.write(Path(spec["spans_out"]))
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
