"""Offline benchmark of layoutloom: end-to-end runs on seeded synthetic inputs.

Usage, from the repository root:

    python3 bench/run.py --workload pku-replay --seed 1 --seconds 10 --trace 0

One invocation runs one workload. It generates the inputs from the seed, sets
up the corpus the way ``layoutloom ingest`` and ``index build`` do (timed as
``setup_s``), records transcripts with the scripted backend where the
workload replays them, then starts a child process (``passes.py``) that
calls ``layoutloom.pipeline.run_task`` in a closed loop for ``--seconds``.
With ``--trace 1`` a second child repeats a fixed number of passes under span
wrappers and the per-layer metrics are reported instead. Timings are given
at the reference CPU speed of ``speed.py``'s calibration kernel, timed next
to every pass and set-up. Every output is checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from inputs import CorpusShape  # noqa: E402

SETUP_MIN_REPS = 7      # set-ups per invocation, at least; setup_s is their median
SETUP_MIN_S = 3.0       # ... and at least this long in total, so that a small
                        # corpus is timed over a span as long as a large one's
SETUP_PROBE_EVERY_S = 1.0  # set-up time between two calibration probes, at least
MIN_PASSES = 2          # untraced passes, however long the first one takes
SPOT_ITEMS = 4          # items per invocation whose top-k is recomputed
SPOT_SAMPLE = 20        # random non-returned index entries each spot check adds
CHILD_TIMEOUT_S = 150
LATENCY_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    use_rag: bool = True
    latency_s: float = 0.0   # > 0: record mode behind a LatencyTransport
    trace_passes: int = 1


PKU_SIZES = (2, 4, 6, 8)
WORKLOADS = {w.name: w for w in (
    # Retrieval of pseudo-layout queries against a 2,000-entry index is
    # nearly all of the run; replay means there is no LLM wait.
    Workload("pku-replay", CorpusShape("pku", train=2000, items=4, batch=4,
                                       max_train_elements=10, item_sizes=PKU_SIZES,
                                       rasters=True)),
    # Larger layouts (up to 25 elements) make each solve ~7x dearer and m != n
    # the common case; the only workload on the constraint-explicit templates.
    Workload("publaynet-replay", CorpusShape("publaynet", train=500, items=4, batch=4,
                                             max_train_elements=25,
                                             item_sizes=(3, 7, 11, 15))),
    # No retrieval: transcript reads, parsing, ranking, prompts, trace writes,
    # raster loads and the metric report carry the run. Not listed in
    # BENCHMARK.json, because machine speed drift moves it by more than the
    # bound (see README.md).
    Workload("pku-norag-replay", CorpusShape("pku", train=2000, items=200, batch=200,
                                             max_train_elements=10,
                                             item_sizes=tuple(range(1, 11)), rasters=True),
             use_rag=False),
    # Record mode with a 100 ms transport: LLM waits carry the run; the only
    # workload where fan-out width, retries and transcript writes show.
    Workload("pku-record-latency", CorpusShape("pku", train=200, items=32, batch=4,
                                               max_train_elements=10, item_sizes=PKU_SIZES,
                                               rasters=True),
             latency_s=LATENCY_S, trace_passes=2),
)}

END_TO_END_UNITS = {"items_per_s": "1/s", "cpu_s_per_item": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def import_program():
    """Import layoutloom from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import layoutloom
    from layoutloom import dataset, pipeline, retrieval
    if Path(layoutloom.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"layoutloom was imported from {layoutloom.__file__}, "
                         f"not from {SRC}")
    return dataset, pipeline, retrieval


def environment() -> dict:
    import scipy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    digest = hashlib.sha256()
    for path in sorted((SRC / "layoutloom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def set_up(data: Path, dataset, retrieval) -> tuple[float, float]:
    """Ingest the training records, save area stats, build and save the index:
    the work of ``layoutloom ingest`` plus ``index build``. Returns the median
    (total, index build) seconds of the repetitions at the reference CPU
    speed. Calibration probes bracket blocks of repetitions, a block ending
    once it has lasted SETUP_PROBE_EVERY_S."""
    reps = []  # (wall, cpu, build wall, build cpu, index of the probe before)
    probes = [speed.probe()]
    block_start = time.perf_counter()
    spent = 0.0
    while len(reps) < SETUP_MIN_REPS or spent < SETUP_MIN_S:
        t0, cpu0 = time.perf_counter(), time.process_time()
        manifest = dataset.load_manifest(data / "manifest.json")
        corpus = dataset.ingest(dataset.read_jsonl(data / "train.jsonl"), manifest)
        dataset.write_jsonl(dataset.export_records(corpus), data / "ingested.jsonl")
        dataset.save_area_stats(dataset.compute_area_stats(corpus, "train"),
                                data / "stats.json")
        t1, cpu1 = time.perf_counter(), time.process_time()
        retrieval.save_index(retrieval.build_index(corpus, "train"), data / "index.json")
        t2, cpu2 = time.perf_counter(), time.process_time()
        spent += t2 - t0
        reps.append((t2 - t0, cpu2 - cpu0, t2 - t1, cpu2 - cpu1, len(probes) - 1))
        if t2 - block_start >= SETUP_PROBE_EVERY_S:
            probes.append(speed.probe())
            block_start = time.perf_counter()
    if reps[-1][4] == len(probes) - 1:
        probes.append(speed.probe())
    totals = [speed.at_reference(w, c, probes[k:k + 2]) for w, c, _, _, k in reps]
    builds = [speed.at_reference(w, c, probes[k:k + 2]) for _, _, w, c, k in reps]
    return statistics.median(totals), statistics.median(builds)


def base_config(workload: Workload, data: Path) -> dict:
    return {
        "base_dir": str(data),
        "task_family": "content_aware" if workload.shape.family == "pku"
        else "constraint_explicit",
        "index": "index.json",
        "stats": "stats.json",
        "use_rag": workload.use_rag,
        "backend": {"mode": "record" if workload.latency_s else "replay",
                    "model": "scripted", "retry_backoff": 0.01,
                    "transcript_dir": str(data.parent / "transcripts" / "reference-batch000")},
    }


def record_reference(base: dict, work: Path, split: str, pipeline) -> tuple[Path, Path]:
    """Record one batch with the plain scripted backend: no delay and no
    injected failures. Replay passes read its transcripts, and every pass
    over the batch must write exactly its outputs. Returns the run and
    transcript directories."""
    run_dir = work / "runs" / f"reference-{split}"
    transcripts = work / "transcripts" / f"reference-{split}"
    cfg = dict(base, run_dir=str(run_dir), dataset={"records": "test.jsonl", "split": split})
    cfg["backend"] = dict(base["backend"], mode="record", transcript_dir=str(transcripts))
    pipeline.run_task(cfg, transport=inputs.scripted_llm)
    return run_dir, transcripts


def run_child(spec: dict, work: Path) -> dict:
    """Run passes.py on ``spec`` and wait for it; return what it wrote."""
    spec_path = work / f"spec-{spec['tag']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "passes.py"), str(spec_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"passes.py exited with code {proc.returncode}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def verify(workload: Workload, passes: list[dict],
           references: dict[str, tuple[Path, Path]]) -> list[str]:
    """Compare every pass with the reference of its batch. Adds the pass's
    ``items`` and ``failed`` counts to each entry."""
    problems = []
    for run_dir, _ in references.values():
        problems += checks.item_outcomes(run_dir)[1]
    for entry in passes:
        run = Path(entry["run_dir"])
        entry["items"], errors = checks.item_outcomes(run)
        entry["failed"] = len(errors)
        ref_run, ref_transcripts = references[entry["split"]]
        problems += errors + checks.compare_runs(ref_run, run)
        if workload.latency_s:
            problems += checks.compare_transcript_keys(ref_transcripts,
                                                       Path(entry["transcript_dir"]))
    return problems


def spot_checks(workload: Workload, data: Path, reference: Path, seed: int,
                vocabulary) -> list[str]:
    """Recompute the top-k of SPOT_ITEMS items of a reference run."""
    def jsonl(name: str) -> list[dict]:
        return [json.loads(line) for line in (data / name).read_text().splitlines()]

    train_records = jsonl("train.jsonl")
    train = {r["id"]: checks.features(r, vocabulary) for r in train_records}
    items = {r["id"]: r for r in jsonl("test.jsonl")}
    areas = checks.mean_areas(train_records, vocabulary)
    traces = sorted((reference / "traces").glob("*.json"))
    rng = np.random.default_rng([seed, 0x70B])
    problems = []
    for index in sorted(rng.choice(len(traces), size=min(SPOT_ITEMS, len(traces)),
                                   replace=False)):
        trace = json.loads(traces[index].read_text(encoding="utf-8"))
        coarse = trace["coarse"]
        if not workload.use_rag:
            if not coarse["exemplar_source"].startswith("random"):
                problems.append(f"{traces[index].name}: no-RAG run used "
                                f"{coarse['exemplar_source']} exemplars")
            continue
        item = items[trace["run_id"]]
        if workload.shape.family == "pku":
            query = checks.pseudo_query(item["constraints"]["categories"], areas, vocabulary)
        else:
            query = checks.features(item, vocabulary)
        problems += checks.check_topk(item["id"], coarse["exemplar_ids"], query, train,
                                      trace["config"]["k_coarse"], len(vocabulary), rng,
                                      SPOT_SAMPLE)
    return problems


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload in ``work`` and return the result object."""
    dataset, pipeline, retrieval = import_program()
    logging.getLogger("layoutloom").addHandler(logging.NullHandler())
    logging.getLogger("layoutloom").propagate = False

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env["calibration_probe_s_before"] = speed.probe()
    data = work / "data"
    inputs.write_inputs(workload.shape, seed, data)
    setup_s, build_s = set_up(data, dataset, retrieval)
    base = base_config(workload, data)
    references = {}
    if not workload.latency_s:
        references["batch000"] = record_reference(base, work, "batch000", pipeline)

    spec = {"src": str(SRC), "base": base, "runs_dir": str(work / "runs"),
            "transcripts_dir": str(work / "transcripts"), "latency_s": workload.latency_s,
            "batches": -(-workload.shape.items // workload.shape.batch),
            "seconds": seconds, "min_passes": max(MIN_PASSES, workload.trace_passes)}
    untraced = run_child(dict(spec, tag="u", traced=False, out=str(work / "out-u.json")), work)
    passes = untraced["passes"]
    traced = None
    if trace:
        traced = run_child(dict(spec, tag="t", traced=True, passes=workload.trace_passes,
                                out=str(work / "out-t.json"),
                                spans_out=str(WORK / f"spans-{workload.name}-seed{seed}.jsonl")),
                           work)
    all_passes = passes + (traced["passes"] if traced else [])
    for split in sorted({entry["split"] for entry in all_passes} - set(references)):
        references[split] = record_reference(base, work, split, pipeline)
    problems = verify(workload, all_passes, references)
    vocabulary = (inputs.PKU_VOCAB if workload.shape.family == "pku"
                  else inputs.PUBLAYNET_VOCAB)
    problems += spot_checks(workload, data, references["batch000"][0], seed, vocabulary)
    env["loadavg_after"] = os.getloadavg()
    env["calibration_probe_s_after"] = speed.probe()

    attempted = sum(entry["items"] for entry in all_passes)
    failed = sum(entry["failed"] for entry in all_passes)
    wall = sum(entry["wall_s"] for entry in passes)
    for entry in passes:
        entry["ref_s"] = speed.at_reference(entry["wall_s"], entry["cpu_s"], entry["probes_s"])
    end_to_end = {
        "items_per_s": statistics.median((e["items"] - e["failed"]) / e["ref_s"]
                                         for e in passes),
        "cpu_s_per_item": statistics.median(e["cpu_s"] * speed.scale(e["probes_s"]) / e["items"]
                                            for e in passes),
        "setup_s": setup_s,
        "peak_rss_mb": untraced["maxrss_kb"] / 1024.0,
    }
    as_measured = {
        "items_per_s": sum(e["items"] - e["failed"] for e in passes) / wall,
        "cpu_s_per_item": sum(e["cpu_s"] for e in passes) / sum(e["items"] for e in passes),
    }
    print(f"# environment {json.dumps(env)}")
    print(f"# {workload.name} seed {seed}: {len(passes)} passes, "
          f"{sum(e['items'] for e in passes)} items, {wall:.3f} s measured, "
          f"{untraced['transport_retries']} injected transport failures")
    print("# pass seconds (wall/cpu/at reference speed): " + " ".join(
        f"{e['wall_s']:.3f}/{e['cpu_s']:.3f}/{e['ref_s']:.3f}" for e in passes))
    print("# calibration probe seconds, first and after each pass: " + " ".join(
        f"{s:.3f}" for s in [passes[0]["probes_s"][0]] + [e["probes_s"][1] for e in passes]))
    for name, value in end_to_end.items():
        print(f"# {name:<34} {value:>14.6f} {END_TO_END_UNITS[name]}")
    for name, value in as_measured.items():
        print(f"# {name + ' as measured':<34} {value:>14.6f} {END_TO_END_UNITS[name]}")
    print(f"# {'item_error_rate':<34} {failed / attempted:>14.6f} ratio")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    if traced is not None:
        layers = {name: tuple(pair) for name, pair in traced["layers"].items()}
        layers["dataset.index_build_s"] = (build_s, "s")
        layers["trace.overhead_ratio"] = (
            statistics.mean(e["wall_s"] for e in traced["passes"])
            / statistics.mean(e["wall_s"] for e in passes), "ratio")
        print("# traced pass seconds (wall/cpu): " + " ".join(
            f"{e['wall_s']:.3f}/{e['cpu_s']:.3f}" for e in traced["passes"]))
        for name, (value, unit) in sorted(layers.items()):
            print(f"# {name:<34} {value:>14.6f} {unit}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(layers.items())}
    print(f"# checks: {len(problems)} problems, {len(all_passes)} passes compared "
          f"with their references, {SPOT_ITEMS} items spot-checked")
    for problem in problems[:20]:
        print(f"#   {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
