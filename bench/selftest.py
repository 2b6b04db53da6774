"""Smoke test of the benchmark at tiny sizes, about 90 s on two cores.

Usage, from the repository root:

    python3 bench/selftest.py

For every workload, untraced and traced, it asserts that the run passes its
checks and prints exactly the metrics BENCHMARK.json declares, with the
declared units. It then corrupts outputs and asserts the checks fail: one
byte of a replayed trace, and the exemplar order of a recorded trace. Last,
it runs the benchmark in a directory holding only BENCHMARK.json and this
directory, where it must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

TINY = {
    "pku-replay": {"train": 60, "items": 2, "batch": 2},
    "publaynet-replay": {"train": 40, "items": 4, "batch": 4},
    "pku-norag-replay": {"train": 40, "items": 6, "batch": 6},
    "pku-record-latency": {"train": 40, "items": 4, "batch": 2},
}
SEED = 3


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def corruption_is_caught(workload: bench.Workload, work: Path) -> None:
    passes = json.loads((work / "out-u.json").read_text(encoding="utf-8"))["passes"]
    references = {split: (work / "runs" / f"reference-{split}",
                          work / "transcripts" / f"reference-{split}")
                  for split in {entry["split"] for entry in passes}}
    assert not bench.verify(workload, passes, references), "clean outputs must pass"

    trace = sorted((Path(passes[0]["run_dir"]) / "traces").glob("*.json"))[0]
    body = trace.read_bytes()
    trace.write_bytes(body.replace(b'"chosen_index": ', b'"chosen_index":  ', 1))
    assert bench.verify(workload, passes, references), "a changed trace byte must fail"
    trace.write_bytes(body)

    vocabulary = (bench.inputs.PKU_VOCAB if workload.shape.family == "pku"
                  else bench.inputs.PUBLAYNET_VOCAB)
    lower_bound_holds(work, vocabulary)
    if workload.use_rag:
        reference = references["batch000"][0]
        for path in (reference / "traces").glob("*.json"):
            record = json.loads(path.read_text(encoding="utf-8"))
            record["coarse"]["exemplar_ids"].reverse()
            path.write_text(json.dumps(record), encoding="utf-8")
        assert bench.spot_checks(workload, work / "data", reference, SEED, vocabulary), \
            "a reversed top-k must fail the spot check"


def lower_bound_holds(work: Path, vocabulary) -> None:
    """The spot check skips entries by its lower bound, so the bound must
    never exceed the LP distance."""
    records = [json.loads(line) for line in
               (work / "data" / "train.jsonl").read_text(encoding="utf-8").splitlines()]
    feats = [bench.checks.features(r, vocabulary) for r in records]
    for a, b in zip(feats, feats[1:] + feats[:1]):
        bound = bench.checks.lower_bound(a, b, len(vocabulary))
        exact = bench.checks.transport_distance(a, b)
        assert bound <= exact + 1e-12, f"lower bound {bound} exceeds distance {exact}"


def bare_directory_fails() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH, bare / bench.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{bench.BENCH.name}/run.py", "--workload",
                               "pku-replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark ran without the program"
    assert '"correct"' not in proc.stdout, "a result was printed without the program"


def main() -> int:
    for name, workload in bench.WORKLOADS.items():
        tiny = dataclasses.replace(workload,
                                   shape=dataclasses.replace(workload.shape, **TINY[name]),
                                   latency_s=min(workload.latency_s, 0.01))
        for trace in (False, True):
            work = bench.WORK / f"selftest-{name}-{int(trace)}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                result = bench.run(tiny, SEED, 0.5, trace, work)
                assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, \
                    f"{name}: {result}"
                units = declared_units("per_layer" if trace else "end_to_end")
                got = {metric: value["unit"] for metric, value in result["metrics"].items()}
                assert got == units, f"{name}: printed {got}, declared {units}"
                if not trace:
                    corruption_is_caught(tiny, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
                (bench.WORK / f"spans-{name}-seed{SEED}.jsonl").unlink(missing_ok=True)
            print(f"selftest: {name} trace={int(trace)} ok", flush=True)
    bare_directory_fails()
    print("selftest: bare directory fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
