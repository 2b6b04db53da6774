"""Output checks. Each returns a list of problems; an empty list means pass.

The replay checks compare bytes, so any change to what a run writes fails
them. The top-k spot check recomputes transport distances with scipy's HiGHS
linear-programming solver from the generated records, sharing no code with
the program: a retrieval bug that a record pass would faithfully write into
its traces still fails here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

# The index's default cost weights: 0.5 geometric, 0.5 label mismatch.
W_GEO = 0.5
W_LABEL = 0.5
TIE = 1e-9  # distances this close may come back in either order
PSEUDO_DEFAULT_AREA = 0.05


def compare_runs(reference: Path, run: Path) -> list[str]:
    """``generated.jsonl``, ``metrics.tsv`` and every trace file must be
    byte-identical between the two run directories."""
    problems = []
    for name in ("generated.jsonl", "metrics.tsv"):
        if (reference / name).read_bytes() != (run / name).read_bytes():
            problems.append(f"{run.name}/{name} differs from {reference.name}/{name}")
    ref_traces = sorted(p.name for p in (reference / "traces").iterdir())
    run_traces = sorted(p.name for p in (run / "traces").iterdir())
    if ref_traces != run_traces:
        problems.append(f"{run.name}/traces holds {len(run_traces)} files, "
                        f"{reference.name}/traces {len(ref_traces)}")
    else:
        problems += [f"{run.name}/traces/{name} differs from {reference.name}"
                     for name in ref_traces
                     if (reference / "traces" / name).read_bytes()
                     != (run / "traces" / name).read_bytes()]
    return problems


def compare_transcript_keys(reference: Path, transcripts: Path) -> list[str]:
    """A record pass must write a transcript for exactly the requests the
    reference recorded; the files hold timestamps, so only keys compare."""
    ref_keys = {p.name for p in reference.glob("*.json")}
    keys = {p.name for p in transcripts.glob("*.json")}
    if keys == ref_keys:
        return []
    return [f"{transcripts.name}: {len(keys - ref_keys)} transcripts not in "
            f"{reference.name}, {len(ref_keys - keys)} missing"]


def item_outcomes(run: Path) -> tuple[int, list[str]]:
    """(items attempted, error descriptions) from a run's generated.jsonl."""
    lines = (run / "generated.jsonl").read_text(encoding="utf-8").splitlines()
    errors = []
    for line in lines:
        record = json.loads(line)
        if "error" in record:
            errors.append(f"{run.name}: item {record['id']}: {record['error']}: "
                          f"{record.get('message', '')}")
    return len(lines), errors


# --- independent top-k spot check ------------------------------------------

def features(record: Mapping, vocabulary: Sequence[str]) -> np.ndarray:
    """Rows of (label id, cx, cy, w, h) normalized by the record's canvas."""
    w, h = float(record["canvas"]["w"]), float(record["canvas"]["h"])
    rows = []
    for e in record["elements"]:
        left, top, bw, bh = (float(v) for v in e["bbox"])
        rows.append((vocabulary.index(e["label"]), (left + bw / 2) / w, (top + bh / 2) / h,
                     bw / w, bh / h))
    return np.array(rows, dtype=float).reshape(-1, 5)


def mean_areas(train: Sequence[Mapping], vocabulary: Sequence[str]) -> dict[str, float]:
    """Mean normalized element area per label over the training records."""
    areas: dict[str, list[float]] = {}
    for record in train:
        for row in features(record, vocabulary):
            areas.setdefault(vocabulary[int(row[0])], []).append(row[3] * row[4])
    return {label: math.fsum(v) / len(v) for label, v in areas.items()}


def pseudo_query(categories: Mapping[str, int], areas: Mapping[str, float],
                 vocabulary: Sequence[str]) -> np.ndarray:
    """The retrieval query of a content-aware item: per required element a
    centred square whose area is its label's training mean."""
    rows = []
    for label, count in categories.items():
        side = min(1.0, math.sqrt(max(areas.get(label, PSEUDO_DEFAULT_AREA), 0.0)))
        rows += [(vocabulary.index(label), 0.5, 0.5, side, side)] * max(1, int(count))
    return np.array(rows, dtype=float)


def transport_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Uniform-marginal optimal transport cost between two feature sets, as a
    linear program."""
    m, n = len(a), len(b)
    geo = np.abs(a[:, None, 1:] - b[None, :, 1:]).sum(axis=2) / 4.0
    cost = W_GEO * geo + W_LABEL * (a[:, None, 0] != b[None, :, 0])
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _w1(a: Sequence[float], b: Sequence[float]) -> float:
    """1-D Wasserstein-1 distance between two uniform point sets, from the
    sorted values (quantile functions)."""
    a, b = sorted(a), sorted(b)
    m, n = len(a), len(b)
    i = j = 0
    t = total = 0.0
    while i < m and j < n:
        ti, tj = (i + 1) / m, (j + 1) / n
        step = min(ti, tj)
        total += abs(a[i] - b[j]) * (step - t)
        t = step
        i += ti <= step
        j += tj <= step
    return total


def lower_bound(a: np.ndarray, b: np.ndarray, labels: int) -> float:
    """A lower bound on ``transport_distance(a, b)``.

    Any plan moves at least the total-variation distance of the two label
    histograms between different labels, and the L1 ground cost separates by
    coordinate, so each coordinate costs at least its 1-D Wasserstein-1
    distance.
    """
    hist_a = np.bincount(a[:, 0].astype(int), minlength=labels) / len(a)
    hist_b = np.bincount(b[:, 0].astype(int), minlength=labels) / len(b)
    geo = sum(_w1(a[:, c].tolist(), b[:, c].tolist()) for c in range(1, 5)) / 4.0
    return W_GEO * geo + W_LABEL * 0.5 * float(np.abs(hist_a - hist_b).sum())


def check_topk(item_id: str, returned: Sequence[str], query: np.ndarray,
               train: Mapping[str, np.ndarray], k: int, labels: int,
               rng: np.random.Generator, sample: int) -> list[str]:
    """The returned ids must be the k nearest entries in ascending distance.

    Distances are recomputed for the returned entries, for ``sample``
    others drawn at random, and for every other entry whose lower bound does
    not exceed the k-th distance. The last set makes the check exhaustive:
    an entry outside it cannot be nearer than the k-th.
    """
    where = f"item {item_id}"
    if len(returned) != min(k, len(train)) or len(set(returned)) != len(returned):
        return [f"{where}: expected {k} distinct exemplars, got {list(returned)}"]
    missing = [rid for rid in returned if rid not in train]
    if missing:
        return [f"{where}: exemplars {missing} are not index entries"]
    near = [transport_distance(query, train[rid]) for rid in returned]
    kth = max(near)
    others = sorted(set(train) - set(returned) - {item_id})
    picked = {others[i] for i in rng.choice(len(others), size=min(sample, len(others)),
                                            replace=False)}
    picked.update(rid for rid in others
                  if lower_bound(query, train[rid], labels) <= kth + TIE)
    far = {rid: transport_distance(query, train[rid]) for rid in sorted(picked)}
    problems = [f"{where}: exemplar {returned[i + 1]} (distance {near[i + 1]:.12f}) ranked "
                f"after {returned[i]} ({near[i]:.12f})"
                for i in range(len(near) - 1) if near[i] > near[i + 1] + TIE]
    closest = min(far, key=far.get, default=None)
    if closest is not None and far[closest] < kth - TIE:
        problems.append(f"{where}: {closest} (distance {far[closest]:.12f}) is nearer than "
                        f"returned exemplar at {kth:.12f}")
    return problems
