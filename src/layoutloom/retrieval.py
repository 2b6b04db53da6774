"""Transport-based layout similarity and top-K exemplar retrieval.

The dissimilarity between two layouts is the minimal transport cost between
their element sets under uniform marginals, with the per-pair ground cost

    mu(e, f) = w_geo * (|dcx| + |dcy| + |dw| + |dh|) / 4 + w_label * [label differs]

computed on normalized coordinates (centers and extents). Similarity is
exp(-scale * distance), so identical layouts score exactly 1.

Retrieval is exact but does not solve every entry. A lower bound on each
entry's transport cost comes from one numpy expression per element count:

    LB = w_label * TV(label histograms) + w_geo * sum_coord W1(coord) / 4

Any plan moves at least the total-variation mass between different labels,
and the L1 cost separates by coordinate, so each coordinate costs at least
its 1-D Wasserstein-1 distance, which has a closed form from sorted values.
The first k entries in (bound, position) order are solved exactly. The
entries whose bound similarity exp(-scale * (LB - BOUND_SLACK)) is not
strictly below the k-th similarity then get a second, tighter bound: a
feasible dual of the transport problem, from entropic potentials made
feasible by a c-transform, computed for all of them in one batch. They are
solved in ascending order of the larger bound until one is ruled out; every
later entry has a bound at least as large. An entry whose bound similarity
equals the k-th is still solved, so ties keep their ascending-id order and
results equal a full scan bit for bit. On entries with as many elements as
the query, the first bound alone leaves several times k entries to solve;
the second leaves few more than k, so the cost of a query depends less on
how its geometry falls against the index.

Candidates are scored from the index arrays through one cost definition,
``_ground_costs``. A query's normalized features are computed once, for
both bounds and the solves. Solved entries' costs come from a tensor built
from the index arrays, each center rebuilt as ``(cx - w/2) + w/2`` as
``entry_layout`` does, so a retrieved similarity is bitwise ``ltsim_score``
on that layout. The dual bound reads the same rebuilt-center costs.

An index holds what queries read, as padded numpy arrays (see
``RetrievalIndex``); ``save_index`` writes them to an ``.npz`` archive, and
``build_index`` and ``load_index`` both go through its validating
constructor. Every entry holds 1 to ``MAX_ELEMENTS`` elements, the most
the exact solver takes (see ``transport``); an empty or larger entry, or a
larger query, raises SchemaError.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import AreaStats, CanonicalDataset
from .errors import EmptyIndex, EmptyLayout, EmptySplit, SchemaError, VersionMismatch
from .model import BBox, Canvas, Element, Layout, normalize
from .transport import MAX_ELEMENTS, TransportPlan, solve_exact

logger = logging.getLogger(__name__)

INDEX_VERSION = "2"

# Subtracted from every lower bound before pruning. The first bound reads the
# stored centers, while the exact cost reads the rebuilt ``(cx - w/2) + w/2``,
# and the two sums round differently, as do the dual bound's sums of
# potentials; measured gaps stay near 1e-16.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class CostWeights:
    """Relative weight of the geometric and label-mismatch cost terms."""

    w_geo: float = 0.5
    w_label: float = 0.5

    def __post_init__(self):
        if self.w_geo < 0 or self.w_label < 0:
            raise ValueError("cost weights must be non-negative")
        if abs(self.w_geo + self.w_label - 1.0) > 1e-9:
            raise ValueError("cost weights must sum to 1")


DEFAULT_WEIGHTS = CostWeights()


def _features(layout: Layout, vocabulary: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Label ids in ``vocabulary`` (else -2) and cx, cy, w, h of a layout's normalized elements."""
    label_ids = {label: i for i, label in enumerate(vocabulary)}
    elements = normalize(layout).elements
    return (np.array([label_ids.get(e.label, -2) for e in elements]),
            np.array([(e.bbox.cx, e.bbox.cy, e.bbox.width, e.bbox.height) for e in elements]))


def _ground_costs(q_labels: np.ndarray, q_feats: np.ndarray, labels: np.ndarray,
                  feats: np.ndarray, weights: CostWeights) -> np.ndarray:
    """The ground cost (..., m, n) between query elements, given as label ids
    (m,) and features (m, 4), and entry elements, given as label ids (..., n)
    and features (..., n, 4) over leading batch axes. The one definition of
    mu; its terms are summed left to right."""
    geo = np.abs(q_feats[:, None, 0] - feats[..., None, :, 0])
    for c in (1, 2, 3):
        geo += np.abs(q_feats[:, None, c] - feats[..., None, :, c])
    return weights.w_geo * (geo / 4.0) + np.where(
        q_labels[:, None] == labels[..., None, :], 0.0, weights.w_label)


def transport_distance(a: Layout, b: Layout,
                       weights: CostWeights = DEFAULT_WEIGHTS) -> TransportPlan:
    """Minimal transport cost between two non-empty layouts, solved exactly."""
    if not a.elements or not b.elements:
        raise EmptyLayout("transport distance is undefined for empty layouts")
    vocabulary = list({e.label for e in a.elements + b.elements})
    return solve_exact(_ground_costs(*_features(a, vocabulary), *_features(b, vocabulary),
                                     weights))


def ltsim_score(a: Layout, b: Layout, weights: CostWeights = DEFAULT_WEIGHTS,
                scale: float = 1.0) -> float:
    """Similarity exp(-scale * distance) in (0, 1]; 1 iff distance is 0."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return math.exp(-scale * transport_distance(a, b, weights).cost)


def _check_size(count: int, what: str) -> None:
    if count > MAX_ELEMENTS:
        raise SchemaError(f"{what} has {count} elements; transport similarity "
                          f"supports at most {MAX_ELEMENTS}")


# --- persistent index -------------------------------------------------------

class RetrievalIndex:
    """Normalized index entries as the padded arrays that queries read.

    ``labels`` (N, n_max) holds each entry's label ids in stored order,
    padded with -1, and ``coords`` (N, n_max, 4) their cx, cy, w and h. The
    constructor derives ``counts`` (N,) and ``bound_groups``: per element
    count n, the positions of the entries with n elements, their label
    histograms (G, |vocabulary|) as fractions, and their coordinates
    (G, 4, n) each sorted ascending. It raises SchemaError for arrays that
    do not fit together; for an entry that is empty, too large, or holds a
    label id outside the vocabulary or a non-finite coordinate; for an id or
    label that numpy's unicode arrays would not keep; and for a vocabulary
    that repeats a label.
    """

    def __init__(self, vocabulary: Sequence[str], ids: Sequence[str], labels, coords,
                 weights: CostWeights = DEFAULT_WEIGHTS):
        self.vocabulary, self.ids, self.weights = tuple(vocabulary), tuple(ids), weights
        # numpy's unicode arrays drop trailing NULs.
        bad = [s for s in self.vocabulary + self.ids if not isinstance(s, str) or s.endswith("\0")]
        if bad:
            raise SchemaError(f"{bad[0]!r} is not a string an index file can hold")
        if len(set(self.vocabulary)) < len(self.vocabulary):
            raise SchemaError(f"index vocabulary {self.vocabulary} repeats a label")
        labels, coords = np.asarray(labels), np.asarray(coords)
        if (labels.dtype.kind not in "iu" or coords.dtype.kind != "f" or labels.ndim != 2
                or coords.shape != labels.shape + (4,) or len(labels) != len(self.ids)):
            raise SchemaError(f"index arrays do not fit together: {len(self.ids)} ids, "
                              f"labels {labels.dtype} {labels.shape}, "
                              f"coords {coords.dtype} {coords.shape}")
        self.labels = labels.astype(np.int64, copy=False)
        self.coords = coords.astype(np.float64, copy=False)
        self.counts = (self.labels >= 0).sum(axis=1)
        real = np.arange(self.labels.shape[1]) < self.counts[:, None]
        vocab = len(self.vocabulary)
        for faulty, what in (
            (~np.where(real, self.labels < vocab, self.labels == -1).all(axis=1),
             f"label ids outside [0, {vocab}) or -1 before its last element"),
            (self.counts == 0, "no elements"),
            (~np.isfinite(self.coords).all(axis=(1, 2)), "non-finite coordinates"),
        ):
            if faulty.any():
                raise SchemaError(f"index entry {self.ids[int(faulty.argmax())]!r} has {what}")
        if len(self.ids):
            _check_size(int(self.counts.max()),
                        f"index entry {self.ids[int(self.counts.argmax())]!r}")
        self.bound_groups = {}
        for n in np.unique(self.counts).tolist():
            positions = np.flatnonzero(self.counts == n)
            cells = self.labels[positions, :n] + vocab * np.arange(len(positions))[:, None]
            hist = np.bincount(cells.ravel(), minlength=vocab * len(positions))
            self.bound_groups[n] = (
                positions, hist.reshape(len(positions), vocab) / n,
                np.sort(self.coords[positions, :n].transpose(0, 2, 1), axis=2))

    def __len__(self) -> int:
        return len(self.ids)

    def entry_layout(self, position: int) -> Layout:
        """Reconstruct the normalized layout stored at an index position."""
        n = int(self.counts[position])
        elements = tuple(
            Element(
                label=self.vocabulary[label_id],
                bbox=BBox(cx - w / 2.0, cy - h / 2.0, w, h),
            )
            for label_id, (cx, cy, w, h) in zip(self.labels[position, :n].tolist(),
                                                self.coords[position, :n].tolist())
        )
        return Layout(id=self.ids[position], canvas=Canvas(1, 1), elements=elements)


def build_index(dataset: CanonicalDataset, split: str,
                weights: CostWeights = DEFAULT_WEIGHTS) -> RetrievalIndex:
    """Index the normalized layouts of one split; empty layouts are skipped."""
    layouts = dataset.by_split(split)
    if not layouts:
        raise EmptySplit(f"split {split!r} has no layouts to index")
    label_ids = {label: i for i, label in enumerate(dataset.manifest.vocabulary)}
    kept = []
    for layout in layouts:
        if not layout.elements:
            logger.warning("skipping layout %r: no elements to index", layout.id)
            continue
        kept.append(layout)
    if len(kept) < len(layouts):
        logger.warning("index over split %r skipped %d empty layouts",
                       split, len(layouts) - len(kept))
    counts = np.array([len(layout.elements) for layout in kept], dtype=np.int64)
    real = np.arange(counts.max(initial=0)) < counts[:, None]
    elements = [e for layout in kept for e in layout.elements]
    labels = np.full(real.shape, -1, dtype=np.int64)
    labels[real] = [label_ids[e.label] for e in elements]
    coords = np.zeros(real.shape + (4,))
    coords[real] = np.reshape([(e.bbox.cx, e.bbox.cy, e.bbox.width, e.bbox.height)
                               for e in elements], (-1, 4))
    return RetrievalIndex(dataset.manifest.vocabulary, [layout.id for layout in kept],
                          labels, coords, weights)


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """Write the index as an uncompressed numpy ``.npz`` archive to exactly
    ``path``; ``np.savez`` would add ``.npz`` to a path without it."""
    with open(path, "wb") as fh:
        np.savez(fh, version=INDEX_VERSION, vocabulary=index.vocabulary, ids=index.ids,
                 labels=index.labels, coords=index.coords,
                 weights=[index.weights.w_geo, index.weights.w_label])


def load_index(path: str | Path) -> RetrievalIndex:
    """Read an index that ``save_index`` wrote, through the validating
    constructor. A file that is not one raises SchemaError; another format
    version, such as a JSON index of version 1, raises VersionMismatch."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as data:
                version = str(data["version"])
                if version == INDEX_VERSION:
                    return RetrievalIndex(data["vocabulary"].tolist(), data["ids"].tolist(),
                                          data["labels"], data["coords"],
                                          CostWeights(*data["weights"].tolist()))
        except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            fh.seek(0)
            try:
                version = json.load(fh)["version"]
            except (KeyError, TypeError, ValueError):
                raise SchemaError(f"{path} is not a layoutloom index") from exc
    raise VersionMismatch(f"index {path} has format version {version!r}, not "
                          f"{INDEX_VERSION!r}; rebuild it with `layoutloom index build`")


def _quantile_segments(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of [0, 1] on which the quantile functions of a uniform
    m-point and a uniform n-point set are both constant: the sorted row each
    set uses on the piece, and the piece's length."""
    unit = math.lcm(m, n)
    cuts = np.union1d(np.arange(0, unit + 1, unit // m), np.arange(0, unit + 1, unit // n))
    starts = cuts[:-1]
    return starts * m // unit, starts * n // unit, np.diff(cuts) / unit


def transport_lower_bounds(q_labels: np.ndarray, q_feats: np.ndarray, index: RetrievalIndex,
                           weights: CostWeights) -> np.ndarray:
    """A lower bound on the transport cost between a non-empty query, given
    by its ``_features``, and every index position, without ``BOUND_SLACK``.

    The bound is ``w_label * TV + w_geo * sum_coord W1 / 4`` (see the module
    docstring). Query labels outside the index vocabulary count fully as
    mismatched mass.
    """
    m = len(q_labels)
    inside = q_labels >= 0
    q_hist = np.bincount(q_labels[inside], minlength=len(index.vocabulary)) / m
    q_outside = np.count_nonzero(~inside) / m
    q_coords = np.sort(q_feats.T, axis=1)
    bounds = np.zeros(len(index))
    for n, (positions, hist, coords) in index.bound_groups.items():
        qi, ei, length = _quantile_segments(m, n)
        tv = 0.5 * (np.abs(hist - q_hist).sum(axis=1) + q_outside)
        w1 = (np.abs(coords[:, :, ei] - q_coords[:, qi]) * length).sum(axis=(1, 2))
        bounds[positions] = weights.w_label * tv + weights.w_geo * (w1 / 4.0)
    return bounds


# Temperatures of the entropic dual ascent in ``dual_lower_bounds``, largest
# first. Annealing down to a small temperature brings the potentials close to
# an optimal dual; fewer steps give looser, still valid, bounds.
DUAL_TEMPERATURES = tuple(np.geomspace(0.2, 0.001, 30).tolist())


def _smooth_max(x: np.ndarray, eps: float, axis: int) -> np.ndarray:
    """eps * log(sum(exp(x / eps))) along ``axis``; overwrites ``x``."""
    top = x.max(axis=axis)
    x -= np.expand_dims(top, axis)
    x *= 1.0 / eps
    np.exp(x, out=x)
    return top + eps * np.log(x.sum(axis=axis))


def dual_lower_bounds(costs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """A lower bound on the transport cost of each cost matrix
    ``costs[i, :, :counts[i]]`` (later columns are padding), without
    ``BOUND_SLACK``; tighter than ``transport_lower_bounds`` and dearer, so
    it is computed only for the entries that bound keeps.

    Any potentials (u, v) with u_i + v_j <= cost_ij bound the transport cost
    from below by mean(u) + mean(v) (LP duality). One batched numpy pass
    over all the entries anneals log-domain entropic potentials u toward an
    optimal dual, and the c-transform v_j = min_i (cost_ij - u_i) makes the
    pair feasible exactly. The potentials only rule entries out; every
    score still comes from an exact solve.
    """
    m = costs.shape[1]
    real = np.arange(costs.shape[2]) < counts[:, None]  # (G, n_max)
    # The ascent runs in float32: the c-transform below makes any potentials
    # feasible, so their precision only affects how tight the bound is.
    cost32 = costs.astype(np.float32)
    log_a = np.float32(-math.log(m))
    log_b = np.where(real, -np.log(counts)[:, None], -np.inf).astype(np.float32)
    f = np.zeros(costs.shape[:2], dtype=np.float32)
    g = np.zeros((len(costs), costs.shape[2]), dtype=np.float32)
    for eps in DUAL_TEMPERATURES:
        f = -_smooth_max((g + eps * log_b)[:, None, :] - cost32, eps, 2)
        g = -_smooth_max((f + eps * log_a)[:, :, None] - cost32, eps, 1)
    u = f.astype(np.float64)
    v = np.where(real, (costs - u[:, :, None]).min(axis=1), 0.0)
    return u.sum(axis=1) / m + v.sum(axis=1) / counts


def _entry_costs(q_labels: np.ndarray, q_feats: np.ndarray, index: RetrievalIndex,
                 rows: Sequence[int], weights: CostWeights) -> np.ndarray:
    """Ground costs (len(rows), m, n_max) between a query and the entries at
    ``rows``, with centers rebuilt as ``(cx - w/2) + w/2``, as in
    ``entry_layout``, so each cost is bitwise ``transport_distance``'s."""
    coords = index.coords[rows]
    half = coords[:, :, 2:] / 2.0
    feats = np.concatenate(((coords[:, :, :2] - half) + half, coords[:, :, 2:]), axis=2)
    return _ground_costs(q_labels, q_feats, index.labels[rows], feats, weights)


def topk_retrieve(query: Layout, index: RetrievalIndex, k: int,
                  weights: CostWeights | None = None, scale: float = 1.0,
                  exclude_self: bool = False) -> list[tuple[str, float]]:
    """The k index entries most similar to the query, descending.

    Equal to a full scan sorted by (-similarity, id), floats included: only
    entries that the transport lower bounds cannot rule out are solved (see
    the module docstring). ``k`` larger than the index returns everything.
    With ``exclude_self`` an entry whose id equals the query's id is left out.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not len(index):
        raise EmptyIndex("cannot retrieve from an empty index")
    if not query.elements:
        raise EmptyLayout("retrieval query has no elements")
    _check_size(len(query.elements), "retrieval query")
    w = weights if weights is not None else index.weights
    q_labels, q_feats = _features(query, index.vocabulary)
    bounds = transport_lower_bounds(q_labels, q_feats, index, w)
    order = np.argsort(bounds, kind="stable").tolist()
    if exclude_self:
        order = [pos for pos in order if index.ids[pos] != query.id]
    best: list[tuple[float, str]] = []  # (-similarity, id), ascending

    def ruled_out(bound: float) -> bool:
        return len(best) == k and math.exp(-scale * (bound - BOUND_SLACK)) < -best[-1][0]

    def solve(pos: int, cost: np.ndarray) -> None:
        sim = math.exp(-scale * solve_exact(cost[:, :index.counts[pos]]).cost)
        bisect.insort(best, (-sim, index.ids[pos]))
        del best[k:]

    # The first k entries in bound order set the k-th similarity; the
    # entries the first bound cannot rule out against it get the dual bound.
    head = order[:k]
    for pos, cost in zip(head, _entry_costs(q_labels, q_feats, index, head, w)):
        solve(pos, cost)
    rest = []
    for pos in order[k:]:
        if ruled_out(bounds[pos]):
            break
        rest.append(pos)
    if rest:
        costs = _entry_costs(q_labels, q_feats, index, rest, w)
        tighter = np.maximum(bounds[rest], dual_lower_bounds(costs, index.counts[rest]))
        for i in np.argsort(tighter, kind="stable").tolist():
            if ruled_out(tighter[i]):
                break
            solve(rest[i], costs[i])
    return [(rid, -neg) for neg, rid in best]


def pseudo_layout(categories: Mapping[str, int], stats: AreaStats | None = None,
                  canvas: Canvas | None = None, default_area: float = 0.05) -> Layout:
    """Build a retrieval query for tasks that provide categories but no boxes.

    Each required category contributes square boxes centered on the canvas,
    sized so their area equals the label's training-set mean (or a default
    when no statistics are available).
    """
    if not categories:
        raise EmptyLayout("cannot build a pseudo layout from zero categories")
    elements = []
    for label, count in categories.items():
        area = default_area
        if stats is not None and label in stats:
            area = stats[label]
        side = min(1.0, math.sqrt(max(area, 0.0)))
        offset = (1.0 - side) / 2.0
        for _ in range(max(1, int(count))):
            elements.append(Element(label=label, bbox=BBox(offset, offset, side, side)))
    meta = {}
    if canvas is not None:
        meta["px_size"] = [canvas.width, canvas.height]
    return Layout(id="", canvas=Canvas(1, 1), elements=tuple(elements), task_meta=meta)
