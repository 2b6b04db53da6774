"""Transport-based layout similarity and top-K exemplar retrieval.

The dissimilarity between two layouts is LTSim's: the minimal transport cost
between their element sets under uniform marginals, with the per-pair ground
cost

    mu(e, f) = W_GEO * (|dcx| + |dcy| + |dw| + |dh|) / 4 + W_LABEL * [label differs]

computed on normalized coordinates (centers and extents), with the fixed
weights W_GEO = W_LABEL = 0.5. Similarity is exp(-distance), so identical
layouts score exactly 1.

Retrieval is exact but does not solve every entry. A lower bound on each
entry's transport cost comes from one pass over the index arrays:

    LB = W_LABEL * TV(label histograms) + W_GEO * sum_coord W1(coord) / 4

Any plan moves at least the total-variation mass between different labels,
and the L1 cost separates by coordinate, so each coordinate costs at least
its 1-D Wasserstein-1 distance, which has a closed form from sorted values.
TV is one expression over the index's histogram array, and W1 one per
element count. The first k entries in (bound, position) order are solved
exactly. The entries whose bound similarity exp(BOUND_SLACK - LB) is not
below the k-th similarity, less a margin of a few units in the last place,
then get a second, tighter bound:
a feasible dual of the transport problem, from entropic potentials made
feasible by a c-transform. It is computed in batches of ``DUAL_BATCH``
entries in first-bound order. At a few steps of the anneal
(``DUAL_CHECKPOINTS``) the feasible bound of the rows still annealed is
taken, and the rows it rules out stop there. A batch's other entries are
solved in ascending order of the larger bound until one is ruled out; every
later entry of the batch has a bound at least as large. The k-th similarity
only rises, so an entry ruled out once stays out, later batches shrink, and
a batch whose first entry the first bound rules out ends the scan. An entry
whose bound similarity equals the k-th is still solved, so ties keep their
ascending-id order and results equal a full scan bit for bit. On entries
with as many elements as the query, the first bound alone leaves several
times k entries to solve; the second leaves few more than k, so the cost of
a query depends less on how its geometry falls against the index.

Candidates are scored from the index arrays through one cost definition,
``_ground_costs``. A query's normalized features are computed once, for
both bounds and the solves. An entry's element is the box
``(cx - w/2, cy - h/2, w, h)``; it is written that way into prompts (see
``RetrievalIndex.entries_html``). Solved entries' costs come from a tensor
built from the index arrays, each center rebuilt from that box as
``(cx - w/2) + w/2``, so a retrieved similarity is bitwise ``ltsim_score``
on the layout of those boxes. The dual bound reads the same rebuilt-center
costs.

An index holds what queries read, as padded numpy arrays (see
``RetrievalIndex``); ``save_index`` writes them to an ``.npz`` archive, and
``build_index`` and ``load_index`` both go through its validating
constructor. Every entry holds 1 to ``MAX_ELEMENTS`` elements, the most
the exact solver takes (see ``transport``); an empty or larger entry, or a
larger query, raises SchemaError.
"""

from __future__ import annotations

import bisect
import functools
import json
import logging
import math
import zipfile
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import AreaStats, CanonicalDataset
from .errors import EmptyIndex, EmptyLayout, EmptySplit, SchemaError, VersionMismatch
from .model import BBox, Canvas, Element, HtmlSnippet, Layout, html_snippet, unit_boxes
from .transport import MAX_ELEMENTS, TransportPlan, solve_exact

logger = logging.getLogger(__name__)

INDEX_VERSION = "2"

# Subtracted from every lower bound before pruning. The first bound reads the
# stored centers, while the exact cost reads the rebuilt ``(cx - w/2) + w/2``,
# and the two sums round differently, as do the dual bound's sums of
# potentials; measured gaps stay near 1e-16.
BOUND_SLACK = 1e-12

# The unit-canvas area of a pseudo-layout box whose label has no statistics.
PSEUDO_DEFAULT_AREA = 0.05


# The weights of the geometric and label-mismatch terms of the ground cost.
# An index file stores them, and ``load_index`` refuses any others.
W_GEO = 0.5
W_LABEL = 0.5


def _features(layout: Layout, vocabulary: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Label ids in ``vocabulary`` (else -2) and cx, cy, w, h of a layout's
    elements on the unit canvas, each center ``left + width / 2.0``."""
    label_ids = {label: i for i, label in enumerate(vocabulary)}
    ltwh = unit_boxes([layout]).ltwh[0]
    with np.errstate(over="ignore"):
        centers = ltwh[:, :2] + ltwh[:, 2:] / 2.0
    return (np.array([label_ids.get(e.label, -2) for e in layout.elements]),
            np.concatenate((centers, ltwh[:, 2:]), axis=1))


def _ground_costs(q_labels: np.ndarray, q_feats: np.ndarray, labels: np.ndarray,
                  feats: np.ndarray) -> np.ndarray:
    """The ground cost (..., m, n) between query elements, given as label ids
    (m,) and features (m, 4), and entry elements, given as label ids (..., n)
    and features (..., n, 4) over leading batch axes. The one definition of
    mu; its terms are summed left to right."""
    geo = np.abs(q_feats[:, None, 0] - feats[..., None, :, 0])
    for c in (1, 2, 3):
        geo += np.abs(q_feats[:, None, c] - feats[..., None, :, c])
    return W_GEO * (geo / 4.0) + np.where(
        q_labels[:, None] == labels[..., None, :], 0.0, W_LABEL)


def transport_distance(a: Layout, b: Layout) -> TransportPlan:
    """Minimal transport cost between two non-empty layouts, solved exactly."""
    if not a.elements or not b.elements:
        raise EmptyLayout("transport distance is undefined for empty layouts")
    vocabulary = list({e.label for e in a.elements + b.elements})
    return solve_exact(_ground_costs(*_features(a, vocabulary), *_features(b, vocabulary)))


def ltsim_score(a: Layout, b: Layout) -> float:
    """Similarity exp(-distance) in (0, 1]; 1 iff distance is 0."""
    return math.exp(-transport_distance(a, b).cost)


def _check_size(count: int, what: str) -> None:
    if count > MAX_ELEMENTS:
        raise SchemaError(f"{what} has {count} elements; transport similarity "
                          f"supports at most {MAX_ELEMENTS}")


# --- persistent index -------------------------------------------------------

class RetrievalIndex:
    """Normalized index entries as the padded arrays that queries read.

    ``labels`` (N, n_max) holds each entry's label ids in stored order,
    padded with -1, and ``coords`` (N, n_max, 4) their cx, cy, w and h. The
    constructor derives ``counts`` (N,), ``hist`` (N, |vocabulary|), each
    entry's label histogram as fractions, and ``bound_groups``: per element
    count n, the positions of the entries with n elements and their
    coordinates (4, n, G), each sorted ascending along n. It raises
    SchemaError for arrays that do not fit together; for an entry that is
    empty, too large, or holds a label id outside the vocabulary or a
    non-finite coordinate; for an id or label that numpy's unicode arrays
    would not keep; and for a vocabulary that repeats a label, or ids that
    repeat one. ``positions`` maps each id to its row.
    """

    def __init__(self, vocabulary: Sequence[str], ids: Sequence[str], labels, coords):
        self.vocabulary, self.ids = (tuple(s.tolist() if isinstance(s, np.ndarray) else s)
                                     for s in (vocabulary, ids))
        # Every string must come back from a numpy unicode array, as an index
        # file stores them: numpy drops trailing NULs, turns numbers into
        # strings, and keeps other objects in an object array. Strings read
        # from one-dimensional unicode arrays, as ``load_index`` passes them,
        # came back from one already.
        strings = self.vocabulary + self.ids
        read_back = all(isinstance(s, np.ndarray) and s.dtype.kind == "U" and s.ndim == 1
                        for s in (vocabulary, ids))
        if strings and not read_back:
            try:
                stored = np.asarray(strings)
                kept = stored.dtype.kind == "U" and stored.tolist() == list(strings)
            except ValueError:  # an element that numpy reads as a sequence
                kept = False
            if not kept:
                bad = next(s for s in strings if not isinstance(s, str) or s.endswith("\0"))
                raise SchemaError(f"{bad!r} is not a string an index file can hold")
        if len(set(self.vocabulary)) < len(self.vocabulary):
            raise SchemaError(f"index vocabulary {self.vocabulary} repeats a label")
        self.positions = dict(zip(self.ids, range(len(self.ids))))
        if len(self.positions) < len(self.ids):
            repeated = next(rid for i, rid in enumerate(self.ids) if self.positions[rid] != i)
            raise SchemaError(f"index repeats id {repeated!r}")
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
        for fits, what in (
            (np.where(real, self.labels < vocab, self.labels == -1),
             f"label ids outside [0, {vocab}) or -1 before its last element"),
            (self.counts > 0, "no elements"),
            (np.isfinite(self.coords), "non-finite coordinates"),
        ):
            if not fits.all():  # only a faulty index pays for finding the entry
                faulty = ~fits.reshape(len(fits), -1).all(axis=1)
                raise SchemaError(f"index entry {self.ids[int(faulty.argmax())]!r} has {what}")
        if len(self.ids):
            _check_size(int(self.counts.max()),
                        f"index entry {self.ids[int(self.counts.argmax())]!r}")
        cells = (self.labels + vocab * np.arange(len(self.ids))[:, None])[real]
        self.hist = (np.bincount(cells, minlength=vocab * len(self.ids))
                     .reshape(len(self.ids), vocab) / self.counts[:, None])
        self.bound_groups = {}
        for n in np.unique(self.counts).tolist():
            positions = np.flatnonzero(self.counts == n)
            # Sorted along the last axis, which a C-order copy makes contiguous.
            group = self.coords[positions, :n].transpose(2, 0, 1).copy()
            group.sort(axis=2)
            self.bound_groups[n] = positions, group.transpose(0, 2, 1).copy()

    def __len__(self) -> int:
        return len(self.ids)

    def entries_html(self, positions: Sequence[int], canvas: Canvas) -> list[HtmlSnippet]:
        """The entries at ``positions`` as ``to_html`` writes them on
        ``canvas``, straight from the arrays: an element's box is
        ``(cx - w/2, cy - h/2, w, h)``, each value scaled by the canvas side
        and rounded half-up, ``floor(v * W + 0.5)``, the same IEEE operations
        as scaling the box with ``denormalize``."""
        rows = np.asarray(positions, dtype=np.int64)
        counts = self.counts[rows]
        n = int(counts.max(initial=0))
        centers, sizes = self.coords[rows, :n, :2], self.coords[rows, :n, 2:]
        side = np.array([canvas.width, canvas.height], dtype=np.float64)
        pixels = np.floor(np.concatenate(((centers - sizes / 2.0) * side, sizes * side), axis=2)
                          + 0.5).tolist()
        vocabulary, width, height = self.vocabulary, int(canvas.width), int(canvas.height)
        return [html_snippet(width, height, ((vocabulary[label], *box) for label, box
                                             in zip(labels[:count], boxes)))
                for labels, boxes, count in zip(self.labels[rows, :n].tolist(), pixels,
                                                 counts.tolist())]


def build_index(dataset: CanonicalDataset, split: str) -> RetrievalIndex:
    """Index one split's layouts on the unit canvas, each box value divided
    by its canvas (``unit_boxes``, bit for bit); empty layouts are skipped."""
    rows, element_labels, unit = dataset.split_elements(split)
    if not len(rows):
        raise EmptySplit(f"split {split!r} has no layouts to index")
    counts = dataset.counts[rows]
    if not counts.any():
        raise EmptySplit(f"split {split!r} has no layouts with elements to index")
    for row in rows[counts == 0].tolist():
        logger.warning("skipping layout %r: no elements to index", dataset.ids[row])
    if not counts.all():
        logger.warning("index over split %r skipped %d empty layouts",
                       split, len(rows) - np.count_nonzero(counts))
    kept, counts = rows[counts > 0], counts[counts > 0]
    real = np.arange(counts.max()) < counts[:, None]
    labels = np.full(real.shape, -1, dtype=np.int64)
    labels[real] = element_labels
    # Each center is left + width / 2.0, as _features computes it.
    left, top, width, height = unit.T
    coords = np.zeros(real.shape + (4,))
    coords[real] = np.stack((left + width / 2.0, top + height / 2.0, width, height), axis=1)
    return RetrievalIndex(dataset.manifest.vocabulary, [dataset.ids[row] for row in kept.tolist()],
                          labels, coords)


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """Write the index as an uncompressed numpy ``.npz`` archive to exactly
    ``path``; ``np.savez`` would add ``.npz`` to a path without it."""
    with open(path, "wb") as fh:
        np.savez(fh, version=INDEX_VERSION, vocabulary=index.vocabulary, ids=index.ids,
                 labels=index.labels, coords=index.coords,
                 weights=[W_GEO, W_LABEL])


def load_index(path: str | Path) -> RetrievalIndex:
    """Read an index that ``save_index`` wrote, through the validating
    constructor. A file that is not one, or whose cost weights are not
    ``[W_GEO, W_LABEL]``, raises SchemaError; another format version, such
    as a JSON index of version 1, raises VersionMismatch."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as data:
                version = str(data["version"])
                if version == INDEX_VERSION:
                    weights = data["weights"].tolist()
                    if weights != [W_GEO, W_LABEL]:
                        raise SchemaError(f"index {path} has cost weights {weights!r}, not "
                                          f"{[W_GEO, W_LABEL]!r}; rebuild it with "
                                          f"`layoutloom index build`")
                    return RetrievalIndex(data["vocabulary"], data["ids"],
                                          data["labels"], data["coords"])
        except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            fh.seek(0)
            try:
                version = json.load(fh)["version"]
            except (KeyError, TypeError, ValueError):
                raise SchemaError(f"{path} is not a layoutloom index") from exc
    raise VersionMismatch(f"index {path} has format version {version!r}, not "
                          f"{INDEX_VERSION!r}; rebuild it with `layoutloom index build`")


@functools.cache
def _quantile_segments(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of [0, 1] on which the quantile functions of a uniform
    m-point and a uniform n-point set are both constant: the sorted row each
    set uses on the piece, and the piece's length. Cached per (m, n), as
    read-only arrays."""
    unit = math.lcm(m, n)
    cuts = np.union1d(np.arange(0, unit + 1, unit // m), np.arange(0, unit + 1, unit // n))
    starts = cuts[:-1]
    segments = starts * m // unit, starts * n // unit, np.diff(cuts) / unit
    for array in segments:
        array.setflags(write=False)
    return segments


def transport_lower_bounds(q_labels: np.ndarray, q_feats: np.ndarray,
                           index: RetrievalIndex) -> np.ndarray:
    """A lower bound on the transport cost between a non-empty query, given
    by its ``_features``, and every index position, without ``BOUND_SLACK``.

    The bound is ``W_LABEL * TV + W_GEO * sum_coord W1 / 4`` (see the module
    docstring). Query labels outside the index vocabulary count fully as
    mismatched mass.
    """
    m = len(q_labels)
    inside = q_labels >= 0
    q_hist = np.bincount(q_labels[inside], minlength=len(index.vocabulary)) / m
    q_outside = np.count_nonzero(~inside) / m
    q_coords = np.sort(q_feats.T, axis=1)
    tv = 0.5 * (np.abs(index.hist - q_hist).sum(axis=1) + q_outside)
    w1 = np.empty(len(index))
    for n, (positions, coords) in index.bound_groups.items():
        qi, ei, length = _quantile_segments(m, n)
        gaps = coords[:, ei] - q_coords[:, qi, None]
        w1[positions] = length @ np.abs(gaps, out=gaps).sum(axis=0)
    return W_LABEL * tv + W_GEO * (w1 / 4.0)


# Temperatures of the entropic dual ascent in ``dual_lower_bounds``, largest
# first. Annealing down to a small temperature brings the potentials close to
# an optimal dual; fewer steps give looser, still valid, bounds.
DUAL_TEMPERATURES = tuple(np.geomspace(0.2, 0.001, 30).tolist())
# Entries per dual-bound batch in ``topk_retrieve``, and the anneal steps
# after which ``dual_lower_bounds`` drops the rows already ruled out. On
# PubLayNet-shaped indexes of 500 and 100k entries, these steps annealed 45%
# and 80% fewer cells than no checkpoint, at the same solves. Batches of 16
# annealed fewer cells but ran slower and solved more; 64 or 128 annealed more.
DUAL_BATCH = 32
DUAL_CHECKPOINTS = (3, 6, 12, 20)


def _smooth_max(x: np.ndarray, eps: float, axis: int) -> np.ndarray:
    """eps * log(sum(exp(x / eps))) along ``axis``; overwrites ``x``."""
    top = x.max(axis=axis, keepdims=True)
    x -= top
    x *= 1.0 / eps
    np.exp(x, out=x)
    return top.squeeze(axis) + eps * np.log(x.sum(axis=axis))


def _feasible_dual(costs: np.ndarray, f: np.ndarray, real: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """mean(u) + mean(v) for the potentials u = f and their c-transform
    v_j = min_i (cost_ij - u_i), which make the pair feasible exactly."""
    u = f.astype(np.float64)
    v = np.where(real, (costs - u[:, :, None]).min(axis=1), 0.0)
    return u.sum(axis=1) / costs.shape[1] + v.sum(axis=1) / counts


def dual_lower_bounds(costs: np.ndarray, counts: np.ndarray,
                      ruled_out: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
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

    With ``ruled_out``, a vectorized predicate over bounds, the bound of
    the rows still annealed is also taken after each step in
    ``DUAL_CHECKPOINTS``, and the rows it rules out stop there with that
    bound, which is as valid as the final one.
    """
    real = np.arange(costs.shape[2]) < counts[:, None]  # (G, n_max)
    # The ascent runs in float32: the c-transform makes any potentials
    # feasible, so their precision only affects how tight the bound is.
    cost32 = costs.astype(np.float32)
    log_a = np.float32(-math.log(costs.shape[1]))
    log_b = np.where(real, -np.log(counts)[:, None], -np.inf).astype(np.float32)
    f = np.zeros(costs.shape[:2], dtype=np.float32)
    g = np.zeros((len(costs), costs.shape[2]), dtype=np.float32)
    bounds = np.empty(len(costs))
    rows = np.arange(len(costs))  # the rows still annealed
    for step, eps in enumerate(DUAL_TEMPERATURES, 1):
        f = -_smooth_max((g + eps * log_b)[:, None, :] - cost32, eps, 2)
        g = -_smooth_max((f + eps * log_a)[:, :, None] - cost32, eps, 1)
        if ruled_out is None or step not in DUAL_CHECKPOINTS:
            continue
        checked = _feasible_dual(costs, f, real, counts)
        out = ruled_out(checked)
        if out.any():
            bounds[rows[out]] = checked[out]
            keep = ~out
            rows, costs, cost32, real, counts, log_b, f, g = (
                a[keep] for a in (rows, costs, cost32, real, counts, log_b, f, g))
            if not len(rows):
                return bounds
    bounds[rows] = _feasible_dual(costs, f, real, counts)
    return bounds


def _entry_costs(q_labels: np.ndarray, q_feats: np.ndarray, index: RetrievalIndex,
                 rows: Sequence[int]) -> np.ndarray:
    """Ground costs (len(rows), m, n) between a query and the entries at
    ``rows``, n their largest element count, with centers rebuilt from each
    box ``(cx - w/2, cy - h/2, w, h)`` as ``(cx - w/2) + w/2``, so each cost
    is bitwise ``transport_distance``'s on the layout of those boxes."""
    n = int(index.counts[rows].max(initial=0))
    coords = index.coords[rows, :n]
    half = coords[:, :, 2:] / 2.0
    feats = np.concatenate(((coords[:, :, :2] - half) + half, coords[:, :, 2:]), axis=2)
    return _ground_costs(q_labels, q_feats, index.labels[rows, :n], feats)


def topk_retrieve(query: Layout, index: RetrievalIndex, k: int,
                  exclude_self: bool = False) -> list[tuple[str, float]]:
    """The k index entries most similar to the query, descending.

    Equal to a full scan sorted by (-similarity, id), floats included: only
    entries that the transport lower bounds cannot rule out are solved (see
    the module docstring). ``k`` larger than the index returns everything.
    With ``exclude_self`` an entry whose id equals the query's id is left out.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not len(index):
        raise EmptyIndex("cannot retrieve from an empty index")
    if not query.elements:
        raise EmptyLayout("retrieval query has no elements")
    _check_size(len(query.elements), "retrieval query")
    q_labels, q_feats = _features(query, index.vocabulary)
    bounds = transport_lower_bounds(q_labels, q_feats, index)
    pool = np.arange(len(index))
    if exclude_self and query.id in index.positions:
        pool = np.delete(pool, index.positions[query.id])
    best: list[tuple[float, str]] = []  # (-similarity, id), ascending

    def ruled_out(bound):
        # A bound similarity below the k-th similarity rules an entry out.
        # Each similarity is a math.exp, and np.exp may differ from it in the
        # last bits, so a margin of a few units in the last place keeps every
        # entry whose similarity could reach the k-th.
        kth = -best[-1][0]
        return np.exp(BOUND_SLACK - bound) < kth - 4 * np.spacing(kth)

    def solve(pos: int, cost: np.ndarray) -> None:
        sim = math.exp(-solve_exact(cost[:, :index.counts[pos]]).cost)
        bisect.insort(best, (-sim, index.ids[pos]))
        del best[k:]

    # The first k entries in (bound, position) order set the k-th similarity;
    # only those with a bound up to the k-th smallest are sorted.
    pool_bounds = bounds[pool]
    head = pool
    if k < len(pool):
        within = np.flatnonzero(pool_bounds <= np.partition(pool_bounds, k - 1)[k - 1])
        head = pool[within[np.argsort(pool_bounds[within], kind="stable")[:k]]]
    for pos, cost in zip(head.tolist(), _entry_costs(q_labels, q_feats, index, head)):
        solve(pos, cost)
    if len(head) == len(pool):
        return [(rid, -neg) for neg, rid in best]
    # The entries the first bound cannot rule out, in (bound, position)
    # order, get the dual bound in batches. The k-th similarity only rises,
    # so an entry ruled out once stays out: a batch whose first entry is
    # ruled out ends the scan, and rows ruled out mid-anneal are dropped.
    survives = ~ruled_out(pool_bounds)
    survives[np.searchsorted(pool, head)] = False
    rest = pool[survives]
    rest = rest[np.argsort(bounds[rest], kind="stable")]
    for start in range(0, len(rest), DUAL_BATCH):
        if ruled_out(bounds[rest[start]]):
            break
        batch = rest[start:start + DUAL_BATCH]
        batch = batch[~ruled_out(bounds[batch])]
        costs = _entry_costs(q_labels, q_feats, index, batch)
        tighter = np.maximum(bounds[batch],
                             dual_lower_bounds(costs, index.counts[batch], ruled_out))
        for i in np.argsort(tighter, kind="stable").tolist():
            if ruled_out(tighter[i]):
                break
            solve(int(batch[i]), costs[i])
    return [(rid, -neg) for neg, rid in best]


def pseudo_layout(categories: Mapping[str, int], stats: AreaStats | None = None) -> Layout:
    """Build a retrieval query for tasks that provide categories but no boxes.

    Each required category contributes square boxes centered on the unit
    canvas, sized so their area equals the label's training-set mean (or
    ``PSEUDO_DEFAULT_AREA`` when the statistics do not have the label).
    More than ``MAX_ELEMENTS`` boxes raise SchemaError before any is built.
    """
    if not categories:
        raise EmptyLayout("cannot build a pseudo layout from zero categories")
    _check_size(sum(max(1, int(count)) for count in categories.values()), "retrieval query")
    elements = []
    for label, count in categories.items():
        area = PSEUDO_DEFAULT_AREA
        if stats is not None and label in stats:
            area = stats[label]
        side = min(1.0, math.sqrt(max(area, 0.0)))
        offset = (1.0 - side) / 2.0
        for _ in range(max(1, int(count))):
            elements.append(Element(label=label, bbox=BBox(offset, offset, side, side)))
    return Layout(id="", canvas=Canvas(1, 1), elements=tuple(elements))
