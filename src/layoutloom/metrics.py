"""Quantitative layout evaluation.

Graphic metrics (alignment, overlap, maximum IoU, underlay effectiveness,
validity) are defined on unit coordinates and therefore invariant to canvas
pixel scale, so pixel-space and unit-canvas layouts give identical values.
Only the entry points, ``layout_samples``, ``size_reasonableness`` and
``population_report``, take a Layout and convert it with
``model.unit_boxes``; every other metric reads the ``UnitBoxes`` it is
handed, so ``layout_samples`` converts a layout once and its reference once.
The intersection area of two boxes has one definition, ``_intersections``.
Content metrics (occlusion, utilization, readability) read ingested
saliency/gradient rasters with pixel membership decided by the pixel center;
occlusion and utilization share one coverage mask. The size-reasonableness score
compares per-label mean areas against training-set references inside the
fixed log-symmetric tolerance band of ``DEFAULT_TOLERANCE_RATIO`` = 1.1:

    r_i = mean_area_i / train_mean_area_i
    d_i = |ln r_i|,  tau = ln(1.1)
    score_i = exp(-max(0, d_i - tau))
    aggregate = exp(-sqrt(mean_i max(0, d_i - tau)^2))

so a label scores 1 exactly when r_i lies in [1/1.1, 1.1] and decays
exponentially beyond the band. All reductions use exact summation so results
do not depend on element order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import AreaStats, SaliencyRaster
from .errors import (
    DimensionMismatch,
    EmptyLayout,
    MissingLabelStats,
    ZeroTrainingArea,
)
from .model import Layout, UnitBoxes, unit_boxes

DEFAULT_TOLERANCE_RATIO = 1.1

# The unit canvas as a box, and the least share of it a valid element covers.
_UNIT = np.array([0.0, 0.0, 1.0, 1.0])
MIN_AREA_RATIO = 0.001


# --- graphic metrics --------------------------------------------------------

def _intersections(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection areas of the (left, top, width, height) boxes ``a`` and
    ``b`` (..., 4), broadcast together; 0 where they do not meet. An extent
    is ``min(ends) - max(starts)`` with Python's ``min`` and ``max`` argument
    order, ``a`` first, so NaN coordinates give what a loop gives."""
    start_a, start_b = a[..., :2], b[..., :2]
    with np.errstate(invalid="ignore", over="ignore"):
        end_a, end_b = start_a + a[..., 2:], start_b + b[..., 2:]
        extent = (np.where(end_b < end_a, end_b, end_a)
                  - np.where(start_b > start_a, start_b, start_a))
        w, h = extent[..., 0], extent[..., 1]
        return np.where((w <= 0.0) | (h <= 0.0), 0.0, w * h)


def _areas(ltwh: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        return ltwh[..., 2] * ltwh[..., 3]


def alignments(boxes: UnitBoxes) -> list[float]:
    """Mean nearest-anchor gap of each layout: 0 when every element shares
    an anchor line.

    For each element, take the minimum absolute difference between any of
    its six anchors (left, x-center, right, top, y-center, bottom) and the
    same anchor of any other element; average over elements with
    ``math.fsum``. A NaN gap (from infinite coordinates) is never the
    minimum. A single-element layout is perfectly aligned by definition; an
    empty one raises EmptyLayout.
    """
    if 0 in boxes.counts:
        raise EmptyLayout("alignment is undefined for an empty layout")
    start, size = boxes.ltwh[:, :, :2], boxes.ltwh[:, :, 2:]
    with np.errstate(invalid="ignore", over="ignore"):
        anchors = np.concatenate((start, start + size / 2.0, start + size), axis=2)
        gaps = np.abs(anchors[:, :, None] - anchors[:, None])
    layouts, n = gaps.shape[:2]
    gaps[:, np.arange(n), np.arange(n)] = np.inf  # an element's own anchors
    # fmin passes NaN over, as a scan keeping ``gap < best`` does; the
    # padding is NaN too.
    best = np.fmin.reduce(gaps.reshape(layouts, n, 6 * n), axis=2).tolist()
    return [0.0 if count == 1 else math.fsum(row[:count]) / count
            for row, count in zip(best, boxes.counts)]


def overlaps(boxes: UnitBoxes, exclude_labels: Iterable[str] = ()) -> list[float]:
    """Total pairwise intersection area over total element area, per layout,
    each a ``math.fsum``.

    Elements whose label is excluded take part in neither the pairs nor the
    denominator. Zero or one participating element, or a denominator that
    is not positive, gives 0. A pair's intersection is
    :func:`_intersections` of the earlier element and the later one.
    """
    n = boxes.ltwh.shape[1]
    keep = np.arange(n) < np.array(boxes.counts, dtype=np.int64)[:, None]
    excluded = set(exclude_labels)
    if excluded:
        keep[keep] = np.fromiter((label not in excluded for label in boxes.labels),
                                 dtype=bool, count=len(boxes.labels))
    pairs = keep[:, :, None] & keep[:, None] & (np.arange(n)[:, None] < np.arange(n))
    inter = _intersections(boxes.ltwh[:, :, None], boxes.ltwh[:, None])
    areas = _areas(boxes.ltwh)
    # Left-out pairs and elements count as exact zeros, which change no fsum.
    inter_rows = np.where(pairs, inter, 0.0).reshape(len(inter), -1).tolist()
    area_rows = np.where(keep, areas, 0.0).tolist()
    out = []
    for area_row, inter_row, count in zip(area_rows, inter_rows, keep.sum(axis=1).tolist()):
        denom = math.fsum(area_row) if count >= 2 else 0.0
        out.append(0.0 if denom <= 0.0 else math.fsum(inter_row) / denom)
    return out


def validities(boxes: UnitBoxes) -> list[float]:
    """Share of valid elements in each layout; 1 for an empty layout.

    An element is valid when its area is at least ``MIN_AREA_RATIO`` of the
    canvas and it meets the unit canvas in a positive area.
    """
    # Padding is NaN, so it is never valid.
    valid = (_areas(boxes.ltwh) >= MIN_AREA_RATIO) & (_intersections(boxes.ltwh, _UNIT) > 0.0)
    return [k / count if count else 1.0
            for k, count in zip(valid.sum(axis=1).tolist(), boxes.counts)]


def max_iou(generated: UnitBoxes, reference: UnitBoxes) -> float:
    """Mean IoU of two one-layout boxes under the best label-preserving
    one-to-one matching.

    Within each label the pairing maximizes total IoU (assignment problem);
    elements without a partner contribute 0. The denominator counts
    max(generated, reference) occurrences per label, which makes the metric
    symmetric and equal to 1 only for an exact label-preserving bijection.
    """
    if not generated.labels or not reference.labels:
        raise EmptyLayout("maximum IoU needs two non-empty layouts")
    gen, ref = generated.ltwh[0, :, None], reference.ltwh[0]
    inter = _intersections(gen, ref)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        union = _areas(gen) + _areas(ref) - inter
        iou = np.where(union <= 0.0, 0.0, inter / union)
    gen_labels, ref_labels = generated.labels, reference.labels

    total = 0.0
    slots = 0
    for label in sorted(set(gen_labels) | set(ref_labels)):
        g = [i for i, other in enumerate(gen_labels) if other == label]
        r = [j for j, other in enumerate(ref_labels) if other == label]
        slots += max(len(g), len(r))
        if not g or not r:
            continue
        scores = iou[np.ix_(g, r)]
        rows, cols = linear_sum_assignment(scores, maximize=True)
        total += math.fsum(scores[rows, cols].tolist())
    return total / slots


def underlay_effectiveness(boxes: UnitBoxes) -> tuple[float, float] | None:
    """Loose and strict underlay effectiveness of one layout's boxes; None
    without an underlay.

    Loose is the mean, over underlays, of the best share of a content
    element's area that the underlay covers; strict is the fraction of
    underlays that fully contain at least one content element.
    """
    is_under = np.array([label == "underlay" for label in boxes.labels], dtype=bool)
    unders, content = boxes.ltwh[0, is_under], boxes.ltwh[0, ~is_under]
    if not len(unders):
        return None
    areas = _areas(content)[:, None]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        ratios = np.where(areas <= 0.0, 0.0, _intersections(content[:, None], unders) / areas)
    # A NaN ratio is never the best, as in a loop keeping ``ratio > best``.
    best = np.fmax.reduce(ratios, axis=0, initial=0.0)
    u_start, c_start = unders[:, None, :2], content[:, :2]
    with np.errstate(invalid="ignore", over="ignore"):
        u_end, c_end = u_start + unders[:, None, 2:], c_start + content[:, 2:]
    contains = ((u_start <= c_start) & (u_end >= c_end)).all(axis=2)
    return (math.fsum(best.tolist()) / len(best),
            int(np.count_nonzero(contains.any(axis=1))) / len(unders))


# --- content metrics --------------------------------------------------------

def _coverage_mask(ltwh: np.ndarray, raster: SaliencyRaster) -> np.ndarray:
    """The raster's boolean pixel grid; a pixel is covered when its center
    falls in one of the unit boxes ``ltwh`` (n, 4). Edges are clamped to the
    grid before they become integers."""
    width, height = raster.width, raster.height
    side = np.array([width, height] * 2, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        edges = np.concatenate((ltwh[:, :2], ltwh[:, :2] + ltwh[:, 2:]), axis=1)
        bounds = np.ceil(np.clip(edges * side - 0.5, 0.0, side))
    mask = np.zeros((height, width), dtype=bool)
    for x0, y0, x1, y1 in bounds.tolist():
        x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
        if x1 > x0 and y1 > y0:
            mask[y0:y1, x0:x1] = True
    return mask


def _check_raster(raster: SaliencyRaster) -> None:
    if raster.width <= 0 or raster.height <= 0 or raster.values.size == 0:
        raise DimensionMismatch("raster has no pixels")


def _mean_under(mask: np.ndarray, raster: SaliencyRaster) -> float:
    """Mean raster value over the covered pixels; 0 when none is covered."""
    covered = int(mask.sum())
    if covered == 0:
        return 0.0
    return float(raster.values[mask].sum() / covered)


def occlusion_utilization(boxes: UnitBoxes, saliency: SaliencyRaster) -> tuple[float, float]:
    """Occlusion and utilization of one layout's boxes: the mean saliency
    under its elements, 0 when nothing is covered, and the share of the
    non-salient mass that they cover."""
    _check_raster(saliency)
    mask = _coverage_mask(boxes.ltwh[0], saliency)
    nonsalient = 1.0 - saliency.values
    denom = float(nonsalient.sum())
    utilization = 0.0 if denom <= 0.0 or not mask.any() else \
        float(nonsalient[mask].sum() / denom)
    return _mean_under(mask, saliency), utilization


def readability(boxes: UnitBoxes, gradient: SaliencyRaster) -> float | None:
    """Mean gradient intensity under one layout's text elements; None without text."""
    _check_raster(gradient)
    is_text = np.array([label == "text" for label in boxes.labels], dtype=bool)
    if not is_text.any():
        return None
    return _mean_under(_coverage_mask(boxes.ltwh[0, is_text], gradient), gradient)


# --- size reasonableness ----------------------------------------------------

@dataclass(frozen=True)
class ReScore:
    """Per-label size ratios, log deviations, scores, and their aggregate."""

    ratios: Mapping[str, float]
    deviations: Mapping[str, float]
    scores: Mapping[str, float]
    value: float


def size_reasonableness(population: Sequence[Layout], stats: AreaStats) -> ReScore:
    """Aggregate size-reasonableness of a generated population.

    See the module docstring for the formula. Every label occurring in the
    population must have a positive training-set mean area.
    """
    if not population:
        raise EmptyLayout("size reasonableness needs a non-empty population")
    tau = math.log(DEFAULT_TOLERANCE_RATIO)
    boxes = unit_boxes(population)
    real = np.arange(boxes.ltwh.shape[1]) < np.array(boxes.counts)[:, None]
    areas: dict[str, list[float]] = {}
    for label, area in zip(boxes.labels, _areas(boxes.ltwh)[real].tolist()):
        areas.setdefault(label, []).append(area)

    ratios: dict[str, float] = {}
    deviations: dict[str, float] = {}
    scores: dict[str, float] = {}
    excesses: list[float] = []
    for label in sorted(areas):
        if label not in stats:
            raise MissingLabelStats(f"no training-set area for label {label!r}")
        reference = stats[label]
        if reference <= 0.0:
            raise ZeroTrainingArea(f"training-set mean area for {label!r} is zero")
        mean_area = math.fsum(areas[label]) / len(areas[label])
        ratio = mean_area / reference
        deviation = abs(math.log(ratio)) if ratio > 0.0 else math.inf
        excess = max(0.0, deviation - tau)
        ratios[label] = ratio
        deviations[label] = deviation
        scores[label] = math.exp(-excess)
        excesses.append(excess)

    rms = math.sqrt(math.fsum(x * x for x in excesses) / len(excesses))
    return ReScore(ratios=ratios, deviations=deviations, scores=scores,
                   value=math.exp(-rms))


# --- population report ------------------------------------------------------

CONTENT_AWARE_COLUMNS = ("occ", "rea", "uti", "align", "und_l", "und_s", "overlap", "val", "r_e")
CONSTRAINT_COLUMNS = ("miou", "align", "overlap", "val")

# Why a per-layout metric has no value when no layout of the population has a
# sample for it, in report order.
_SKIP_REASONS = {
    "align": "no_elements",
    "overlap": "empty_population",
    "val": "empty_population",
    "und_l": "no_underlay",
    "und_s": "no_underlay",
    "miou": "no_references",
    "occ": "no_saliency",
    "uti": "no_saliency",
    "rea": "no_gradient",
}


def family_metrics(task_family: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The columns a task family reports, and the labels its overlap leaves out."""
    if task_family == "content_aware":
        return CONTENT_AWARE_COLUMNS, ("underlay",)
    return CONSTRAINT_COLUMNS, ()


@dataclass(frozen=True)
class MetricReport:
    values: Mapping[str, float]
    applicability: Mapping[str, str]
    population_size: int


def layout_samples(layout: Layout, reference: Layout | None = None,
                   saliency: SaliencyRaster | None = None,
                   gradient: SaliencyRaster | None = None,
                   exclude_overlap_labels: Iterable[str] = ()) -> dict[str, float]:
    """``{metric: value}`` for each per-layout metric that applies to ``layout``.

    Alignment needs elements, maximum IoU a non-empty layout and reference,
    underlay effectiveness an underlay, occlusion and utilization a saliency
    raster, and readability a gradient raster and a text element. The layout
    and the reference are each converted to unit boxes once.
    """
    samples = {}
    boxes = unit_boxes([layout])
    if layout.elements:
        samples["align"] = alignments(boxes)[0]
    samples["overlap"] = overlaps(boxes, exclude_overlap_labels)[0]
    samples["val"] = validities(boxes)[0]
    if (underlay := underlay_effectiveness(boxes)) is not None:
        samples["und_l"], samples["und_s"] = underlay
    if layout.elements and reference is not None and reference.elements:
        samples["miou"] = max_iou(boxes, unit_boxes([reference]))
    if saliency is not None:
        samples["occ"], samples["uti"] = occlusion_utilization(boxes, saliency)
    if gradient is not None and (value := readability(boxes, gradient)) is not None:
        samples["rea"] = value
    return samples


def population_report(generated: Sequence[Layout], samples: Sequence[Mapping[str, float]],
                      stats: AreaStats | None = None,
                      metrics: Iterable[str] | None = None) -> MetricReport:
    """Aggregate a generated population's metrics.

    ``samples[i]`` holds ``layout_samples`` of ``generated[i]``. Each
    per-layout metric is the mean over the layouts that have a sample for it;
    a metric no layout has carries its skip reason. Size reasonableness is
    scored over the non-empty layouts, and skipped when one of their labels
    has no positive training-set area. ``metrics`` limits the report to
    those names.
    """
    wanted = set(metrics) if metrics is not None else None
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for name, why_empty in _SKIP_REASONS.items():
        if wanted is not None and name not in wanted:
            continue
        column = [s[name] for s in samples if name in s]
        if column:
            values[name] = math.fsum(column) / len(column)
            notes[name] = "computed"
        else:
            notes[name] = f"skipped({why_empty})"

    if wanted is None or "r_e" in wanted:
        non_empty = [lay for lay in generated if lay.elements]
        if stats is None or not non_empty:
            notes["r_e"] = "skipped(no_area_stats)" if stats is None else "skipped(no_elements)"
        else:
            try:
                values["r_e"] = size_reasonableness(non_empty, stats).value
                notes["r_e"] = "computed"
            except MissingLabelStats:
                notes["r_e"] = "skipped(missing_label_stats)"
            except ZeroTrainingArea:
                notes["r_e"] = "skipped(zero_training_area)"

    return MetricReport(values=values, applicability=notes,
                        population_size=len(generated))


def report_rows(report: MetricReport, columns: Sequence[str]) -> list[tuple[str, str]]:
    """(metric, formatted value) pairs for tabular output; skipped shows the reason."""
    rows = []
    for name in columns:
        if name in report.values:
            rows.append((name, f"{report.values[name]:.6f}"))
        else:
            rows.append((name, report.applicability.get(name, "skipped(not_requested)")))
    return rows


def write_metrics_tsv(report: MetricReport, columns: Sequence[str],
                      path: str | Path) -> None:
    rows = report_rows(report, columns)
    lines = [
        "\t".join(name for name, _ in rows),
        "\t".join(value for _, value in rows),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
