"""Shared fixtures: layout builders, a scripted offline LLM, and the bundled
five-item content-aware replay fixture used by pipeline and acceptance tests.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from layoutloom.dataset import (
    DatasetManifest,
    SaliencyRaster,
    compute_area_stats,
    ingest,
    layout_to_record,
    record_to_layout,
    save_area_stats,
    save_manifest,
    save_raster,
    write_jsonl,
)
from layoutloom.errors import (
    EmptyLayout,
    MissingLabelStats,
    SchemaError,
    VocabularyError,
    ZeroTrainingArea,
)
from layoutloom.metrics import ReScore
from layoutloom.model import BBox, Canvas, Element, Layout, label_counts
from layoutloom.pipeline import run_task
from layoutloom.retrieval import RetrievalIndex, build_index, save_index
from layoutloom.transport import TransportPlan

CANVAS_W, CANVAS_H = 513, 750
VOCAB = ("text", "logo", "underlay")


def make_layout(layout_id, canvas, boxes, labels=None):
    """boxes: iterable of (left, top, width, height); labels default to 'text'."""
    labels = labels or ["text"] * len(boxes)
    elements = tuple(
        Element(label=lab, bbox=BBox(*box)) for lab, box in zip(labels, boxes)
    )
    return Layout(id=layout_id, canvas=Canvas(*canvas), elements=elements)


def random_pixel_layout(rng, layout_id="", max_elements=8, vocabulary=("text", "logo", "underlay")):
    """Integer-pixel layout with at least one element, canvas up to 1200px."""
    w = int(rng.integers(16, 1200))
    h = int(rng.integers(16, 1200))
    count = int(rng.integers(1, max_elements + 1))
    elements = []
    for _ in range(count):
        bw = int(rng.integers(1, w))
        bh = int(rng.integers(1, h))
        left = int(rng.integers(0, max(1, w - bw + 1)))
        top = int(rng.integers(0, max(1, h - bh + 1)))
        label = str(rng.choice(list(vocabulary)))
        elements.append(Element(label=label, bbox=BBox(left, top, bw, bh)))
    return Layout(id=layout_id, canvas=Canvas(w, h), elements=tuple(elements))


def random_normalized_layout(rng, layout_id="", max_elements=3,
                             vocabulary=("text", "logo", "underlay")):
    count = int(rng.integers(1, max_elements + 1))
    elements = []
    for _ in range(count):
        bw = float(rng.uniform(0.05, 0.6))
        bh = float(rng.uniform(0.05, 0.6))
        left = float(rng.uniform(0.0, 1.0 - bw))
        top = float(rng.uniform(0.0, 1.0 - bh))
        label = str(rng.choice(list(vocabulary)))
        elements.append(Element(label=label, bbox=BBox(left, top, bw, bh)))
    return Layout(id=layout_id, canvas=Canvas(1, 1), elements=tuple(elements))


def center(box):
    """A box's center, each coordinate ``left + width / 2.0``."""
    return box.left + box.width / 2.0, box.top + box.height / 2.0


def make_index(entries, vocabulary=VOCAB):
    """RetrievalIndex over (id, normalized layout) pairs, each layout's
    elements in order and padded with -1 labels to the largest layout."""
    label_id = {label: i for i, label in enumerate(vocabulary)}
    n_max = max((len(layout.elements) for _, layout in entries), default=0)
    labels = np.full((len(entries), n_max), -1)
    coords = np.zeros((len(entries), n_max, 4))
    for row, (_, layout) in enumerate(entries):
        for col, e in enumerate(layout.elements):
            labels[row, col] = label_id[e.label]
            coords[row, col] = (*center(e.bbox), e.bbox.width, e.bbox.height)
    return RetrievalIndex(vocabulary, [entry_id for entry_id, _ in entries], labels, coords)


@st.composite
def _messy_value(draw, scale, low, high):
    unit = draw(st.one_of(st.floats(low, high), st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    return draw(st.sampled_from([unit * scale, float(round(unit * scale))]))


@st.composite
def messy_layouts(draw, min_elements=1, max_elements=25, vocabulary=VOCAB):
    """Layouts whose boxes repeat, have zero width or height, or lie partly or
    wholly off the canvas; box values are whole or fractional, on the unit
    canvas or a pixel one."""
    width, height = draw(st.sampled_from([(1, 1), (513, 750), (400, 300), (7, 3)]))
    box = st.tuples(_messy_value(width, -0.5, 1.5), _messy_value(height, -0.5, 1.5),
                    _messy_value(width, 0.0, 1.2), _messy_value(height, 0.0, 1.2))
    distinct = draw(st.lists(st.tuples(st.sampled_from(vocabulary), box),
                             min_size=1, max_size=max_elements))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=min_elements, max_size=max_elements))
    return Layout(id="", canvas=Canvas(width, height),
                  elements=tuple(Element(distinct[i][0], BBox(*distinct[i][1])) for i in picks))


# --- the object path for unit coordinates: a normalized Layout copy ----------
#
# The metrics, the ranker's constraint check and retrieval's features once
# read a copy of each layout rescaled into the unit square, one Element and
# one BBox per element, with BBox methods for intersection and containment.
# The readers of ``unit_boxes`` must give the same values bit for bit, except
# where this path raised OverflowError; these functions are that path, kept
# as its oracle.

def normalize(layout):
    """The layout rescaled into the unit square, each value ``x / W``;
    a layout already on the unit canvas is returned unchanged."""
    if layout.is_normalized:
        return layout
    w = float(layout.canvas.width)
    h = float(layout.canvas.height)
    elements = tuple(
        Element(e.label, BBox(e.bbox.left / w, e.bbox.top / h,
                              e.bbox.width / w, e.bbox.height / h))
        for e in layout.elements
    )
    return Layout(id=layout.id, canvas=Canvas(1, 1), elements=elements)


def intersection_area(a, b):
    w = min(a.right, b.right) - max(a.left, b.left)
    h = min(a.bottom, b.bottom) - max(a.top, b.top)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def contains(outer, inner):
    return (outer.left <= inner.left and outer.top <= inner.top
            and outer.right >= inner.right and outer.bottom >= inner.bottom)


_UNIT = BBox(0.0, 0.0, 1.0, 1.0)


def object_path_validity(layout, min_area_ratio=0.001):
    """Share of elements with enough area that meet the unit canvas."""
    flags = [e.bbox.area >= min_area_ratio and intersection_area(e.bbox, _UNIT) > 0.0
             for e in normalize(layout).elements]
    return sum(flags) / len(flags) if flags else 1.0


def _iou(a, b):
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def object_path_max_iou(generated, reference):
    if not generated.elements or not reference.elements:
        raise EmptyLayout("maximum IoU needs two non-empty layouts")
    by_label_gen, by_label_ref = {}, {}
    for e in normalize(generated).elements:
        by_label_gen.setdefault(e.label, []).append(e.bbox)
    for e in normalize(reference).elements:
        by_label_ref.setdefault(e.label, []).append(e.bbox)
    total = 0.0
    slots = 0
    for label in sorted(set(by_label_gen) | set(by_label_ref)):
        g = by_label_gen.get(label, [])
        r = by_label_ref.get(label, [])
        slots += max(len(g), len(r))
        if not g or not r:
            continue
        scores = np.array([[_iou(gb, rb) for rb in r] for gb in g])
        rows, cols = linear_sum_assignment(scores, maximize=True)
        total += math.fsum(float(scores[i, j]) for i, j in zip(rows, cols))
    return total / slots


def _underlays_and_content(layout, underlay_label):
    lay = normalize(layout)
    return ([e.bbox for e in lay.elements if e.label == underlay_label],
            [e.bbox for e in lay.elements if e.label != underlay_label])


def object_path_underlay_loose(layout, underlay_label="underlay"):
    unders, content = _underlays_and_content(layout, underlay_label)
    if not unders:
        return None
    scores = []
    for u in unders:
        best = 0.0
        for c in content:
            if c.area <= 0.0:
                continue
            best = max(best, intersection_area(c, u) / c.area)
        scores.append(best)
    return math.fsum(scores) / len(scores)


def object_path_underlay_strict(layout, underlay_label="underlay"):
    unders, content = _underlays_and_content(layout, underlay_label)
    if not unders:
        return None
    return sum(1 for u in unders if any(contains(u, c) for c in content)) / len(unders)


def object_path_coverage_mask(layout, width, height, labels=None):
    wanted = set(labels) if labels is not None else None
    mask = np.zeros((height, width), dtype=bool)
    for e in normalize(layout).elements:
        if wanted is not None and e.label not in wanted:
            continue
        b = e.bbox
        x0 = max(0, math.ceil(b.left * width - 0.5))
        x1 = min(width, math.ceil(b.right * width - 0.5))
        y0 = max(0, math.ceil(b.top * height - 0.5))
        y1 = min(height, math.ceil(b.bottom * height - 0.5))
        if x1 > x0 and y1 > y0:
            mask[y0:y1, x0:x1] = True
    return mask


def object_path_samples(layout, reference=None, saliency=None, gradient=None,
                        exclude_overlap_labels=()):
    """``metrics.layout_samples`` on the object path."""
    samples = {}
    if layout.elements:
        samples["align"] = scalar_alignment(layout)
    samples["overlap"] = scalar_overlap(layout, exclude_overlap_labels)
    samples["val"] = object_path_validity(layout)
    for name, metric in (("und_l", object_path_underlay_loose),
                         ("und_s", object_path_underlay_strict)):
        if (value := metric(layout)) is not None:
            samples[name] = value
    if layout.elements and reference is not None and reference.elements:
        samples["miou"] = object_path_max_iou(layout, reference)
    if saliency is not None:
        mask = object_path_coverage_mask(layout, saliency.width, saliency.height)
        covered = int(mask.sum())
        samples["occ"] = 0.0 if covered == 0 else \
            float(saliency.values[mask].sum() / covered)
        nonsalient = 1.0 - saliency.values
        denom = float(nonsalient.sum())
        samples["uti"] = 0.0 if denom <= 0.0 or not mask.any() else \
            float(nonsalient[mask].sum() / denom)
    if gradient is not None and any(e.label == "text" for e in layout.elements):
        mask = object_path_coverage_mask(layout, gradient.width, gradient.height, ["text"])
        covered = int(mask.sum())
        samples["rea"] = 0.0 if covered == 0 else \
            float(gradient.values[mask].sum() / covered)
    return samples


def object_path_size_reasonableness(population, stats, tolerance_ratio=1.1):
    if not population:
        raise EmptyLayout("size reasonableness needs a non-empty population")
    tau = math.log(tolerance_ratio)
    areas = {}
    for layout in population:
        for e in normalize(layout).elements:
            areas.setdefault(e.label, []).append(e.bbox.area)
    ratios, deviations, scores, excesses = {}, {}, {}, []
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
    return ReScore(ratios=ratios, deviations=deviations, scores=scores, value=math.exp(-rms))


def object_path_features(layout, vocabulary):
    """``retrieval._features`` on the object path."""
    label_ids = {label: i for i, label in enumerate(vocabulary)}
    elements = normalize(layout).elements
    return (np.array([label_ids.get(e.label, -2) for e in elements]),
            np.array([(*center(e.bbox), e.bbox.width, e.bbox.height) for e in elements]))


def object_path_match_slots(candidate, labels):
    """The i-th candidate box of each label for the i-th slot of that label."""
    pools, taken, out = {}, {}, []
    for e in candidate.elements:
        pools.setdefault(e.label, []).append(e.bbox)
    for label in labels:
        idx = taken.get(label, 0)
        pool = pools.get(label, [])
        out.append(pool[idx] if idx < len(pool) else None)
        taken[label] = idx + 1
    return out


def object_path_relation_holds(rel, a, b):
    if rel == "above":
        return a.bottom <= b.top
    if rel == "below":
        return a.top >= b.bottom
    if rel == "left-of":
        return a.right <= b.left
    if rel == "right-of":
        return a.left >= b.right
    if rel == "larger":
        return a.area > b.area
    if rel == "smaller":
        return a.area < b.area
    if rel == "equal":
        bigger = max(a.area, b.area)
        return bigger == 0 or abs(a.area - b.area) <= 0.1 * bigger
    return False


def _within_ratio(actual, target, tolerance):
    return abs(actual - target) <= tolerance * target


def object_path_constraint_satisfaction(candidate, constraint):
    """``pipeline.constraint_satisfaction`` on the object path."""
    kind = constraint.kind
    counts = label_counts(candidate)
    clauses = []
    if kind in ("gen_t", "gen_ts", "gen_r"):
        for label, want in constraint.categories().items():
            clauses.append(counts.get(label, 0) == want)
    if kind == "gen_ts":
        canvas = constraint.payload.get("canvas") or (candidate.canvas.width,
                                                      candidate.canvas.height)
        items = constraint.payload["elements"]
        slots = object_path_match_slots(normalize(candidate), [item["label"] for item in items])
        for item, box in zip(items, slots):
            clauses.append(
                box is not None
                and _within_ratio(box.width, float(item["width"]) / float(canvas[0]), 0.1)
                and _within_ratio(box.height, float(item["height"]) / float(canvas[1]), 0.1))
    if kind == "gen_r":
        slots = object_path_match_slots(normalize(candidate), list(constraint.payload["elements"]))
        for si, rel, oi in constraint.payload.get("relations", []):
            a, b = slots[si], slots[oi]
            clauses.append(a is not None and b is not None
                           and object_path_relation_holds(rel, a, b))
    if kind == "completion":
        given = constraint.given_layout
        slots = object_path_match_slots(candidate, given.labels())
        for e, box in zip(given.elements, slots):
            clauses.append(box is not None
                           and abs(box.left - e.bbox.left) <= 1.0
                           and abs(box.top - e.bbox.top) <= 1.0
                           and abs(box.width - e.bbox.width) <= 1.0
                           and abs(box.height - e.bbox.height) <= 1.0)
    if kind in ("content_aware", "text_to_layout"):
        for label, want in constraint.categories().items():
            clauses.append(counts.get(label, 0) >= want)
    return sum(clauses) / len(clauses) if clauses else 1.0


def scalar_alignment(layout):
    """metrics.alignment as a loop over element pairs, before it was batched."""
    lay = normalize(layout)
    if not lay.elements:
        raise EmptyLayout("alignment is undefined for an empty layout")
    if len(lay.elements) == 1:
        return 0.0
    rows = [(b.left, center(b)[0], b.right, b.top, center(b)[1], b.bottom)
            for b in (e.bbox for e in lay.elements)]
    gaps = []
    for i, mine in enumerate(rows):
        best = math.inf
        for j, other in enumerate(rows):
            if i == j:
                continue
            for k in range(6):
                gap = abs(mine[k] - other[k])
                if gap < best:
                    best = gap
        gaps.append(best)
    return math.fsum(gaps) / len(gaps)


def scalar_overlap(layout, exclude_labels=()):
    """metrics.overlap as a loop over element pairs, before it was batched."""
    lay = normalize(layout)
    boxes = [e.bbox for e in lay.elements if e.label not in set(exclude_labels)]
    if len(boxes) < 2:
        return 0.0
    denom = math.fsum(b.area for b in boxes)
    if denom <= 0.0:
        return 0.0
    inter = math.fsum(intersection_area(boxes[i], boxes[j])
                      for i in range(len(boxes)) for j in range(i + 1, len(boxes)))
    return inter / denom


def entry_layout(index, position):
    """The normalized layout an index entry stores: each element's box is
    (cx - w/2, cy - h/2, w, h)."""
    n = int(index.counts[position])
    elements = tuple(
        Element(label=index.vocabulary[label_id], bbox=BBox(cx - w / 2.0, cy - h / 2.0, w, h))
        for label_id, (cx, cy, w, h) in zip(index.labels[position, :n].tolist(),
                                            index.coords[position, :n].tolist()))
    return Layout(id=index.ids[position], canvas=Canvas(1, 1), elements=elements)


def expansion_solve(cost):
    """One assignment on the cost matrix with every row repeated lcm(m, n)/m
    times and every column lcm(m, n)/n times, folded back into whole-unit
    flows: transport.solve_exact where lcm(m, n) <= 25, and the oracle for
    its simplex elsewhere. Exact, and O(lcm(m, n)**3)."""
    c = np.asarray(cost, dtype=np.float64)
    m, n = c.shape
    unit = math.lcm(m, n)
    rep_r, rep_c = unit // m, unit // n
    rows, cols = linear_sum_assignment(np.repeat(np.repeat(c, rep_r, axis=0), rep_c, axis=1))
    flow = np.bincount(rows // rep_r * n + cols // rep_c, minlength=m * n).reshape(m, n)
    mass = flow / float(unit)
    used = flow > 0
    return TransportPlan(mass=mass, cost=math.fsum((mass[used] * c[used]).tolist()))


# --- the object path: a corpus as one Layout per record -----------------------
#
# Ingest once built a Layout, an Element and a BBox for every element, and
# export, the area statistics and the index read those objects. The columnar
# corpus must give the same records, statistics and index arrays; these
# functions are that path, kept as its oracle.

META_KEYS = ("split", "saliency", "gradient", "text", "constraints")


def object_path_ingest(records, manifest, strict=True):
    """The ``(record, layout)`` pairs ingest keeps, in order, each layout by
    ``record_to_layout``; raises what ingest raises."""
    kept, seen = [], set()
    for record in records:
        try:
            layout = record_to_layout(record, manifest.vocabulary)
        except VocabularyError:
            if strict:
                raise
            continue
        if layout.id in seen:
            raise SchemaError(f"duplicate layout id {layout.id!r}")
        seen.add(layout.id)
        kept.append((record, layout))
    return kept


def object_path_export(kept):
    """Each kept layout as an interchange record with its record's metadata."""
    return [dict(layout_to_record(layout),
                 **{key: record[key] for key in META_KEYS if record.get(key) is not None})
            for record, layout in kept]


def object_path_split(kept, split):
    """The layouts of the kept records in ``split``; a record without one is in ""."""
    return [layout for record, layout in kept
            if ("" if record.get("split") is None else str(record["split"])) == split]


def object_path_area_means(layouts):
    """Per label, the ``fsum`` mean of the element areas of the normalized layouts."""
    areas = {}
    for layout in layouts:
        for e in normalize(layout).elements:
            areas.setdefault(e.label, []).append(e.bbox.area)
    return {label: math.fsum(v) / len(v) for label, v in sorted(areas.items())}


def object_path_index(layouts, vocabulary):
    """The index of the non-empty layouts, each normalized."""
    return make_index([(layout.id, normalize(layout)) for layout in layouts if layout.elements],
                      vocabulary)


# --- scripted offline backend ------------------------------------------------

_CANVAS_LINE = re.compile(r"canvas size: (\d+) x (\d+) pixels")
_CATEGORY_LINE = re.compile(r"^([a-z_]+): (\d+)$", re.MULTILINE)
_CANVAS_DIV = re.compile(r'<div class="canvas" style="width:(\d+)px; height:(\d+)px">')
_ELEMENT_DIV = re.compile(
    r'<div class="(\w+)" style="left:(-?\d+)px; top:(-?\d+)px; '
    r'width:(-?\d+)px; height:(-?\d+)px">'
)


def _digest_int(*parts) -> int:
    joined = "|".join(str(p) for p in parts)
    return int(hashlib.sha256(joined.encode("utf-8")).hexdigest()[:8], 16)


def _emit_html(width, height, elements):
    lines = [
        "<html><body>",
        f'<div class="canvas" style="width:{width}px; height:{height}px"></div>',
    ]
    for label, left, top, w, h in elements:
        lines.append(
            f'<div class="{label}" style="left:{left}px; top:{top}px; '
            f'width:{w}px; height:{h}px"></div>'
        )
    lines.append("</body></html>")
    return "\n".join(lines)


def _draft_from_categories(user_text, idx):
    """Coarse response: one box per required category instance, idx-jittered."""
    canvas = _CANVAS_LINE.search(user_text)
    width, height = (int(canvas.group(1)), int(canvas.group(2))) if canvas else (512, 512)
    tail = user_text[canvas.end():] if canvas else user_text
    labels = []
    for label, count in _CATEGORY_LINE.findall(tail):
        labels.extend([label] * int(count))
    if not labels:
        labels = ["text"]
    jitter = _digest_int(user_text, idx)
    elements = []
    step = max(1, (height - 80) // (len(labels) + 1))
    for i, label in enumerate(labels):
        w = width // 3 + (jitter >> (i % 7)) % 40
        h = max(20, step // 2)
        left = width // 6 + (jitter >> (i % 5)) % 30
        top = 40 + i * step + (jitter >> (i % 3)) % 15
        if label == "underlay" and elements:
            # surround the first box so underlay metrics have signal
            _, fl, ft, fw, fh = elements[0]
            left, top, w, h = fl - 8, ft - 8, fw + 16, fh + 16
        elements.append((label, left, top, w, h))
    return _emit_html(width, height, elements)


def _edit_current(user_text):
    """Stage response: align the current layout into one tidy column."""
    canvases = list(_CANVAS_DIV.finditer(user_text))
    last_canvas = canvases[-1]
    width, height = int(last_canvas.group(1)), int(last_canvas.group(2))
    elements = [
        (m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4)), int(m.group(5)))
        for m in _ELEMENT_DIV.finditer(user_text, last_canvas.end())
    ]
    if not elements:
        return _emit_html(width, height, [("text", width // 4, 40, width // 2, 60)])
    ordered = sorted(elements, key=lambda e: (e[2], e[1]))
    step = max(1, (height - 60) // (len(ordered) + 1))
    out = []
    for i, (label, _left, _top, w, h) in enumerate(ordered):
        out.append((label, width // 8, 30 + i * step, w, min(h, step - 4)))
    return _emit_html(width, height, out)


def scripted_llm(payload, candidate_index):
    """Deterministic offline chat backend.

    Stage prompts get a clean edited layout. Coarse prompts get one draft per
    candidate index, with index 0 wrapped in prose and fences and index 5 an
    unparseable refusal, so extraction and ranking paths all run.
    """
    user = payload["messages"][1]["content"]
    if "needing refinement" in user or "after Stage" in user or "Current layout:" in user:
        return _edit_current(user)
    if candidate_index % 10 == 5:
        return "I need more information before I can design this layout."
    html = _draft_from_categories(user, candidate_index)
    if candidate_index % 10 == 0:
        return f"Sure! Here is the layout you asked for:\n```html\n{html}\n```\nHope it helps."
    return html


# --- bundled replay fixture ---------------------------------------------------

def _train_records(count=20):
    rng = np.random.default_rng(7)
    records = []
    for i in range(count):
        n_text = int(rng.integers(1, 4))
        elements = []
        top = 60
        for _ in range(n_text):
            w = int(rng.integers(120, 360))
            h = int(rng.integers(40, 110))
            left = int(rng.integers(20, CANVAS_W - w - 20))
            elements.append({"label": "text", "bbox": [left, top, w, h]})
            top += h + int(rng.integers(16, 60))
        if rng.random() < 0.7:
            elements.append({"label": "logo",
                             "bbox": [int(rng.integers(30, 300)), 20,
                                      int(rng.integers(60, 160)), int(rng.integers(30, 70))]})
        if rng.random() < 0.6 and elements:
            first = elements[0]["bbox"]
            elements.append({"label": "underlay",
                             "bbox": [first[0] - 10, first[1] - 10,
                                      first[2] + 20, first[3] + 20]})
        records.append({
            "id": f"train{i:03d}",
            "split": "train",
            "canvas": {"w": CANVAS_W, "h": CANVAS_H},
            "elements": elements,
        })
    return records


def _gradient_raster(seed, width=18, height=26):
    rng = np.random.default_rng(seed)
    base = rng.random((height, width))
    return SaliencyRaster(width=width, height=height,
                          values=np.rint(base * 255.0) / 255.0)


@pytest.fixture(scope="session")
def fixture_env(tmp_path_factory):
    """Dataset, index, stats, rasters, 5 test items, and recorded transcripts."""
    root = tmp_path_factory.mktemp("fixture")
    manifest = DatasetManifest(name="pku-mini", task_kind="content_aware",
                               vocabulary=VOCAB)
    save_manifest(manifest, root / "manifest.json")

    train = _train_records()
    write_jsonl(train, root / "train.jsonl")
    dataset = ingest(train, manifest)
    index = build_index(dataset, "train")
    save_index(index, root / "index.json")
    stats = compute_area_stats(dataset, "train")
    save_area_stats(stats, root / "stats.json")

    rasters = root / "rasters"
    rasters.mkdir()
    items = []
    for i in range(5):
        sal = _gradient_raster(seed=100 + i)
        grad = _gradient_raster(seed=200 + i)
        save_raster(sal, rasters / f"item{i}.pgm")
        save_raster(grad, rasters / f"item{i}_grad.pgm")
        items.append({
            "id": f"item{i}",
            "split": "test",
            "canvas": {"w": CANVAS_W, "h": CANVAS_H},
            "elements": [],
            "saliency": f"rasters/item{i}.pgm",
            "gradient": f"rasters/item{i}_grad.pgm",
            "constraints": {"categories": {"text": 2, "logo": 1, "underlay": 1}},
        })
    write_jsonl(items, root / "test.jsonl")

    transcripts = root / "transcripts"
    transcripts.mkdir()

    def run_config(run_dir, mode):
        return {
            "run_dir": str(run_dir),
            "base_dir": str(root),
            "task_family": "content_aware",
            "index": "index.json",
            "stats": "stats.json",
            "dataset": {"records": "test.jsonl", "split": "test"},
            "backend": {
                "mode": mode,
                "model": "scripted",
                "transcript_dir": str(transcripts),
                "retry_backoff": 0.0,
            },
        }

    # Record once with the scripted backend; replay runs need no transport.
    run_task(run_config(root / "record_run", "record"), transport=scripted_llm)

    return {
        "root": root,
        "manifest": manifest,
        "dataset": dataset,
        "index": index,
        "stats": stats,
        "transcripts": transcripts,
        "run_config": run_config,
        "items": items,
    }


# --- acceptance summary -------------------------------------------------------

_ACCEPTANCE_TITLES = {
    "test_criterion_1": "1 size-reasonableness exactness",
    "test_criterion_2": "2 transport optimality vs enumeration oracles",
    "test_criterion_3": "3 retrieval equals brute-force full scan",
    "test_criterion_4": "4 metric hand cases",
    "test_criterion_5": "5 serialization round-trip and adversarial parsing",
    "test_criterion_6": "6 replay determinism end to end",
    "test_criterion_7": "7 ranker invariance and dominance",
    "test_criterion_8": "8 ablation harness structure",
    "test_criterion_9": "9 optional live sanity run",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            for prefix, title in _ACCEPTANCE_TITLES.items():
                if name.startswith(prefix):
                    outcome = status.upper() if status != "passed" else "PASS"
                    outcome = "FAIL" if status == "failed" else outcome
                    if report.when == "call" or status == "skipped":
                        results[title] = outcome
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for title in sorted(results, key=lambda t: t.split()[0]):
            terminalreporter.write_line(f"criterion {title}: {results[title]}")
