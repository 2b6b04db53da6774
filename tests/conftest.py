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
from layoutloom.errors import EmptyLayout, SchemaError, VocabularyError
from layoutloom.model import BBox, Canvas, Element, Layout, normalize
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
            coords[row, col] = (e.bbox.cx, e.bbox.cy, e.bbox.width, e.bbox.height)
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


def scalar_alignment(layout):
    """metrics.alignment as a loop over element pairs, before it was batched."""
    lay = normalize(layout)
    if not lay.elements:
        raise EmptyLayout("alignment is undefined for an empty layout")
    if len(lay.elements) == 1:
        return 0.0
    rows = [(b.left, b.cx, b.right, b.top, b.cy, b.bottom) for b in (e.bbox for e in lay.elements)]
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
    inter = math.fsum(boxes[i].intersection_area(boxes[j])
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
    """transport.solve_exact as it was before the transportation simplex:
    one assignment on the cost matrix with every row repeated lcm(m, n)/m
    times and every column lcm(m, n)/n times, folded back into whole-unit
    flows. Exact, and O(lcm(m, n)**3)."""
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
