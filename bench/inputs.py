"""Seeded synthetic inputs and offline LLM backends for the benchmark.

Everything a workload feeds the program is made here from the seed: a
PKU-shaped or PubLayNet-shaped training corpus, the test items with their
constraints, saliency and gradient rasters, and the chat backends used to
record transcripts. The program under test only ever sees the files written
by :func:`write_inputs`; nothing here imports it.

Element counts of the training layouts and of the test items follow a fixed
cycle instead of a random draw, so every seed gives an index and a batch with
the same mix of small and large layouts and changes only the geometry.
Without that, a seed that drew a few more large layouts would run measurably
slower than another, and the run-to-run spread would measure the draw, not
the program.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PKU_VOCAB = ("text", "logo", "underlay")
PKU_CANVAS = (513, 750)
PUBLAYNET_VOCAB = ("text", "title", "list", "table", "figure")
PUBLAYNET_CANVAS = (612, 792)
RASTER_SIZE = (103, 150)  # one fifth of the PKU canvas, as (width, height)
CONSTRAINT_KINDS = ("gen_t", "gen_ts", "gen_r", "completion")
FAIL_ONE_IN = 50  # the latency transport fails one request in this many once


@dataclass(frozen=True)
class CorpusShape:
    """Sizes of one workload's generated inputs."""

    family: str          # "pku" or "publaynet"
    train: int           # training records, all indexed
    items: int           # test items
    batch: int           # items per run pass; batch k is split "batch{k:03d}"
    max_train_elements: int
    item_sizes: tuple[int, ...]  # element counts the items cycle through
    rasters: bool = False


# --- corpora ---------------------------------------------------------------

def _pku_elements(rng: np.random.Generator, count: int) -> list[dict]:
    """Poster-like layout: text blocks, an optional logo, an optional underlay
    behind the first text block."""
    w_canvas, h_canvas = PKU_CANVAS
    n_logo = 1 if count >= 2 and rng.random() < 0.6 else 0
    n_under = 1 if count - n_logo >= 2 and rng.random() < 0.5 else 0
    n_text = count - n_logo - n_under
    elements = []
    for _ in range(n_logo):
        w = int(rng.integers(60, 160))
        elements.append({"label": "logo", "bbox": [int(rng.integers(20, w_canvas - w - 20)),
                                                   int(rng.integers(10, 60)), w,
                                                   int(rng.integers(30, 70))]})
    top = int(rng.integers(60, 160))
    step = max(24, (h_canvas - top - 40) // max(1, n_text))
    for i in range(n_text):
        w = int(rng.integers(120, 400))
        h = int(rng.integers(16, max(18, step - 6)))
        left = int(rng.integers(10, w_canvas - w - 10))
        elements.append({"label": "text", "bbox": [left, min(top + i * step, h_canvas - h - 1),
                                                   w, h]})
    if n_under:
        first = next(e["bbox"] for e in elements if e["label"] == "text")
        elements.append({"label": "underlay",
                         "bbox": [max(0, first[0] - 10), max(0, first[1] - 10),
                                  first[2] + 20, first[3] + 20]})
    return elements


def _publaynet_elements(rng: np.random.Generator, count: int) -> list[dict]:
    """Document-like layout: blocks flowing down one or two columns."""
    w_canvas, h_canvas = PUBLAYNET_CANVAS
    columns = 1 if count < 6 or rng.random() < 0.3 else 2
    per_column = -(-count // columns)
    col_w = (w_canvas - 80 - 20 * (columns - 1)) // columns
    slot = (h_canvas - 100) // per_column
    elements = []
    for i in range(count):
        col, row = divmod(i, per_column)
        label = "title" if i == 0 else str(rng.choice(
            ("text", "text", "text", "list", "table", "figure")))
        h = int(rng.integers(max(8, slot // 3), max(9, slot - 4)))
        w = int(rng.integers(col_w // 2, col_w + 1))
        left = 40 + col * (col_w + 20) + int(rng.integers(0, col_w - w + 1))
        top = 50 + row * slot + int(rng.integers(0, max(1, slot - h)))
        elements.append({"label": label, "bbox": [left, top, w, h]})
    return elements


def _canvas(family: str) -> tuple[int, int]:
    return PKU_CANVAS if family == "pku" else PUBLAYNET_CANVAS


def _elements(family: str, rng: np.random.Generator, count: int) -> list[dict]:
    return (_pku_elements if family == "pku" else _publaynet_elements)(rng, count)


def _record(rid: str, split: str, family: str, elements: list[dict]) -> dict:
    w, h = _canvas(family)
    return {"id": rid, "split": split, "canvas": {"w": w, "h": h}, "elements": elements}


def _label_counts(elements: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for e in elements:
        counts[e["label"]] = counts.get(e["label"], 0) + 1
    return counts


def _relations(elements: list[dict]) -> list[list]:
    """Relation triples that hold between consecutive elements."""
    triples = []
    for i in range(len(elements) - 1):
        a, b = elements[i]["bbox"], elements[i + 1]["bbox"]
        if a[1] + a[3] <= b[1]:
            triples.append([i, "above", i + 1])
        elif a[0] + a[2] <= b[0]:
            triples.append([i, "left-of", i + 1])
        else:
            triples.append([i, "larger" if a[2] * a[3] > b[2] * b[3] else "smaller", i + 1])
    return triples[:6]


def _publaynet_constraint(kind: str, elements: list[dict]) -> dict:
    if kind == "gen_t":
        payload = {"categories": _label_counts(elements)}
    elif kind == "gen_ts":
        payload = {"canvas": list(PUBLAYNET_CANVAS),
                   "elements": [{"label": e["label"], "width": e["bbox"][2],
                                 "height": e["bbox"][3]} for e in elements]}
    elif kind == "gen_r":
        payload = {"elements": [e["label"] for e in elements],
                   "relations": _relations(elements)}
    else:  # completion: the first half of the boxes is given and fixed
        w, h = PUBLAYNET_CANVAS
        payload = {"layout": {"canvas": {"w": w, "h": h},
                              "elements": elements[:max(1, len(elements) // 2)]}}
    return {"kind": kind, "payload": payload}


def _pgm(rng: np.random.Generator) -> bytes:
    w, h = RASTER_SIZE
    return f"P5\n{w} {h}\n255\n".encode("ascii") + rng.integers(
        0, 256, size=(h, w), dtype=np.uint8).tobytes()


def write_inputs(shape: CorpusShape, seed: int, out: Path) -> None:
    """Write manifest.json, train.jsonl, test.jsonl and rasters/ under ``out``."""
    rng = np.random.default_rng([seed, 0x1A70])
    out.mkdir(parents=True, exist_ok=True)
    family = shape.family
    vocab = PKU_VOCAB if family == "pku" else PUBLAYNET_VOCAB
    manifest = {"name": f"{family}-synthetic",
                "task_kind": "content_aware" if family == "pku" else "constraint_explicit",
                "vocabulary": list(vocab), "split_sizes": {}}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    with open(out / "train.jsonl", "w", encoding="utf-8") as fh:
        for i in range(shape.train):
            count = 1 + i % shape.max_train_elements
            fh.write(json.dumps(_record(f"train{i:05d}", "train", family,
                                        _elements(family, rng, count))) + "\n")

    if shape.rasters:
        (out / "rasters").mkdir(exist_ok=True)
    with open(out / "test.jsonl", "w", encoding="utf-8") as fh:
        for i in range(shape.items):
            size = shape.item_sizes[i % len(shape.item_sizes)]
            split = f"batch{i // shape.batch:03d}"
            elements = _elements(family, rng, size)
            if family == "pku":
                # Content-aware items carry categories, not boxes, so retrieval
                # runs on the pseudo layout built from them.
                record = _record(f"item{i:04d}", split, family, [])
                record["constraints"] = {"categories": _label_counts(elements)}
            else:
                record = _record(f"item{i:04d}", split, family, elements)
                record["constraints"] = _publaynet_constraint(
                    CONSTRAINT_KINDS[i % len(CONSTRAINT_KINDS)], elements)
            if shape.rasters:
                for key, suffix in (("saliency", ""), ("gradient", "_grad")):
                    name = f"rasters/item{i:04d}{suffix}.pgm"
                    (out / name).write_bytes(_pgm(rng))
                    record[key] = name
            fh.write(json.dumps(record) + "\n")


# --- scripted chat backend ---------------------------------------------------

_CANVAS_LINE = re.compile(r"canvas size: (\d+) x (\d+) pixels")
_CATEGORY_LINE = re.compile(r"^([a-z_]+): (\d+)$", re.MULTILINE)
_CANVAS_DIV = re.compile(r'<div class="canvas" style="width:(\d+)px; height:(\d+)px">')
_ELEMENT_DIV = re.compile(
    r'<div class="(\w+)" style="left:(-?\d+)px; top:(-?\d+)px; '
    r'width:(-?\d+)px; height:(-?\d+)px">')
_STAGE_MARKER = re.compile(r"needing (?:Stage 1 )?refinement:|after Stage \d:|Current layout:")
REFUSAL = "I need more information before I can design this layout."


def _digest_int(*parts) -> int:
    joined = "|".join(str(p) for p in parts)
    return int(hashlib.sha256(joined.encode("utf-8")).hexdigest()[:8], 16)


def _emit_html(width: int, height: int, elements) -> str:
    lines = ["<html><body>",
             f'<div class="canvas" style="width:{width}px; height:{height}px"></div>']
    lines += [f'<div class="{label}" style="left:{left}px; top:{top}px; '
              f'width:{w}px; height:{h}px"></div>' for label, left, top, w, h in elements]
    lines.append("</body></html>")
    return "\n".join(lines)


def _draft(user: str, idx: int) -> str:
    """Coarse response: one box per required element, jittered by candidate."""
    canvas = _CANVAS_LINE.search(user) or _CANVAS_DIV.search(user)
    width, height = (int(canvas.group(1)), int(canvas.group(2))) if canvas else (512, 512)
    tail = user[canvas.end():] if canvas else user
    labels = [label for label, count in _CATEGORY_LINE.findall(tail)
              for _ in range(int(count))] or ["text"]
    jitter = _digest_int(user, idx)
    step = max(1, (height - 80) // (len(labels) + 1))
    elements = []
    for i, label in enumerate(labels):
        w = width // 3 + (jitter >> (i % 7)) % 40
        h = max(12, step // 2)
        left = width // 6 + (jitter >> (i % 5)) % 30
        top = 40 + i * step + (jitter >> (i % 3)) % 15
        if label == "underlay" and elements:
            _, fl, ft, fw, fh = elements[0]
            left, top, w, h = fl - 8, ft - 8, fw + 16, fh + 16
        elements.append((label, left, top, w, h))
    return _emit_html(width, height, elements)


def _edit(user: str) -> str:
    """Stage response: the current layout, tidied into one left-aligned column."""
    markers = list(_STAGE_MARKER.finditer(user))
    start = markers[-1].end() if markers else 0
    canvas = _CANVAS_DIV.search(user, start)
    if canvas is None:
        return _emit_html(512, 512, [("text", 128, 40, 256, 60)])
    width, height = int(canvas.group(1)), int(canvas.group(2))
    end = user.find("</body></html>", canvas.end())
    block = user[canvas.end():end if end >= 0 else len(user)]
    elements = [(m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4)),
                 int(m.group(5))) for m in _ELEMENT_DIV.finditer(block)]
    if not elements:
        return _emit_html(width, height, [("text", width // 4, 40, width // 2, 60)])
    ordered = sorted(elements, key=lambda e: (e[2], e[1]))
    step = max(1, (height - 60) // (len(ordered) + 1))
    return _emit_html(width, height, [(label, width // 8, 30 + i * step, w, min(h, step - 4))
                                      for i, (label, _l, _t, w, h) in enumerate(ordered)])


def scripted_llm(payload: dict, candidate_index: int) -> str:
    """Deterministic offline chat backend, modelled on the test suite's.

    Coarse candidate 0 is wrapped in prose and a code fence and candidate 5
    is a refusal, so extraction and ranking see failures. One stage prompt
    in ten gets a refusal on its first attempt (the stage retry runs) and one
    in forty on both attempts (the stage falls back to the previous layout).
    """
    user = payload["messages"][1]["content"]
    if _STAGE_MARKER.search(user):
        h = _digest_int(user) % 40
        if (h == 0 and candidate_index < 2) or (h % 10 == 1 and candidate_index == 0):
            return REFUSAL
        return _edit(user)
    if candidate_index % 10 == 5:
        return REFUSAL
    html = _draft(user, candidate_index)
    if candidate_index % 10 == 0:
        return f"Sure! Here is the layout you asked for:\n```html\n{html}\n```\nHope it helps."
    return html


class LatencyTransport:
    """The scripted backend behind a fixed per-call delay.

    One request in fifty, chosen by a hash of the request, fails once with
    ``error_type`` before it succeeds, so the gateway's retry path runs. The
    object also counts calls in flight, which the traced run reports.
    """

    def __init__(self, delay_s: float, error_type: type[Exception]):
        self.delay_s = delay_s
        self.error_type = error_type
        self.lock = threading.Lock()
        self.failed: set[str] = set()
        self.inflight = 0
        self.inflight_max = 0
        self.calls: list[tuple[float, float]] = []  # (start, end) of every call

    def __call__(self, payload: dict, candidate_index: int) -> str:
        key = hashlib.sha256(json.dumps([payload, candidate_index], sort_keys=True)
                             .encode("utf-8")).hexdigest()
        start = time.perf_counter()
        with self.lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            time.sleep(self.delay_s)
            with self.lock:
                fail = int(key[:8], 16) % FAIL_ONE_IN == 0 and key not in self.failed
                if fail:
                    self.failed.add(key)
            if fail:
                raise self.error_type(f"injected failure for request {key[:12]}")
            return scripted_llm(payload, candidate_index)
        finally:
            end = time.perf_counter()
            with self.lock:
                self.inflight -= 1
                self.calls.append((start, end))
