"""Dataset ingestion, saliency rasters, and training-set area statistics.

The interchange format is JSON Lines, one layout record per line:

    {"id": str, "split": str, "canvas": {"w": int, "h": int},
     "elements": [{"label": str, "bbox": [left, top, width, height]}],
     "saliency": path?, "gradient": path?, "text": str?, "constraints": {}?}

bbox values are pixels with a left-top origin. Canvas sides and bbox
values are at most ``model.MAX_PIXEL`` from 0. Saliency and gradient maps
are binary PGM (P5) files, 8-bit by default with 16-bit accepted; they are
ingested, never computed.

``_read_record`` is the one reader of records, corpus records and run items
alike, and checks each key's type: ``record_to_layout`` wraps what it reads
in a Layout, and ``ingest`` appends it to the columns of a CanonicalDataset,
so set-up builds no object per element.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import uuid
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Any, Container, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySplit,
    FormatError,
    SchemaError,
    VocabularyError,
)
from .model import MAX_PIXEL, BBox, Canvas, Element, Layout

TASK_KINDS = ("content_aware", "constraint_explicit", "text_to_layout")

# Record keys that export writes back as read, each of its type unless null.
_META_KEYS = {"split": str, "saliency": str, "gradient": str, "text": str, "constraints": Mapping}


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    task_kind: str
    vocabulary: tuple[str, ...]
    split_sizes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"manifest name must be a string, got {self.name!r}")
        if self.task_kind not in TASK_KINDS:
            raise SchemaError(f"unknown task kind {self.task_kind!r}")
        if not isinstance(self.vocabulary, (list, tuple)) or not self.vocabulary \
                or not all(isinstance(label, str) for label in self.vocabulary):
            raise SchemaError("manifest vocabulary must be a non-empty list of strings, "
                              f"got {self.vocabulary!r}")
        if not isinstance(self.split_sizes, Mapping) \
                or not all(type(n) is int and n >= 0 for n in self.split_sizes.values()):
            raise SchemaError("manifest split_sizes must be an object of non-negative "
                              f"integers, got {self.split_sizes!r}")
        if not isinstance(self.vocabulary, tuple):
            object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        if len(set(self.vocabulary)) < len(self.vocabulary):
            raise SchemaError(f"manifest vocabulary {self.vocabulary} repeats a label")


# Built-in manifests for the corpora whose vocabularies are public knowledge.
PKU_MANIFEST = DatasetManifest(
    name="pku",
    task_kind="content_aware",
    vocabulary=("text", "logo", "underlay"),
    split_sizes={"train": 9974, "test": 905},
)

PUBLAYNET_MANIFEST = DatasetManifest(
    name="publaynet",
    task_kind="constraint_explicit",
    vocabulary=("text", "title", "list", "table", "figure"),
    split_sizes={"train": 311397, "test": 10998},
)


def manifest_from_dict(data: Any) -> DatasetManifest:
    if not isinstance(data, Mapping):
        raise SchemaError(f"manifest must be an object, got {type(data).__name__}")
    try:
        return DatasetManifest(name=data["name"], task_kind=data["task_kind"],
                               vocabulary=data["vocabulary"],
                               split_sizes=data.get("split_sizes", {}))
    except KeyError as exc:
        raise SchemaError(f"manifest is missing key {exc}") from exc


def load_manifest(path: str | Path) -> DatasetManifest:
    return manifest_from_dict(read_json(path))


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    data = {
        "name": manifest.name,
        "task_kind": manifest.task_kind,
        "vocabulary": list(manifest.vocabulary),
        "split_sizes": dict(manifest.split_sizes),
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CanonicalDataset:
    """A validated corpus as columns in ingestion order. Per record: its id,
    its split (``""`` without one), its canvas ``(w, h)``, its element count
    and its ``_META_KEYS`` that are not None. Per element, record after
    record: its position in the vocabulary and its float64
    ``(left, top, width, height)`` in canvas pixels, each value as read."""

    manifest: DatasetManifest
    ids: list[str]
    splits: list[str]
    canvases: list[tuple[int, int]]
    counts: np.ndarray
    meta: list[dict[str, Any]]
    labels: np.ndarray
    boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def split_counts(self) -> dict[str, int]:
        return dict(Counter(self.splits))

    def split_elements(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ascending positions of the records in ``split``, and their
        elements' labels and boxes on the unit canvas: each box value
        divided by its canvas side, ``x / W`` as ``model.unit_boxes`` divides."""
        in_split = np.array([s == split for s in self.splits], dtype=bool)
        sides = np.array(self.canvases, dtype=np.float64).reshape(-1, 2)[in_split]
        in_split_elements = np.repeat(in_split, self.counts)
        unit = self.boxes[in_split_elements]
        # Each box as [[left, top], [width, height]], divided in place by (W, H).
        unit.reshape(-1, 2, 2)[...] /= np.repeat(sides, self.counts[in_split], axis=0)[:, None]
        return np.flatnonzero(in_split), self.labels[in_split_elements], unit


def _read_record(record: Mapping[str, Any], vocab: Container[str] | None
                 ) -> tuple[str, Canvas, list[tuple[str, float, float, float, float]], dict]:
    """The one reader of interchange records: the id, the canvas, each
    element as ``(label, left, top, width, height)`` with each box value
    ``float(value)``, and the ``_META_KEYS`` that are not None, each of its
    type. The canvas must be an object of JSON integers ``w`` and ``h``,
    ``elements`` a list, each box value finite, every canvas side and box
    value at most ``MAX_PIXEL`` from 0, and each label in ``vocab`` if given."""
    if not isinstance(record, Mapping):
        raise SchemaError(f"record must be an object, got {type(record).__name__}")
    if "id" not in record:
        raise SchemaError("record is missing key 'id'")
    rid = str(record["id"])
    canvas_obj = record.get("canvas")
    size = (canvas_obj.get("w"), canvas_obj.get("h")) if isinstance(canvas_obj, Mapping) else ()
    if not size or not all(type(v) is int for v in size):
        raise SchemaError(f"record {rid!r} canvas must have integer w and h, got {canvas_obj!r}")
    if max(size) > MAX_PIXEL:
        raise SchemaError(f"record {rid!r} canvas w and h must be at most {MAX_PIXEL:.0f} pixels")
    canvas = Canvas(*size)

    raw_elements = record.get("elements", [])
    if not isinstance(raw_elements, list):
        raise SchemaError(f"record {rid!r} elements must be a list, got {raw_elements!r}")
    elements = []
    for raw in raw_elements:
        try:
            label = str(raw["label"])
            left, top, width, height = map(float, raw["bbox"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed element in record {rid!r}: {exc}") from exc
        # NaN and inf fail these comparisons too.
        if not (abs(left) <= MAX_PIXEL and abs(top) <= MAX_PIXEL
                and abs(width) <= MAX_PIXEL and abs(height) <= MAX_PIXEL):
            if not (isfinite(left) and isfinite(top) and isfinite(width) and isfinite(height)):
                raise SchemaError(f"record {rid!r} has a bbox value that is not a finite "
                                  f"number: {raw['bbox']!r}")
            raise SchemaError(f"record {rid!r} has a bbox value past {MAX_PIXEL:.0f} pixels: "
                              f"{raw['bbox']!r}")
        if vocab is not None and label not in vocab:
            raise VocabularyError(f"record {rid!r} uses label {label!r} outside the vocabulary")
        elements.append((label, left, top, width, height))
    meta = {k: record[k] for k in _META_KEYS if record.get(k) is not None}
    for key, value in meta.items():
        if not isinstance(value, _META_KEYS[key]):
            kind = "an object" if _META_KEYS[key] is Mapping else "a string"
            raise SchemaError(f"record {rid!r} {key} must be {kind}, got {value!r}")
    return rid, canvas, elements, meta


def record_to_layout(record: Mapping[str, Any],
                     vocabulary: Iterable[str] | None = None) -> Layout:
    """Build a pixel-space Layout from one interchange record."""
    vocab = frozenset(vocabulary) if vocabulary is not None else None
    rid, canvas, elements, _ = _read_record(record, vocab)
    return Layout(id=rid, canvas=canvas,
                  elements=tuple(Element(label, BBox(*box)) for label, *box in elements))


def layout_to_record(layout: Layout) -> dict[str, Any]:
    """Inverse of record_to_layout, in the layout's own canvas coordinates;
    a record's other keys, such as its split, are not part of a layout."""
    return {
        "id": layout.id,
        "canvas": {"w": layout.canvas.width, "h": layout.canvas.height},
        "elements": [{"label": e.label,
                      "bbox": [e.bbox.left, e.bbox.top, e.bbox.width, e.bbox.height]}
                     for e in layout.elements],
    }


def ingest(records: Iterable[Mapping[str, Any]], manifest: DatasetManifest,
           strict: bool = True, check_counts: bool = False) -> CanonicalDataset:
    """Validate a record stream into a CanonicalDataset, each record as
    ``_read_record`` reads it. Records with labels outside the vocabulary
    raise VocabularyError in strict mode and are skipped otherwise. With
    ``check_counts`` the observed per-split counts must match the manifest's
    declared sizes."""
    label_ids = {label: i for i, label in enumerate(manifest.vocabulary)}
    ids: dict[str, None] = {}  # in order, and a set to find a repeated id
    canvases: list[tuple[int, int]] = []
    meta: list[dict[str, Any]] = []
    counts, labels, boxes = array("q"), array("q"), array("d")
    for record in records:
        try:
            rid, canvas, elements, record_meta = _read_record(record, label_ids)
        except VocabularyError:
            if strict:
                raise
            continue
        if rid in ids:
            raise SchemaError(f"duplicate layout id {rid!r}")
        ids[rid] = None
        canvases.append((canvas.width, canvas.height))
        counts.append(len(elements))
        meta.append(record_meta)
        for label, left, top, width, height in elements:
            labels.append(label_ids[label])
            boxes.extend((left, top, width, height))

    dataset = CanonicalDataset(
        manifest=manifest, ids=list(ids),
        splits=[m.get("split", "") for m in meta],
        canvases=canvases, counts=np.frombuffer(counts, dtype=np.int64), meta=meta,
        labels=np.frombuffer(labels, dtype=np.int64),
        boxes=np.frombuffer(boxes, dtype=np.float64).reshape(-1, 4))
    if check_counts and manifest.split_sizes:
        observed = dataset.split_counts()
        for split, expected in manifest.split_sizes.items():
            got = observed.get(split, 0)
            if got != expected:
                raise SchemaError(f"split {split!r} has {got} layouts, "
                                  f"manifest declares {expected}")
    return dataset


def export_records(dataset: CanonicalDataset) -> Iterator[dict[str, Any]]:
    """Yield each record as the interchange format writes it, in dataset
    order, built as it is read, so ``write_jsonl(export_records(dataset),
    path)`` never holds a second copy of the corpus."""
    vocabulary = dataset.manifest.vocabulary
    start = 0
    for rid, (w, h), stop, meta in zip(dataset.ids, dataset.canvases,
                                       np.cumsum(dataset.counts).tolist(), dataset.meta):
        elements = zip(dataset.labels[start:stop].tolist(), dataset.boxes[start:stop].tolist())
        yield {"id": rid, "canvas": {"w": w, "h": h},
               "elements": [{"label": vocabulary[label], "bbox": box} for label, box in elements],
               **meta}
        start = stop


def read_json(path: str | Path) -> Any:
    """The JSON value in a UTF-8 file; SchemaError naming the file when it
    holds none."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SchemaError(f"{path} is not a JSON file: {exc}") from exc


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer past Python's digit limit
                raise SchemaError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise SchemaError(f"{path}:{line_no}: a record must be an object, "
                                  f"got {type(record).__name__}")
            yield record


# ``json.dumps(record, sort_keys=True)`` without building an encoder per call.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


@contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """Yield a temp path of its own beside ``path``, which replaces ``path``
    once the block ends. If the block raises, the temp file is removed and a
    file already at ``path`` is left as it was."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(records: Iterable[Mapping[str, Any]], path: str | Path) -> int:
    """Write one JSON object per line, each encoded as it arrives, and return
    the count. The lines replace ``path`` only once every record is written
    (see ``replacing``)."""
    encode = _JSONL_ENCODER.encode
    count = 0
    with replacing(Path(path)) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record) + "\n")
            count += 1
    return count


# --- area statistics --------------------------------------------------------

@dataclass(frozen=True)
class AreaStats:
    """Per-label mean unit-canvas element area over one dataset split."""

    means: Mapping[str, float]

    def __contains__(self, label: str) -> bool:
        return label in self.means

    def __getitem__(self, label: str) -> float:
        return self.means[label]


def compute_area_stats(dataset: CanonicalDataset, split: str) -> AreaStats:
    """Mean of ``(width / W) * (height / H)`` per label over a split, each
    element's area on the unit canvas."""
    rows, labels, unit = dataset.split_elements(split)
    if not len(rows):
        raise EmptySplit(f"split {split!r} has no layouts")
    areas = unit[:, 2] * unit[:, 3]
    vocabulary = dataset.manifest.vocabulary
    by_label = {vocabulary[i]: areas[labels == i] for i in np.unique(labels).tolist()}
    means = {label: math.fsum(values.tolist()) / len(values)
             for label, values in sorted(by_label.items())}
    return AreaStats(means=means)


def save_area_stats(stats: AreaStats, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dict(stats.means), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_area_stats(path: str | Path) -> AreaStats:
    """The stats ``save_area_stats`` wrote: an object that maps each label to
    a finite, non-negative number, or SchemaError naming what is not one."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path} must hold an object of label areas, got {type(data).__name__}")
    for label, value in data.items():
        # NaN and inf fail the comparison, and so does an integer past float range.
        if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
            raise SchemaError(f"{path}: label {label!r} needs a finite, non-negative area, "
                              f"got {value!r}")
    return AreaStats(means={label: float(value) for label, value in data.items()})


# --- saliency rasters -------------------------------------------------------

@dataclass(frozen=True)
class SaliencyRaster:
    """Grayscale intensity grid with every value in [0, 1]."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise DimensionMismatch(
                f"raster declares {self.width}x{self.height} but data is {self.values.shape}"
            )
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise FormatError("raster intensities must lie in [0, 1]")


_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(\S+)")


def _pgm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    tokens = []
    pos = 0
    for _ in range(count):
        m = _PGM_TOKEN.match(data, pos)
        if not m:
            raise FormatError("truncated PGM header")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens, pos


def load_raster(path: str | Path) -> SaliencyRaster:
    """Load a binary PGM (P5) raster, scaling intensities to [0, 1]."""
    data = Path(path).read_bytes()
    tokens, pos = _pgm_tokens(data, 4)
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: expected binary PGM magic P5, got {tokens[0]!r}")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric PGM header") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive raster dimensions")
    if not 0 < maxval < 65536:
        raise FormatError(f"{path}: unsupported max value {maxval}")
    # Exactly one whitespace byte separates the header from the pixel data.
    pos += 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = width * height * dtype.itemsize
    pixels = data[pos:pos + expected]
    if len(pixels) != expected:
        raise DimensionMismatch(
            f"{path}: expected {expected} pixel bytes for {width}x{height}, got {len(pixels)}"
        )
    grid = np.frombuffer(pixels, dtype=dtype).astype(np.float64).reshape(height, width)
    return SaliencyRaster(width=width, height=height, values=grid / float(maxval))


def pgm_bytes(raster: SaliencyRaster) -> bytes:
    """The raster as an 8-bit binary PGM, each intensity rounded to the
    nearest of 256 levels, halves to even. Exact for rasters loaded from
    8-bit files."""
    header = f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii")
    return header + np.rint(raster.values * 255.0).astype(np.uint8).tobytes()


def save_raster(raster: SaliencyRaster, path: str | Path) -> None:
    """Write ``pgm_bytes(raster)`` to ``path``."""
    Path(path).write_bytes(pgm_bytes(raster))
