"""Dataset ingestion, saliency rasters, and training-set area statistics.

The interchange format is JSON Lines, one layout record per line:

    {"id": str, "split": str, "canvas": {"w": int, "h": int},
     "elements": [{"label": str, "bbox": [left, top, width, height]}],
     "saliency": path?, "gradient": path?, "text": str?, "constraints": {}?}

bbox values are pixels with a left-top origin. Saliency and gradient maps
are binary PGM (P5) files, 8-bit by default with 16-bit accepted; they are
ingested, never computed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySplit,
    FormatError,
    SchemaError,
    VocabularyError,
)
from .model import BBox, Canvas, Element, Layout

TASK_KINDS = ("content_aware", "constraint_explicit", "text_to_layout")

# Record keys that ride along in Layout.task_meta.
_META_KEYS = ("split", "saliency", "gradient", "text", "constraints")


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    task_kind: str
    vocabulary: tuple[str, ...]
    split_sizes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise SchemaError(f"unknown task kind {self.task_kind!r}")
        if not self.vocabulary:
            raise SchemaError("manifest vocabulary must be non-empty")
        if any(n < 0 for n in self.split_sizes.values()):
            raise SchemaError("split sizes must be non-negative")
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


def manifest_from_dict(data: Mapping[str, Any]) -> DatasetManifest:
    try:
        return DatasetManifest(
            name=str(data["name"]),
            task_kind=str(data["task_kind"]),
            vocabulary=tuple(data["vocabulary"]),
            split_sizes={str(k): int(v) for k, v in data.get("split_sizes", {}).items()},
        )
    except KeyError as exc:
        raise SchemaError(f"manifest is missing key {exc}") from exc


def load_manifest(path: str | Path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return manifest_from_dict(json.load(fh))


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    data = {
        "name": manifest.name,
        "task_kind": manifest.task_kind,
        "vocabulary": list(manifest.vocabulary),
        "split_sizes": dict(manifest.split_sizes),
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass
class CanonicalDataset:
    """Validated layouts keyed by id in ingestion order, with split
    membership. Each layout is in its record's canvas pixels, as read."""

    manifest: DatasetManifest
    layouts: dict[str, Layout] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.layouts)

    def __iter__(self) -> Iterator[Layout]:
        return iter(self.layouts.values())

    def split_of(self, layout_id: str) -> str:
        return str(self.layouts[layout_id].task_meta.get("split", ""))

    def by_split(self, split: str) -> list[Layout]:
        return [layout for lid, layout in self.layouts.items() if self.split_of(lid) == split]

    def split_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for lid in self.layouts:
            split = self.split_of(lid)
            counts[split] = counts.get(split, 0) + 1
        return counts


def _read_record(record: Mapping[str, Any], vocab: frozenset[str] | None) -> Layout:
    """The one reader of interchange records: a pixel-space Layout, each box
    value as ``float(value)``. The canvas ``w`` and ``h`` must be JSON
    integers, and every label must be in ``vocab`` when one is given."""
    if not isinstance(record, Mapping):
        raise SchemaError(f"record must be an object, got {type(record).__name__}")
    try:
        rid = str(record["id"])
        canvas_obj = record["canvas"]
        size = (canvas_obj["w"], canvas_obj["h"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed record: {exc}") from exc
    if not all(type(v) is int for v in size):
        raise SchemaError(f"record {rid!r} canvas must have integer w and h, got {canvas_obj!r}")
    canvas = Canvas(*size)

    elements = []
    for raw in record.get("elements", []):
        try:
            label = str(raw["label"])
            left, top, width, height = map(float, raw["bbox"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed element in record {rid!r}: {exc}") from exc
        if vocab is not None and label not in vocab:
            raise VocabularyError(f"record {rid!r} uses label {label!r} outside the vocabulary")
        elements.append(Element(label, BBox(left, top, width, height)))

    meta = {k: record[k] for k in _META_KEYS if record.get(k) is not None}
    return Layout(id=rid, canvas=canvas, elements=tuple(elements), task_meta=meta)


def record_to_layout(record: Mapping[str, Any],
                     vocabulary: Iterable[str] | None = None) -> Layout:
    """Build a pixel-space Layout from one interchange record."""
    vocab = frozenset(vocabulary) if vocabulary is not None else None
    return _read_record(record, vocab)


def layout_to_record(layout: Layout) -> dict[str, Any]:
    """Inverse of record_to_layout, in the layout's own canvas coordinates."""
    record: dict[str, Any] = {
        "id": layout.id,
        "canvas": {"w": layout.canvas.width, "h": layout.canvas.height},
        "elements": [{"label": e.label,
                      "bbox": [e.bbox.left, e.bbox.top, e.bbox.width, e.bbox.height]}
                     for e in layout.elements],
    }
    for key in _META_KEYS:
        value = layout.task_meta.get(key)
        if value is not None:
            record[key] = value
    return record


def ingest(records: Iterable[Mapping[str, Any]], manifest: DatasetManifest,
           strict: bool = True, check_counts: bool = False) -> CanonicalDataset:
    """Validate a record stream into a CanonicalDataset of the layouts
    ``record_to_layout`` reads, in pixel space; export writes each box value
    back as read.

    Records with labels outside the vocabulary raise VocabularyError in
    strict mode and are skipped otherwise. With ``check_counts`` the observed
    per-split counts must match the manifest's declared sizes.
    """
    dataset = CanonicalDataset(manifest=manifest)
    vocab = frozenset(manifest.vocabulary)
    with collector_paused():
        for record in records:
            try:
                layout = _read_record(record, vocab)
            except VocabularyError:
                if strict:
                    raise
                continue
            if layout.id in dataset.layouts:
                raise SchemaError(f"duplicate layout id {layout.id!r}")
            dataset.layouts[layout.id] = layout

    if check_counts and manifest.split_sizes:
        observed = dataset.split_counts()
        for split, expected in manifest.split_sizes.items():
            got = observed.get(split, 0)
            if got != expected:
                raise SchemaError(
                    f"split {split!r} has {got} layouts, manifest declares {expected}"
                )
    return dataset


def export_records(dataset: CanonicalDataset) -> Iterator[dict[str, Any]]:
    """Yield each layout's interchange record in dataset order, built as it
    is read, so ``write_jsonl(export_records(dataset), path)`` never holds a
    second copy of the corpus."""
    for layout in dataset.layouts.values():
        yield layout_to_record(layout)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a bulk build, and restore its
    previous state on the way out, also when the build raises.

    A corpus is tens of thousands of small objects, none in a reference
    cycle, so reference counting frees all it needs to; with the collector
    on, building them triggers collection after collection, and each full
    one walks every live object, the corpus included.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
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
    layouts = dataset.by_split(split)
    if not layouts:
        raise EmptySplit(f"split {split!r} has no layouts")
    areas: dict[str, list[float]] = {}
    for layout in layouts:
        w, h = float(layout.canvas.width), float(layout.canvas.height)
        for e in layout.elements:
            areas.setdefault(e.label, []).append((e.bbox.width / w) * (e.bbox.height / h))
    means = {label: math.fsum(values) / len(values) for label, values in sorted(areas.items())}
    return AreaStats(means=means)


def save_area_stats(stats: AreaStats, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dict(stats.means), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_area_stats(path: str | Path) -> AreaStats:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return AreaStats(means={str(k): float(v) for k, v in data.items()})


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
