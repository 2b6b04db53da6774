"""Ingestion, interchange round-trips, area statistics, PGM rasters, and
indented JSON."""

import json
import math
import re
import struct
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutloom.dataset import (
    AreaStats,
    DatasetManifest,
    PKU_MANIFEST,
    PUBLAYNET_MANIFEST,
    SaliencyRaster,
    compute_area_stats,
    export_records,
    ingest,
    layout_to_record,
    load_area_stats,
    load_manifest,
    load_raster,
    record_to_layout,
    save_area_stats,
    save_manifest,
    save_raster,
    write_jsonl,
    read_jsonl,
)
from layoutloom.errors import (
    DimensionMismatch,
    EmptySplit,
    FormatError,
    LayoutLoomError,
    SchemaError,
    VocabularyError,
    ZeroCanvas,
)
from layoutloom.model import MAX_PIXEL, BBox, Canvas
from layoutloom.retrieval import build_index

from conftest import (
    META_KEYS,
    center,
    normalize,
    object_path_area_means,
    object_path_export,
    object_path_index,
    object_path_ingest,
    object_path_split,
)

PKU_LIKE = DatasetManifest(name="mini", task_kind="content_aware",
                           vocabulary=("text", "logo", "underlay"))


def _record(rid, elements, split="train", canvas=(100, 200), **extra):
    rec = {"id": rid, "split": split, "canvas": {"w": canvas[0], "h": canvas[1]},
           "elements": elements}
    rec.update(extra)
    return rec


class TestManifests:
    def test_pku_statistics(self):
        assert PKU_MANIFEST.split_sizes["train"] == 9974
        assert PKU_MANIFEST.split_sizes["test"] == 905
        assert len(PKU_MANIFEST.vocabulary) == 3
        assert PKU_MANIFEST.task_kind == "content_aware"

    def test_publaynet_statistics(self):
        assert PUBLAYNET_MANIFEST.split_sizes["train"] == 311397
        assert PUBLAYNET_MANIFEST.split_sizes["test"] == 10998
        assert len(PUBLAYNET_MANIFEST.vocabulary) == 5

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(SchemaError):
            DatasetManifest(name="x", task_kind="content_aware", vocabulary=())

    def test_vocabulary_that_repeats_a_label_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="repeats a label"):
            DatasetManifest(name="x", task_kind="content_aware",
                            vocabulary=("text", "logo", "text"))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "x", "task_kind": "content_aware",
                                    "vocabulary": ["text", "text"]}), encoding="utf-8")
        with pytest.raises(SchemaError, match="repeats a label"):
            load_manifest(path)

    def test_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        save_manifest(PKU_MANIFEST, path)
        assert load_manifest(path) == PKU_MANIFEST

    @pytest.mark.parametrize("key, value, kind", [
        ("name", 5, "a string"),
        ("vocabulary", 5, "a non-empty list of strings"),
        ("vocabulary", "text", "a non-empty list of strings"),
        ("vocabulary", ["text", 3], "a non-empty list of strings"),
        ("split_sizes", {"train": "x"}, "an object of non-negative integers"),
        ("split_sizes", {"train": 2.0}, "an object of non-negative integers"),
        ("split_sizes", {"train": True}, "an object of non-negative integers"),
        ("split_sizes", {"train": -1}, "an object of non-negative integers"),
        ("split_sizes", [3], "an object of non-negative integers"),
    ])
    def test_fields_of_the_wrong_type_are_refused(self, tmp_path, key, value, kind):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "x", "task_kind": "content_aware",
                                    "vocabulary": ["text"], key: value}), encoding="utf-8")
        message = f"manifest {key} must be {kind}, got {value!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_manifest(path)

    @pytest.mark.parametrize("content, message", [
        ('{"task_kind": "content_aware", "vocabulary": ["text"]}',
         "manifest is missing key 'name'"),
        ('["text"]', "manifest must be an object, got list"),
        ('{"name": "x", "task_kind": 5, "vocabulary": ["text"]}', "unknown task kind 5"),
    ])
    def test_a_manifest_that_is_not_an_object_of_its_keys_is_refused(self, tmp_path,
                                                                     content, message):
        path = tmp_path / "m.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_manifest(path)


class TestIngest:
    def test_empty_stream(self):
        dataset = ingest([], PKU_LIKE)
        assert len(dataset) == 0
        assert dataset.split_counts() == {}

    def test_layouts_in_pixels_and_keyed(self):
        record = _record("a", [{"label": "text", "bbox": [10, 20, 30, 40]}])
        dataset = ingest([record], PKU_LIKE)
        [exported] = export_records(dataset)
        lay = record_to_layout(exported)
        assert lay == record_to_layout(record)
        assert lay.canvas == Canvas(100, 200)
        assert lay.elements[0].bbox == BBox(10.0, 20.0, 30.0, 40.0)
        assert dataset.ids == ["a"]
        assert dataset.split_counts() == {"train": 1}

    def test_unknown_label_strict(self):
        record = _record("a", [{"label": "banner", "bbox": [0, 0, 10, 10]}])
        with pytest.raises(VocabularyError):
            ingest([record], PKU_LIKE, strict=True)

    def test_unknown_label_lenient_skips_record(self):
        records = [
            _record("a", [{"label": "banner", "bbox": [0, 0, 10, 10]}]),
            _record("b", [{"label": "text", "bbox": [0, 0, 10, 10]}]),
        ]
        dataset = ingest(records, PKU_LIKE, strict=False)
        assert dataset.ids == ["b"]

    def test_duplicate_id(self):
        records = [_record("a", []), _record("a", [])]
        with pytest.raises(SchemaError):
            ingest(records, PKU_LIKE)

    def test_malformed_record(self):
        with pytest.raises(SchemaError):
            ingest([{"id": "a"}], PKU_LIKE)
        with pytest.raises(SchemaError):
            ingest([_record("a", [{"label": "text", "bbox": [1, 2, 3]}])], PKU_LIKE)

    def test_count_check(self):
        manifest = DatasetManifest(name="mini", task_kind="content_aware",
                                   vocabulary=("text",), split_sizes={"train": 2})
        records = [_record("a", []), _record("b", [])]
        assert len(ingest(records, manifest, check_counts=True)) == 2
        with pytest.raises(SchemaError):
            ingest(records[:1], manifest, check_counts=True)

    def test_unlabeled_test_posters(self):
        record = _record("p", [], split="test", saliency="maps/p.pgm")
        [exported] = export_records(ingest([record], PKU_LIKE))
        assert exported["elements"] == []
        assert exported["saliency"] == "maps/p.pgm"

    def test_export_is_loss_free(self, tmp_path):
        records = [
            _record("a", [{"label": "text", "bbox": [10.0, 20.0, 30.0, 40.0]}],
                    text="hello"),
            _record("b", [{"label": "logo", "bbox": [1.0, 2.0, 3.0, 4.0]},
                          {"label": "underlay", "bbox": [0.0, 0.0, 50.0, 60.0]}],
                    split="test"),
        ]
        dataset = ingest(records, PKU_LIKE)
        exported = list(export_records(dataset))
        assert exported == records
        path = tmp_path / "out.jsonl"
        write_jsonl(exported, path)
        assert list(read_jsonl(path)) == records

    @pytest.mark.parametrize("line, kind", [("[1, 2]", "list"), ('"a"', "str"), ("7", "int"),
                                            ("null", "NoneType")])
    def test_read_jsonl_refuses_a_line_that_is_not_an_object(self, tmp_path, line, kind):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a"}\n\n' + line + "\n", encoding="utf-8")
        lines = read_jsonl(path)
        assert next(lines) == {"id": "a"}
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}:3: a record must be an object, got {kind}")):
            next(lines)


# --- parity with the normalize-first path ---------------------------------------
#
# Ingest once divided each box by its canvas as it read it, and export
# scaled each value back. Ingest now keeps each value as read, and the index
# and the area statistics divide where they read it. A separate record
# reader and normalize-first computations are the reference: ingest must
# export the same records, floats bit for bit, and raise the same errors,
# and the index and the statistics must hold the bits that ``normalize``
# gives.

def _reference_read(record, vocabulary=None):
    """A record as export writes it back, read by a reader of its own."""
    if not isinstance(record, Mapping):
        raise SchemaError(f"record must be an object, got {type(record).__name__}")
    if "id" not in record:
        raise SchemaError("record is missing key 'id'")
    rid = str(record["id"])
    canvas_obj = record.get("canvas")
    w, h = (canvas_obj.get("w"), canvas_obj.get("h")) if isinstance(canvas_obj, dict) \
        else (None, None)
    if isinstance(w, bool) or isinstance(h, bool) or not isinstance(w, int) \
            or not isinstance(h, int):
        raise SchemaError(f"record {rid!r} canvas must have integer w and h, got {canvas_obj!r}")
    Canvas(w, h)
    vocab = set(vocabulary) if vocabulary is not None else None
    raw_elements = record.get("elements", [])
    if not isinstance(raw_elements, list):
        raise SchemaError(f"record {rid!r} elements must be a list, got {raw_elements!r}")
    elements = []
    for raw in raw_elements:
        try:
            label = str(raw["label"])
            box = [float(v) for v in raw["bbox"]]
            left, top, width, height = box
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed element in record {rid!r}: {exc}") from exc
        if any(math.isinf(v) or math.isnan(v) for v in box):
            raise SchemaError(f"record {rid!r} has a bbox value that is not a finite number: "
                              f"{raw['bbox']!r}")
        if vocab is not None and label not in vocab:
            raise VocabularyError(f"record {rid!r} uses label {label!r} outside the vocabulary")
        elements.append({"label": label, "bbox": box})
    meta = {k: record[k] for k in META_KEYS if record.get(k) is not None}
    return {"id": rid, "canvas": {"w": w, "h": h}, "elements": elements, **meta}


def _reference_ingest(records, manifest, strict=True):
    layouts = []
    for record in records:
        try:
            layouts.append(_reference_read(record, manifest.vocabulary))
        except VocabularyError:
            if strict:
                raise
    return layouts


def _as_read(record):
    """A record as export writes it: each box value as ``float(value)``."""
    return dict(record, elements=[dict(e, bbox=[float(v) for v in e["bbox"]])
                                  for e in record["elements"]])


def _bits(record):
    """Everything an exported record holds, with each float as its bytes."""
    return (record["id"], record["canvas"], [(k, record[k]) for k in META_KEYS if k in record],
            [(e["label"], struct.pack("<4d", *e["bbox"])) for e in record["elements"]])


def _layout_bits(layout):
    return (layout.id, layout.canvas,
            [(e.label, struct.pack("<4d", e.bbox.left, e.bbox.top, e.bbox.width,
                                   e.bbox.height)) for e in layout.elements])


def _outcome(fn):
    try:
        return "ok", fn()
    except LayoutLoomError as exc:
        return type(exc), str(exc)


_sizes = st.integers(1, 2000)
_canvases = st.one_of(
    st.just((1, 1)),
    st.tuples(_sizes, _sizes).filter(lambda c: c[0] != c[1]),
)
_coords = st.one_of(st.integers(-2000, 4000),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_elements = st.lists(st.fixed_dictionaries({
    "label": st.sampled_from(PKU_LIKE.vocabulary),
    "bbox": st.lists(_coords, min_size=4, max_size=4),
}), max_size=25)
_meta = st.fixed_dictionaries({}, optional={
    "split": st.sampled_from(["train", "test"]),
    "text": st.text(max_size=5),
    "saliency": st.just("maps/s.pgm"),
})


@st.composite
def _records(draw, elements=_elements, canvases=_canvases):
    """Records with distinct ids."""
    records = []
    for i in range(draw(st.integers(1, 4))):
        w, h = draw(canvases)
        record = {"id": f"r{i}", "canvas": {"w": w, "h": h}, "elements": draw(elements)}
        record.update(draw(_meta))
        records.append(record)
    return records


# Elements that may be malformed, not finite, not a list or carry a label
# outside the vocabulary, and canvases that may be empty, to check which
# error comes first.
_faulty_elements = st.one_of(st.lists(st.one_of(
    st.fixed_dictionaries({
        "label": st.sampled_from(PKU_LIKE.vocabulary + ("banner",)),
        "bbox": st.one_of(st.lists(_coords, min_size=3, max_size=5),
                          st.just("abcd"), st.just(7), st.just([1, None, 3, 4]),
                          st.just([1, float("nan"), 3, 4]), st.just([-math.inf, 0, 1, 1])),
    }),
    st.just({"bbox": [0, 0, 1, 1]}),
), max_size=6), st.sampled_from([None, 7, True]))
_faulty_canvases = st.one_of(_canvases, st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.just(("640.5", "480")), st.just(("640", 480)),
                             st.just((640.0, 480)), st.just((True, 480)))


class TestPixelSpaceParity:
    @settings(max_examples=100, deadline=None)
    @given(_records())
    def test_ingest_equals_record_to_layout(self, records):
        exported = list(export_records(ingest(records, PKU_LIKE)))
        assert [_bits(r) for r in exported] == \
            [_bits(r) for r in _reference_ingest(records, PKU_LIKE)]
        assert [_layout_bits(record_to_layout(r)) for r in exported] == \
            [_layout_bits(record_to_layout(r, PKU_LIKE.vocabulary)) for r in records]

    @settings(max_examples=100, deadline=None)
    @given(_records())
    def test_export_writes_each_value_as_read(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("export") / "out.jsonl"
        write_jsonl(export_records(ingest(records, PKU_LIKE)), path)
        expected = "".join(json.dumps(_as_read(r), sort_keys=True) + "\n" for r in records)
        assert path.read_text(encoding="utf-8") == expected

    @settings(max_examples=100, deadline=None)
    @given(_records(elements=_elements.filter(bool)))
    def test_index_stores_the_normalized_boxes(self, records):
        corpus = ingest([dict(r, split="train") for r in records], PKU_LIKE)
        index = build_index(corpus, "train")
        assert list(index.ids) == [r["id"] for r in records]
        for row, record in enumerate(records):
            unit = normalize(record_to_layout(record))
            expected = np.array([(*center(e.bbox), e.bbox.width, e.bbox.height)
                                 for e in unit.elements])
            assert index.coords[row, :len(unit.elements)].tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_records(elements=_elements.filter(bool)))
    def test_area_stats_equal_the_normalize_first_means(self, records):
        corpus = ingest([dict(r, split="train") for r in records], PKU_LIKE)
        areas = {}
        for record in records:
            for e in normalize(record_to_layout(record)).elements:
                areas.setdefault(e.label, []).append(e.bbox.area)
        expected = {label: math.fsum(v) / len(v) for label, v in sorted(areas.items())}
        got = compute_area_stats(corpus, "train").means
        assert list(got) == list(expected)
        assert [struct.pack("<d", v) for v in got.values()] == \
            [struct.pack("<d", v) for v in expected.values()]

    @settings(max_examples=200, deadline=None)
    @given(_records(elements=_faulty_elements, canvases=_faulty_canvases), st.booleans())
    def test_errors_keep_their_type_message_and_order(self, records, strict):
        got = _outcome(lambda: [_bits(r) for r in
                                export_records(ingest(records, PKU_LIKE, strict=strict))])
        expected = _outcome(lambda: [_bits(r) for r in
                                     _reference_ingest(records, PKU_LIKE, strict=strict)])
        assert got == expected

    @pytest.mark.parametrize("strict", [True, False])
    def test_malformed_element_before_unknown_label(self, strict):
        record = _record("a", [{"label": "text", "bbox": [1, 2, 3]},
                               {"label": "banner", "bbox": [0, 0, 1, 1]}])
        with pytest.raises(SchemaError, match="malformed element in record 'a'"):
            ingest([record], PKU_LIKE, strict=strict)

    def test_unknown_label_skips_the_whole_record_when_lenient(self):
        records = [_record("a", [{"label": "text", "bbox": [0, 0, 5, 5]},
                                 {"label": "banner", "bbox": [0, 0, 1, 1]},
                                 {"label": "text", "bbox": [1, 2, 3]}]),
                   _record("b", [{"label": "logo", "bbox": [0, 0, 5, 5]}])]
        assert ingest(records, PKU_LIKE, strict=False).ids == ["b"]
        with pytest.raises(VocabularyError, match="'banner'"):
            ingest(records, PKU_LIKE)

    def test_zero_canvas(self):
        record = _record("a", [{"label": "text", "bbox": [1, 2, 3]}], canvas=(0, 10))
        with pytest.raises(ZeroCanvas):
            ingest([record], PKU_LIKE)

    def test_unit_canvas_comes_back_unchanged(self):
        record = _record("a", [{"label": "text", "bbox": [3, 0.25, 0.5, 7]}], canvas=(1, 1))
        assert list(export_records(ingest([record], PKU_LIKE))) == [
            dict(record, elements=[{"label": "text", "bbox": [3.0, 0.25, 0.5, 7.0]}])]


# Labels outside the vocabulary one time in ten, so lenient ingest skips
# records and strict ingest refuses them; layouts may be empty.
_mixed_elements = st.lists(st.fixed_dictionaries({
    "label": st.sampled_from(PKU_LIKE.vocabulary * 3 + ("banner",)),
    "bbox": st.lists(_coords, min_size=4, max_size=4),
}), max_size=6)


def _packed(means):
    return list(means), [struct.pack("<d", v) for v in means.values()]


class TestColumnsEqualTheObjectPath:
    @settings(max_examples=150, deadline=None)
    @given(_records(elements=_mixed_elements), st.booleans())
    def test_export_area_means_and_index_arrays(self, records, strict):
        try:
            kept = object_path_ingest(records, PKU_LIKE, strict)
        except LayoutLoomError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                ingest(records, PKU_LIKE, strict=strict)
            return
        corpus = ingest(records, PKU_LIKE, strict=strict)
        assert [json.dumps(r, sort_keys=True) for r in export_records(corpus)] == \
            [json.dumps(r, sort_keys=True) for r in object_path_export(kept)]
        for split in ("train", "test", ""):
            layouts = object_path_split(kept, split)
            if not layouts:
                with pytest.raises(EmptySplit):
                    compute_area_stats(corpus, split)
                with pytest.raises(EmptySplit):
                    build_index(corpus, split)
                continue
            assert _packed(compute_area_stats(corpus, split).means) == \
                _packed(object_path_area_means(layouts))
            if not any(layout.elements for layout in layouts):
                with pytest.raises(EmptySplit, match="no layouts with elements"):
                    build_index(corpus, split)
                continue
            index = build_index(corpus, split)
            oracle = object_path_index(layouts, PKU_LIKE.vocabulary)
            assert index.ids == oracle.ids
            for name in ("labels", "coords"):
                got, expected = getattr(index, name), getattr(oracle, name)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (expected.dtype, expected.shape, expected.tobytes())


class TestStreamingExport:
    def test_export_records_is_an_iterator(self):
        exported = export_records(ingest([_record("a", [])], PKU_LIKE))
        assert iter(exported) is exported
        assert next(exported)["id"] == "a"

    @settings(max_examples=100, deadline=None)
    @given(_records())
    def test_streamed_bytes_equal_one_dumps_per_line(self, tmp_path_factory, records):
        corpus = ingest(records, PKU_LIKE)
        path = tmp_path_factory.mktemp("export") / "out.jsonl"
        write_jsonl(export_records(corpus), path)
        expected = "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in export_records(corpus))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_a_failing_record_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        write_jsonl([{"id": "old"}], path)
        before = path.read_bytes()

        def records():
            yield {"id": "a"}
            yield {"id": "b"}
            raise SchemaError("record 3 is broken")

        with pytest.raises(SchemaError, match="record 3"):
            write_jsonl(records(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]


class TestAreaStats:
    def test_single_element(self):
        dataset = ingest([_record("a", [{"label": "text", "bbox": [0, 0, 50, 40]}])],
                         PKU_LIKE)
        stats = compute_area_stats(dataset, "train")
        assert stats["text"] == pytest.approx(0.5 * 0.2, abs=1e-15)

    def test_mean_over_label(self):
        records = [_record("a", [
            {"label": "logo", "bbox": [0, 0, 20, 20]},     # 0.2 * 0.1 = 0.02
            {"label": "logo", "bbox": [0, 0, 40, 40]},     # 0.4 * 0.2 = 0.08
        ])]
        stats = compute_area_stats(ingest(records, PKU_LIKE), "train")
        assert stats["logo"] == pytest.approx(0.05, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        records = []
        for i in range(30):
            elements = []
            for _ in range(int(rng.integers(1, 6))):
                label = str(rng.choice(["text", "logo", "underlay"]))
                w, h = int(rng.integers(1, 100)), int(rng.integers(1, 200))
                elements.append({"label": label, "bbox": [0, 0, w, h]})
            records.append(_record(f"r{i}", elements))
        dataset = ingest(records, PKU_LIKE)
        stats = compute_area_stats(dataset, "train")

        # independent single pass over the raw records
        sums, counts = {}, {}
        for rec in records:
            for el in rec["elements"]:
                area = (el["bbox"][2] / 100) * (el["bbox"][3] / 200)
                sums[el["label"]] = sums.get(el["label"], 0.0) + area
                counts[el["label"]] = counts.get(el["label"], 0) + 1
        for label, total in sums.items():
            assert stats[label] == pytest.approx(total / counts[label], rel=1e-12)

    def test_absent_labels_excluded(self):
        dataset = ingest([_record("a", [{"label": "text", "bbox": [0, 0, 10, 10]}])],
                         PKU_LIKE)
        stats = compute_area_stats(dataset, "train")
        assert "logo" not in stats

    def test_empty_split(self):
        dataset = ingest([_record("a", [])], PKU_LIKE)
        with pytest.raises(EmptySplit):
            compute_area_stats(dataset, "test")

    def test_scale_invariance(self):
        small = ingest([_record("a", [{"label": "text", "bbox": [10, 10, 50, 40]}],
                                canvas=(100, 200))], PKU_LIKE)
        big = ingest([_record("a", [{"label": "text", "bbox": [40, 30, 200, 120]}],
                              canvas=(400, 600))], PKU_LIKE)
        s1 = compute_area_stats(small, "train")["text"]
        s2 = compute_area_stats(big, "train")["text"]
        assert s1 == pytest.approx(0.1, abs=1e-15)
        assert s2 == pytest.approx(0.1, abs=1e-15)

    def test_stats_roundtrip(self, tmp_path):
        stats = AreaStats(means={"text": 0.125, "logo": 0.03125})
        path = tmp_path / "stats.json"
        save_area_stats(stats, path)
        assert load_area_stats(path).means == stats.means

    def test_zero_and_integer_areas_are_read(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text('{"text": 0, "logo": 1, "underlay": 0.0}', encoding="utf-8")
        means = load_area_stats(path).means
        assert means == {"text": 0.0, "logo": 1.0, "underlay": 0.0}
        assert all(type(v) is float for v in means.values())

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "-0.5",
                                       "true", "null", '"0.1"', "[0.1]",
                                       pytest.param("1" + "0" * 400, id="10**400")])
    def test_an_area_that_is_not_a_finite_non_negative_number_is_refused(self, tmp_path,
                                                                         value):
        path = tmp_path / "stats.json"
        path.write_text('{"logo": 0.02, "text": %s}' % value, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: label 'text' needs a finite, non-negative area, got ")):
            load_area_stats(path)

    @pytest.mark.parametrize("content", ["[0.1]", "0.1", "{not json"])
    def test_a_stats_file_without_an_object_is_refused(self, tmp_path, content):
        path = tmp_path / "stats.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            load_area_stats(path)


class TestRasters:
    def test_scaling(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        raster = load_raster(path)
        expected = np.array([[0, 128 / 255], [1.0, 64 / 255]])
        assert np.array_equal(raster.values, expected)

    def test_all_zero(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 0, 0]))
        assert load_raster(path).values.max() == 0.0

    def test_sixteen_bit(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + (65535).to_bytes(2, "big") + (0).to_bytes(2, "big"))
        raster = load_raster(path)
        assert raster.values[0, 0] == 1.0
        assert raster.values[0, 1] == 0.0

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
        raster = load_raster(path)
        assert raster.width == 2 and raster.height == 1

    def test_save_load_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 256, size=(7, 9)).astype(np.float64) / 255.0
        raster = SaliencyRaster(width=9, height=7, values=values)
        path = tmp_path / "rt.pgm"
        save_raster(raster, path)
        again = load_raster(path)
        assert np.array_equal(again.values, raster.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FormatError):
            load_raster(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([0] * 7))
        with pytest.raises(DimensionMismatch):
            load_raster(path)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            SaliencyRaster(width=3, height=2, values=np.zeros((3, 3)))

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (3, 0)])
    def test_a_raster_without_pixels_is_refused(self, width, height):
        with pytest.raises(DimensionMismatch, match="raster has no pixels"):
            SaliencyRaster(width=width, height=height, values=np.zeros((height, width)))

    def test_range_enforced(self):
        with pytest.raises(FormatError):
            SaliencyRaster(width=2, height=1, values=np.array([[0.0, 1.5]]))


class TestRecordCodec:
    def test_roundtrip_via_layout(self):
        record = _record("a", [{"label": "text", "bbox": [1.0, 2.0, 3.0, 4.0]}],
                         text="desc", saliency="s.pgm")
        layout = record_to_layout(record)
        assert layout_to_record(layout) == {key: record[key] for key in ("id", "canvas", "elements")}

    def test_vocab_filter(self):
        record = _record("a", [{"label": "nope", "bbox": [0, 0, 1, 1]}])
        with pytest.raises(VocabularyError):
            record_to_layout(record, vocabulary=("text",))

    @pytest.mark.parametrize("elements", [None, 7, 2.5, True])
    def test_elements_that_are_not_a_list_are_refused(self, elements):
        record = _record("a", elements)
        message = re.escape(f"record 'a' elements must be a list, got {elements!r}")
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE, strict=False)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_box_values_that_are_not_finite_are_refused(self, tmp_path, text):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "split": "train", "canvas": {"w": 10, "h": 10}, '
                        '"elements": [{"label": "text", "bbox": [0, 0, 5, 5]}, '
                        f'{{"label": "text", "bbox": [1, 2, {text}, 4]}}]}}\n',
                        encoding="utf-8")
        [record] = read_jsonl(path)
        message = re.escape("record 'a' has a bbox value that is not a finite number: "
                            f"[1, 2, {float(text)!r}, 4]")
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE, strict=False)

    @pytest.mark.parametrize("value", [MAX_PIXEL + 1, -1e300, 2.5e7])
    def test_box_values_past_the_pixel_bound_are_refused(self, value):
        record = _record("a", [{"label": "text", "bbox": [0, 0, 5, 5]},
                               {"label": "text", "bbox": [1, value, 3, 4]}])
        message = re.escape(f"record 'a' has a bbox value past {MAX_PIXEL:.0f} pixels: "
                            f"[1, {value!r}, 3, 4]")
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE, strict=False)

    def test_box_value_past_float_range_is_refused(self):
        record = _record("a", [{"label": "text", "bbox": [0, 0, 10**400, 5]}])
        message = "malformed element in record 'a': int too large to convert to float"
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE, strict=False)

    @pytest.mark.parametrize("canvas", [(int(MAX_PIXEL) + 1, 200), (100, 10**400)])
    def test_canvas_past_the_pixel_bound_is_refused(self, tmp_path, canvas):
        path = tmp_path / "records.jsonl"
        write_jsonl([_record("big", [{"label": "text", "bbox": [0, 0, 5, 5]}],
                             canvas=canvas)], path)
        [record] = read_jsonl(path)
        message = re.escape(f"record 'big' canvas w and h must be at most {MAX_PIXEL:.0f} pixels")
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        # Ingest used to keep such a canvas, and set-up then failed in
        # compute_area_stats with "int too large to convert to float".
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE, strict=False)

    def test_integer_past_the_digit_limit_is_refused(self, tmp_path):
        # json.loads raises ValueError, not JSONDecodeError, for an integer of
        # more than 4,300 digits; where it has no such limit, the bound refuses it.
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "big", "split": "train", "canvas": {"w": 1' + "0" * 5000
                        + ', "h": 200}, "elements": []}\n', encoding="utf-8")
        with pytest.raises(SchemaError):
            ingest(read_jsonl(path), PKU_LIKE)

    def test_canvas_and_box_values_at_the_pixel_bound_are_read(self):
        record = _record("a", [{"label": "text", "bbox": [-MAX_PIXEL, 0, MAX_PIXEL, 5]}],
                         canvas=(int(MAX_PIXEL), 1))
        layout = record_to_layout(record)
        assert layout.canvas == Canvas(int(MAX_PIXEL), 1)
        assert layout.elements[0].bbox == BBox(-MAX_PIXEL, 0.0, MAX_PIXEL, 5.0)

    @pytest.mark.parametrize("canvas", [None, [100, 200], "100x200", 7])
    def test_canvas_that_is_not_an_object_is_refused(self, canvas):
        record = dict(_record("a", []), canvas=canvas)
        if canvas is None:
            del record["canvas"]
        message = re.escape(f"record 'a' canvas must have integer w and h, got {canvas!r}")
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE)

    def test_record_without_an_id_is_refused(self):
        with pytest.raises(SchemaError, match="^record is missing key 'id'$"):
            record_to_layout({"canvas": {"w": 10, "h": 10}, "elements": []})

    @pytest.mark.parametrize("key, value, kind", [
        ("split", 5, "a string"), ("saliency", 5, "a string"),
        ("gradient", ["g.pgm"], "a string"), ("text", {"en": "a form"}, "a string"),
        ("constraints", ["gen_t"], "an object"), ("constraints", "gen_t", "an object"),
    ])
    def test_record_keys_of_the_wrong_type_are_refused(self, key, value, kind):
        record = _record("a", [{"label": "text", "bbox": [0, 0, 1, 1]}], **{key: value})
        message = "^" + re.escape(f"record 'a' {key} must be {kind}, got {value!r}") + "$"
        with pytest.raises(SchemaError, match=message):
            record_to_layout(record)
        with pytest.raises(SchemaError, match=message):
            ingest([record], PKU_LIKE, strict=False)

    def test_null_record_keys_are_absent(self):
        record = _record("a", [], split=None, saliency=None, text=None, constraints=None)
        assert record_to_layout(record).id == "a"
        [exported] = export_records(ingest([record], PKU_LIKE))
        assert exported == {"id": "a", "canvas": {"w": 100, "h": 200}, "elements": []}

    @pytest.mark.parametrize("w", [100.7, 100.0, "100", True, None])
    def test_canvas_that_is_not_integers_is_refused(self, w):
        wide = _record("a", [{"label": "text", "bbox": [0, 0, 1, 1]}], canvas=(w, 200))
        tall = _record("b", [], canvas=(100, w))
        for record, canvas in ((wide, {"w": w, "h": 200}), (tall, {"w": 100, "h": w})):
            message = re.escape(f"record {record['id']!r} canvas must have integer w and h, "
                                f"got {canvas!r}")
            with pytest.raises(SchemaError, match=message):
                record_to_layout(record)
            with pytest.raises(SchemaError, match=message):
                ingest([record], PKU_LIKE, strict=False)
