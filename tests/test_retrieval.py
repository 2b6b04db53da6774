"""Element cost, transport distance on layouts, similarity, and top-k retrieval."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layoutloom import retrieval
from layoutloom.dataset import AreaStats, DatasetManifest, ingest, record_to_layout
from layoutloom.errors import EmptyIndex, EmptyLayout, SchemaError, VersionMismatch
from layoutloom.model import BBox, Canvas, Element, Layout, denormalize, to_html
from layoutloom.retrieval import (
    RetrievalIndex,
    build_index,
    dual_lower_bounds,
    load_index,
    ltsim_score,
    pseudo_layout,
    save_index,
    topk_retrieve,
    transport_distance,
    transport_lower_bounds,
)

from conftest import (
    center,
    entry_layout,
    make_index,
    make_layout,
    normalize,
    random_normalized_layout,
)

VOCAB = ("text", "logo", "underlay")
MANIFEST = DatasetManifest(name="mini", task_kind="content_aware", vocabulary=VOCAB)


def _element(label, left, top, w, h):
    return Element(label=label, bbox=BBox(left, top, w, h))


def _reference_costs(a, b):
    """The ground cost of every (a, b) element pair, written out in plain
    Python floats: the definition the numpy costs must equal bit for bit."""
    fa = [(*center(e.bbox), e.bbox.width, e.bbox.height, e.label) for e in a]
    fb = [(*center(e.bbox), e.bbox.width, e.bbox.height, e.label) for e in b]
    return [
        [
            0.5 * ((abs(acx - bcx) + abs(acy - bcy)
                    + abs(aw - bw) + abs(ah - bh)) / 4.0)
            + (0.0 if alab == blab else 0.5)
            for bcx, bcy, bw, bh, blab in fb
        ]
        for acx, acy, aw, ah, alab in fa
    ]


def _element_cost(e, f):
    """A 1x1 transport moves all the mass along its one pair, so it costs
    exactly the ground cost of the two elements."""
    def one(element):
        return Layout(id="", canvas=Canvas(1, 1), elements=(element,))
    return transport_distance(one(e), one(f)).cost


class TestElementCost:
    def test_identical_elements(self):
        e = _element("text", 0.1, 0.2, 0.3, 0.4)
        assert _element_cost(e, e) == 0.0

    def test_same_bbox_different_label(self):
        a = _element("text", 0.1, 0.2, 0.3, 0.4)
        b = _element("logo", 0.1, 0.2, 0.3, 0.4)
        assert _element_cost(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_center_shift(self):
        a = _element("text", 0.0, 0.2, 0.2, 0.4)
        b = _element("text", 0.4, 0.2, 0.2, 0.4)   # cx differs by 0.4
        assert _element_cost(a, b) == pytest.approx(0.5 * (0.4 / 4), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = _element(str(rng.choice(["text", "logo"])), *rng.uniform(0, 0.5, 4))
            b = _element(str(rng.choice(["text", "logo"])), *rng.uniform(0, 0.5, 4))
            assert _element_cost(a, b) == _element_cost(b, a)

    def test_equals_the_reference_cost(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = _element(str(rng.choice(["text", "logo"])), *rng.uniform(0, 0.5, 4))
            b = _element(str(rng.choice(["text", "banner"])), *rng.uniform(0, 0.5, 4))
            assert _element_cost(a, b) == _reference_costs([a], [b])[0][0]


class TestTransportDistance:
    def test_self_distance_zero(self):
        lay = make_layout("a", (100, 100), [(10, 10, 30, 30), (50, 50, 20, 20)],
                          ["text", "logo"])
        plan = transport_distance(lay, lay)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_forced_plan_single_elements(self):
        a = make_layout("a", (1, 1), [(0.1, 0.2, 0.3, 0.4)], ["text"])
        b = make_layout("b", (1, 1), [(0.1, 0.2, 0.3, 0.4)], ["logo"])
        plan = transport_distance(a, b)
        assert plan.cost == pytest.approx(0.5, abs=1e-15)
        assert plan.mass[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_normalized_layout(rng)
            b = random_normalized_layout(rng)
            assert transport_distance(a, b).cost == pytest.approx(
                transport_distance(b, a).cost, abs=1e-12)

    def test_empty_layout_rejected(self):
        a = make_layout("a", (100, 100), [(0, 0, 10, 10)])
        empty = make_layout("b", (100, 100), [])
        with pytest.raises(EmptyLayout):
            transport_distance(a, empty)

    def test_pixel_and_normalized_agree(self):
        a_px = make_layout("a", (200, 100), [(20, 10, 60, 30)], ["text"])
        b_px = make_layout("b", (400, 300), [(40, 30, 120, 90)], ["text"])
        d_px = transport_distance(a_px, b_px).cost
        d_norm = transport_distance(normalize(a_px), normalize(b_px)).cost
        assert d_px == d_norm


class TestSimilarity:
    def test_zero_distance_scores_one(self):
        lay = make_layout("a", (100, 100), [(10, 10, 30, 30)])
        assert ltsim_score(lay, lay) == 1.0

    def test_exponential_mapping(self):
        a = make_layout("a", (1, 1), [(0.1, 0.2, 0.3, 0.4)], ["text"])
        b = make_layout("b", (1, 1), [(0.1, 0.2, 0.3, 0.4)], ["logo"])
        assert ltsim_score(a, b) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_monotone_in_distance(self):
        base = make_layout("q", (1, 1), [(0.1, 0.1, 0.2, 0.2)], ["text"])
        near = make_layout("n", (1, 1), [(0.12, 0.1, 0.2, 0.2)], ["text"])
        far = make_layout("f", (1, 1), [(0.6, 0.6, 0.2, 0.2)], ["text"])
        d_near = transport_distance(base, near).cost
        d_far = transport_distance(base, far).cost
        assert d_near < d_far
        assert ltsim_score(base, near) > ltsim_score(base, far)


def _mini_dataset(count=12, seed=2):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        elements = []
        for _ in range(int(rng.integers(1, 4))):
            w, h = int(rng.integers(10, 60)), int(rng.integers(10, 60))
            left = int(rng.integers(0, 100 - w))
            top = int(rng.integers(0, 100 - h))
            label = str(rng.choice(["text", "logo", "underlay"]))
            elements.append({"label": label, "bbox": [left, top, w, h]})
        records.append({"id": f"lay{i:03d}", "split": "train",
                        "canvas": {"w": 100, "h": 100}, "elements": elements})
    return ingest(records, MANIFEST)


def _rewrite(path, **arrays):
    """Replace arrays of a saved index file and keep the others."""
    with np.load(path) as data:
        saved = dict(data)
    saved.update(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **saved)


class TestIndex:
    def test_build_skips_empty_layouts(self):
        records = [
            {"id": "a", "split": "train", "canvas": {"w": 10, "h": 10},
             "elements": [{"label": "text", "bbox": [0, 0, 5, 5]}]},
            {"id": "empty", "split": "train", "canvas": {"w": 10, "h": 10},
             "elements": []},
        ]
        index = build_index(ingest(records, MANIFEST), "train")
        assert index.ids == ("a",)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(VOCAB),
                                       *[st.floats(-1e6, 1e6, allow_nan=False)] * 4),
                             max_size=25), min_size=1, max_size=6).filter(any))
    def test_build_stores_each_box_as_bbox_reads_it(self, layouts):
        records = [{"id": f"r{i}", "split": "train", "canvas": {"w": 1, "h": 1},
                    "elements": [{"label": label, "bbox": box} for label, *box in boxes]}
                   for i, boxes in enumerate(layouts)]
        index = build_index(ingest(records, MANIFEST), "train")
        kept = [layout for layout in map(record_to_layout, records) if layout.elements]
        assert list(index.ids) == [f"r{i}" for i, boxes in enumerate(layouts) if boxes]
        for row, layout in enumerate(kept):
            n = len(layout.elements)
            expected = np.array([(*center(e.bbox), e.bbox.width, e.bbox.height)
                                 for e in layout.elements])
            assert index.coords[row, :n].tobytes() == expected.tobytes()
            assert not index.coords[row, n:].any()
            assert index.labels[row].tolist() == \
                [VOCAB.index(e.label) for e in layout.elements] + [-1] * (index.labels.shape[1] - n)

    def test_save_load_identical_retrieval(self, tmp_path):
        dataset = _mini_dataset()
        index = build_index(dataset, "train")
        path = tmp_path / "index.json"
        save_index(index, path)
        again = load_index(path)
        assert (again.vocabulary, again.ids) == (index.vocabulary, index.ids)
        for name in ("labels", "coords", "counts"):
            assert np.array_equal(getattr(again, name), getattr(index, name))
        rng = np.random.default_rng(6)
        for _ in range(5):
            query = random_normalized_layout(rng)
            assert topk_retrieve(query, index, 5) == topk_retrieve(query, again, 5)

    def test_version_mismatch(self, tmp_path):
        dataset = _mini_dataset()
        index = build_index(dataset, "train")
        path = tmp_path / "index.json"
        save_index(index, path)
        _rewrite(path, version=np.array("0"))
        with pytest.raises(VersionMismatch):
            load_index(path)

    @pytest.mark.parametrize("weights", [[0.8, 0.2], [0.5], [0.5, 0.5, 0.0], [np.nan, 0.5]])
    def test_other_cost_weights_are_refused(self, tmp_path, weights):
        # An index written with other weights would be scored at 0.5/0.5.
        path = tmp_path / "index.json"
        save_index(build_index(_mini_dataset(), "train"), path)
        with np.load(path) as data:
            assert data["weights"].tolist() == [0.5, 0.5]
        _rewrite(path, weights=np.array(weights))
        with pytest.raises(SchemaError, match=f"^index {re.escape(str(path))} has cost weights"):
            load_index(path)

    def test_oversized_layout_rejected(self, tmp_path):
        def record(rid, count):
            return {"id": rid, "split": "train", "canvas": {"w": 100, "h": 100},
                    "elements": [{"label": "text", "bbox": [i, i, 10, 10]}
                                 for i in range(count)]}

        index = build_index(ingest([record("a", 25)], MANIFEST), "train")
        with pytest.raises(SchemaError, match="'b' has 26 elements"):
            build_index(ingest([record("a", 25), record("b", 26)], MANIFEST), "train")
        path = tmp_path / "index.json"
        save_index(index, path)
        _rewrite(path, labels=np.zeros((1, 26), dtype=np.int64), coords=np.zeros((1, 26, 4)))
        with pytest.raises(SchemaError, match="'a' has 26 elements"):
            load_index(path)

    def test_entries_html_round_half_up(self):
        # On a 4-pixel side the left edges land on -1.5, -0.5, 0.5 and 1.5 pixels.
        index = RetrievalIndex(("text", "logo"), ["a"], [[0, 1, 0, 1]],
                               [[(-0.25, 0.5, 0.25, 0.5), (0.0, 0.5, 0.25, 0.5),
                                 (0.25, 0.5, 0.25, 0.5), (0.5, 0.5, 0.25, 0.5)]])
        assert index.entries_html([0], Canvas(4, 2)) == [
            '<html><body>\n<div class="canvas" style="width:4px; height:2px"></div>\n'
            '<div class="text" style="left:-1px; top:1px; width:1px; height:1px"></div>\n'
            '<div class="logo" style="left:0px; top:1px; width:1px; height:1px"></div>\n'
            '<div class="text" style="left:1px; top:1px; width:1px; height:1px"></div>\n'
            '<div class="logo" style="left:2px; top:1px; width:1px; height:1px"></div>\n'
            '</body></html>']
        assert index.entries_html([], Canvas(4, 2)) == []


_EIGHTHS = st.integers(-16, 24).map(lambda k: k / 8)  # lands on .5 on even sides


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(VOCAB),
                                   st.one_of(_EIGHTHS, st.floats(-1.0, 2.0)),
                                   st.one_of(_EIGHTHS, st.floats(-1.0, 2.0)),
                                   st.one_of(_EIGHTHS, st.floats(0.0, 1.5)),
                                   st.one_of(_EIGHTHS, st.floats(0.0, 1.5))),
                         min_size=1, max_size=25), min_size=1, max_size=12),
       st.sampled_from([(4, 8), (2, 2), (513, 750), (1, 1), (7, 3), (400, 300)]),
       st.data())
def test_entries_html_is_to_html_of_the_denormalized_entry(entries, canvas, data):
    n_max = max(len(entry) for entry in entries)
    labels = np.full((len(entries), n_max), -1)
    coords = np.zeros((len(entries), n_max, 4))
    for row, entry in enumerate(entries):
        for col, (label, *values) in enumerate(entry):
            labels[row, col] = VOCAB.index(label)
            coords[row, col] = values
    index = RetrievalIndex(VOCAB, [f"e{i}" for i in range(len(entries))], labels, coords)
    positions = data.draw(st.lists(st.integers(0, len(entries) - 1), max_size=12))
    assert index.entries_html(positions, Canvas(*canvas)) == \
        [to_html(denormalize(entry_layout(index, pos), *canvas)) for pos in positions]


def _two_entries():
    """Labels [[0, 1], [2, -1]] and coordinates of entries 'a' and 'b'."""
    index = make_index([
        ("a", _layout([("text", 0.1, 0.1, 0.2, 0.2), ("logo", 0.5, 0.5, 0.2, 0.2)])),
        ("b", _layout([("underlay", 0.0, 0.0, 1.0, 1.0)])),
    ])
    return index.labels.copy(), index.coords.copy()


class TestIndexValidation:
    @pytest.mark.parametrize("cell, label, entry", [
        ((1, 0), 3, "b"),    # one past the vocabulary
        ((0, 1), -2, "a"),
        ((0, 0), -1, "a"),   # padding before a real element
    ])
    def test_label_outside_vocabulary_is_refused(self, cell, label, entry):
        labels, coords = _two_entries()
        labels[cell] = label
        with pytest.raises(SchemaError, match=f"'{entry}' has label ids outside"):
            RetrievalIndex(VOCAB, ("a", "b"), labels, coords)

    def test_loaded_label_outside_vocabulary_is_refused(self, tmp_path):
        # Unchecked, the mass of label id 3 would land in the TV histogram
        # of the next entry with as many elements.
        index = build_index(_mini_dataset(), "train")
        path = tmp_path / "index.json"
        save_index(index, path)
        labels = index.labels.copy()
        labels[0, 0] = len(VOCAB)
        _rewrite(path, labels=labels)
        with pytest.raises(SchemaError, match="label ids outside"):
            load_index(path)

    @pytest.mark.parametrize("change", [
        lambda ids, labels, coords: (ids[:1], labels, coords),
        lambda ids, labels, coords: (ids, labels[0], coords),
        lambda ids, labels, coords: (ids, labels.astype(float), coords),
        lambda ids, labels, coords: (ids, labels, coords[:, :, :3]),
        lambda ids, labels, coords: (ids, labels, coords[:, :1]),
        lambda ids, labels, coords: (ids, labels, coords.astype(np.int64)),
    ])
    def test_arrays_that_do_not_fit_are_refused(self, change):
        labels, coords = _two_entries()
        with pytest.raises(SchemaError, match="do not fit together"):
            RetrievalIndex(VOCAB, *change(("a", "b"), labels, coords))

    def test_non_finite_coordinate_is_refused(self):
        labels, coords = _two_entries()
        coords[1, 1, 2] = np.nan  # padding is checked too
        with pytest.raises(SchemaError, match="'b' has non-finite coordinates"):
            RetrievalIndex(VOCAB, ("a", "b"), labels, coords)

    @pytest.mark.parametrize("vocabulary, ids", [
        (VOCAB, ("a\0", "b")),
        (VOCAB, ("a", 7)),
        (("text", "logo\0", "underlay"), ("a", "b")),
    ])
    def test_strings_an_index_file_cannot_hold_are_refused(self, vocabulary, ids):
        labels, coords = _two_entries()
        with pytest.raises(SchemaError, match="not a string"):
            RetrievalIndex(vocabulary, ids, labels, coords)

    def test_strings_from_unicode_arrays_are_kept_as_str(self):
        labels, coords = _two_entries()
        index = RetrievalIndex(np.array(VOCAB), np.array(["a", "b"]), labels, coords)
        assert index.vocabulary == VOCAB and index.ids == ("a", "b")
        assert all(type(s) is str for s in index.vocabulary + index.ids)
        assert index.positions == {"a": 0, "b": 1}

    @pytest.mark.parametrize("ids", [
        np.array([["a"], ["b"]]),                   # not one-dimensional
        np.array(["a", 7], dtype=object),           # not a unicode array
        np.array([b"a", b"b"]),                     # bytes
    ])
    def test_arrays_that_are_not_flat_unicode_are_still_checked(self, ids):
        labels, coords = _two_entries()
        with pytest.raises(SchemaError, match="not a string"):
            RetrievalIndex(VOCAB, ids, labels, coords)

    def test_bound_groups_hold_each_count_sorted(self):
        index = build_index(_mini_dataset(), "train")
        assert sorted(index.bound_groups) == sorted(set(index.counts.tolist()))
        for n, (positions, group) in index.bound_groups.items():
            assert positions.tolist() == np.flatnonzero(index.counts == n).tolist()
            assert group.flags.c_contiguous
            expected = np.sort(index.coords[positions, :n], axis=1).transpose(2, 1, 0)
            assert np.array_equal(group, expected)

    def test_vocabulary_that_repeats_a_label_is_refused(self):
        labels, coords = _two_entries()
        with pytest.raises(SchemaError, match="repeats a label"):
            RetrievalIndex(("text", "logo", "text"), ("a", "b"), labels, coords)

    def test_repeated_id_is_refused(self, tmp_path):
        labels, coords = _two_entries()
        with pytest.raises(SchemaError, match="repeats id 'a'"):
            RetrievalIndex(VOCAB, ("a", "a"), labels, coords)
        path = tmp_path / "index.json"
        save_index(build_index(_mini_dataset(), "train"), path)
        with np.load(path) as data:
            ids = data["ids"].copy()
        ids[1] = ids[0]
        _rewrite(path, ids=ids)
        with pytest.raises(SchemaError, match="repeats id"):
            load_index(path)

    def test_positions_map_ids_to_rows(self):
        labels, coords = _two_entries()
        index = RetrievalIndex(VOCAB, ("b", "a"), labels, coords)
        assert index.positions == {"b": 0, "a": 1}

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        save_index(build_index(_mini_dataset(), "train"), tmp_path / "index.json")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    @pytest.mark.parametrize("content, error", [
        (b"", SchemaError),
        (b"[]", SchemaError),
        (b'{"id": "a"}\n{"id": "b"}\n', SchemaError),
        (b"PK\x03\x04 truncated", SchemaError),
        # A JSON index of the retired version 1 is no archive either.
        (json.dumps({"entries": [{"elements": [[0, 0.5, 0.5, 0.2, 0.2]], "id": "a"}],
                     "version": "1", "vocabulary": ["text"],
                     "weights": {"w_geo": 0.5, "w_label": 0.5}}).encode(), SchemaError),
    ])
    def test_file_that_is_not_an_index(self, tmp_path, content, error):
        path = tmp_path / "index.json"
        path.write_bytes(content)
        with pytest.raises(error, match="not a layoutloom index; build one with "
                                        "`layoutloom index build`"):
            load_index(path)

    def test_archive_missing_an_array(self, tmp_path):
        path = tmp_path / "index.json"
        labels, coords = _two_entries()
        with open(path, "wb") as fh:
            np.savez(fh, version=np.array("2"), labels=labels, coords=coords)
        with pytest.raises(SchemaError, match="not a layoutloom index"):
            load_index(path)


class TestTopK:
    def test_exact_copy_ranks_first(self):
        dataset = _mini_dataset()
        index = build_index(dataset, "train")
        query = entry_layout(index, 3)
        ranked = topk_retrieve(query, index, 3)
        assert ranked[0][0] == index.ids[3]
        assert ranked[0][1] == 1.0

    def test_oversized_query_rejected(self):
        index = build_index(_mini_dataset(), "train")
        assert len(topk_retrieve(pseudo_layout({"text": 20, "logo": 5}), index, 3)) == 3
        with pytest.raises(SchemaError, match="query has 26 elements"):
            topk_retrieve(pseudo_layout({"text": 20, "logo": 6}), index, 3)

    def test_exclude_self(self):
        dataset = _mini_dataset()
        index = build_index(dataset, "train")
        query = entry_layout(index, 3)
        ranked = topk_retrieve(query, index, 3, exclude_self=True)
        assert all(rid != query.id for rid, _ in ranked)
        # An index that holds only the query leaves nothing to return.
        alone = make_index([(query.id, query)])
        assert topk_retrieve(query, alone, 3, exclude_self=True) == []
    def test_k_larger_than_index(self):
        dataset = _mini_dataset(count=4)
        index = build_index(dataset, "train")
        query = entry_layout(index, 0)
        assert len(topk_retrieve(query, index, 50)) == len(index)

    def test_matches_full_scan_sort(self):
        dataset = _mini_dataset(count=30, seed=14)
        index = build_index(dataset, "train")
        rng = np.random.default_rng(15)
        for _ in range(10):
            query = random_normalized_layout(rng)
            scan = [
                (index.ids[i], ltsim_score(query, entry_layout(index, i)))
                for i in range(len(index))
            ]
            scan.sort(key=lambda t: (-t[1], t[0]))
            assert topk_retrieve(query, index, len(index)) == scan

    def test_tie_order_ascending_id(self):
        # two identical layouts under different ids tie exactly
        records = [
            {"id": "zz", "split": "train", "canvas": {"w": 10, "h": 10},
             "elements": [{"label": "text", "bbox": [1, 1, 4, 4]}]},
            {"id": "aa", "split": "train", "canvas": {"w": 10, "h": 10},
             "elements": [{"label": "text", "bbox": [1, 1, 4, 4]}]},
        ]
        index = build_index(ingest(records, MANIFEST), "train")
        query = make_layout("q", (10, 10), [(1, 1, 4, 4)])
        ranked = topk_retrieve(query, index, 2)
        assert [rid for rid, _ in ranked] == ["aa", "zz"]

    def test_empty_index_and_query(self):
        dataset = _mini_dataset(count=3)
        index = build_index(dataset, "train")
        with pytest.raises(EmptyLayout):
            topk_retrieve(make_layout("q", (10, 10), []), index, 2)
        empty = RetrievalIndex(("text",), (), np.zeros((0, 0), dtype=np.int64),
                               np.zeros((0, 0, 4)))
        with pytest.raises(EmptyIndex):
            topk_retrieve(make_layout("q", (10, 10), [(0, 0, 5, 5)]), empty, 1)


def _random_index(rng, size):
    return make_index([(f"e{i:03d}", random_normalized_layout(rng, max_elements=6))
                       for i in range(size)])


def _brute_force(query, index, k, exclude_self=False):
    scan = [
        (index.ids[i], ltsim_score(query, entry_layout(index, i)))
        for i in range(len(index))
        if not (exclude_self and index.ids[i] == query.id)
    ]
    scan.sort(key=lambda t: (-t[1], t[0]))
    return scan[:k]


_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_feature = st.tuples(st.sampled_from(VOCAB + ("banner", "headline")),
                     _coord, _coord, _coord, _coord)
_features = st.lists(_feature, min_size=1, max_size=25)


def _layout(elements):
    return Layout(id="q", canvas=Canvas(1, 1), elements=tuple(
        Element(label=label, bbox=BBox(left, top, w, h))
        for label, left, top, w, h in elements))


def _in_vocabulary(entries):
    """Entry labels stay inside the vocabulary; a query's may not."""
    inside = {"banner": "text", "headline": "underlay"}
    return [[(inside.get(e[0], e[0]), *e[1:]) for e in elements] for elements in entries]


def _index_storing(entries):
    """An index whose entries store exactly the given (label, cx, cy, w, h)
    elements, centers included."""
    labels = np.full((len(entries), max(map(len, entries))), -1)
    coords = np.zeros(labels.shape + (4,))
    for row, elements in enumerate(entries):
        for col, (label, *box) in enumerate(elements):
            labels[row, col] = VOCAB.index(label)
            coords[row, col] = box
    return RetrievalIndex(VOCAB, [f"e{i}" for i in range(len(entries))], labels, coords)


def _unstable_center():
    """A center cx and width w that ``(cx - w/2) + w/2`` does not give back."""
    return next((cx, w) for cx in np.linspace(0.0, 1.0, 101).tolist()
                for w in np.linspace(0.01, 1.0, 100).tolist()
                if (cx - w / 2.0) + w / 2.0 != cx)


def _costs(query, index):
    """The cost tensor ``topk_retrieve`` solves from, for every entry."""
    return retrieval._entry_costs(*retrieval._features(query, index.vocabulary), index,
                                  list(range(len(index))))


class TestGroundCost:
    @settings(max_examples=60, deadline=None)
    @given(query=_features, entries=st.lists(_features, min_size=1, max_size=4))
    def test_entry_costs_equal_the_reference_bit_for_bit(self, query, entries):
        cx, w = _unstable_center()
        index = _index_storing(_in_vocabulary(entries) + [[("logo", cx, 0.5, w, 0.2)]])
        q = _layout(query)
        costs = _costs(q, index)
        for pos in range(len(index)):
            reference = _reference_costs(q.elements, entry_layout(index, pos).elements)
            assert costs[pos, :, :index.counts[pos]].tobytes() == np.array(reference).tobytes()

    def test_copy_of_an_entry_with_an_unstable_center_costs_zero(self):
        cx, w = _unstable_center()
        index = _index_storing([[("text", cx, 0.5, w, 0.25)]])
        query = entry_layout(index, 0)
        assert center(query.elements[0].bbox)[0] != cx
        assert _costs(query, index).tolist() == [[[0.0]]]
        # The stored center would give a positive cost and a similarity below 1.
        q_labels, q_feats = retrieval._features(query, index.vocabulary)
        assert retrieval._ground_costs(q_labels, q_feats, index.labels,
                                       index.coords)[0, 0, 0] > 0.0
        assert topk_retrieve(query, index, 1) == [("e0", 1.0)]


def _bounds(query, index):
    """The first and the dual lower bound of every entry, from the arrays
    ``topk_retrieve`` computes them from."""
    q_labels, q_feats = retrieval._features(query, index.vocabulary)
    return (transport_lower_bounds(q_labels, q_feats, index),
            dual_lower_bounds(_costs(query, index), index.counts))


class TestLowerBound:
    @settings(max_examples=80, deadline=None)
    @given(query=_features, entries=st.lists(_features, min_size=1, max_size=4))
    def test_never_exceeds_exact_cost(self, query, entries):
        index = make_index([(f"e{i}", _layout(elements))
                            for i, elements in enumerate(_in_vocabulary(entries))])
        q = _layout(query)
        bounds, dual = _bounds(q, index)
        assert bounds.shape == (len(index),)
        assert dual.shape == (len(index),)
        for pos in range(len(index)):
            exact = transport_distance(q, entry_layout(index, pos)).cost
            assert bounds[pos] <= exact + 1e-12
            assert dual[pos] <= exact + 1e-12

    def test_outside_labels_count_as_mismatched(self):
        # A query with an entry's geometry and only labels outside the
        # vocabulary: the W1 term of that entry is 0, its TV term 1.
        rng = np.random.default_rng(40)
        layouts = [random_normalized_layout(rng, max_elements=6) for _ in range(5)]
        index = make_index([(f"e{i}", layout) for i, layout in enumerate(layouts)])
        for pos, layout in enumerate(layouts):
            query = replace(layout, elements=tuple(
                replace(e, label=("banner", "headline")[i % 2])
                for i, e in enumerate(layout.elements)))
            bounds, _ = _bounds(query, index)
            assert bounds[pos] == 0.5
            assert np.all(bounds >= 0.5)

    def test_dual_bound_is_close_to_exact(self):
        rng = np.random.default_rng(42)
        index = make_index([(f"e{i:02d}", random_normalized_layout(rng, max_elements=25))
                            for i in range(30)])
        query = random_normalized_layout(rng, max_elements=15)
        exact = np.array([transport_distance(query, entry_layout(index, pos)).cost
                          for pos in range(len(index))])
        first, dual = _bounds(query, index)
        assert np.all(dual <= exact + 1e-12)
        assert np.all(exact - dual < 0.02)
        assert (exact - dual).mean() < (exact - first).mean() / 4

    def test_empty_entry_is_refused(self):
        index = _random_index(np.random.default_rng(43), 4)
        labels = index.labels.copy()
        labels[2] = -1
        with pytest.raises(SchemaError, match="'e002' has no elements"):
            RetrievalIndex(VOCAB, index.ids, labels, index.coords)


class TestPrunedTopK:
    def test_duplicate_geometry_tie_order(self):
        rng = np.random.default_rng(50)
        shapes = [random_normalized_layout(rng, max_elements=4) for _ in range(10)]
        # four copies of every shape under ids that do not follow position
        index = make_index([(f"id{(7 * i) % 40:02d}", shapes[i % 10]) for i in range(40)])
        for pos in range(10):
            query = entry_layout(index, pos)
            for k in (1, 2, 3, 5, 6, 9):
                assert topk_retrieve(query, index, k) == _brute_force(query, index, k)

    def test_k_at_least_index_size(self):
        rng = np.random.default_rng(51)
        index = _random_index(rng, 25)
        query = random_normalized_layout(rng, max_elements=5)
        for k in (len(index), len(index) + 7):
            assert topk_retrieve(query, index, k) == _brute_force(query, index, k)

    def test_exclude_self_with_copied_query(self):
        rng = np.random.default_rng(52)
        index = _random_index(rng, 30)
        for pos in (0, 11, 29):
            query = entry_layout(index, pos)
            for k in (1, 4, 29, 30):
                assert topk_retrieve(query, index, k, exclude_self=True) == \
                    _brute_force(query, index, k, exclude_self=True)

    def test_similarities_that_underflow_tie_by_id(self):
        # A query 1e4 away costs over 745 against every entry, so every
        # similarity underflows to 0.0 and ids alone order the ties.
        rng = np.random.default_rng(53)
        index = _random_index(rng, 40)
        for _ in range(5):
            query = random_normalized_layout(rng, max_elements=6)
            query = replace(query, elements=tuple(
                replace(e, bbox=replace(e.bbox, left=e.bbox.left + 1e4)) for e in query.elements))
            for k in (1, 4, 40):
                expected = _brute_force(query, index, k)
                assert [sim for _, sim in expected] == [0.0] * k
                assert topk_retrieve(query, index, k) == expected

    def test_query_label_outside_vocabulary(self):
        rng = np.random.default_rng(54)
        index = _random_index(rng, 40)
        query = _layout([("banner", 0.1, 0.1, 0.3, 0.2), ("text", 0.2, 0.5, 0.4, 0.1)])
        for k in (1, 5):
            assert topk_retrieve(query, index, k) == _brute_force(query, index, k)

    def test_single_element_count(self):
        rng = np.random.default_rng(55)
        index = make_index([
            (f"s{i:02d}", _layout([(str(rng.choice(VOCAB)), *rng.uniform(0, 0.5, 4))
                                   for _ in range(3)]))
            for i in range(30)])
        for _ in range(5):
            query = random_normalized_layout(rng, max_elements=5)
            for k in (1, 3, 10):
                assert topk_retrieve(query, index, k) == _brute_force(query, index, k)

    def test_prunes_most_solves(self, monkeypatch):
        rng = np.random.default_rng(56)
        index = _random_index(rng, 300)
        solves = []
        real = retrieval.solve_exact
        monkeypatch.setattr(retrieval, "solve_exact",
                            lambda cost: solves.append(1) or real(cost))
        query = random_normalized_layout(rng, max_elements=4)
        ranked = topk_retrieve(query, index, 4)
        assert 4 <= len(solves) < len(index) // 4
        assert ranked == _brute_force(query, index, 4)

    def test_dual_bound_leaves_few_solves_beyond_k(self, monkeypatch):
        # Entries as large as the query: the first bound alone keeps many.
        rng = np.random.default_rng(57)
        index = make_index([(f"e{i:03d}", random_normalized_layout(rng, max_elements=12))
                            for i in range(120)])
        solves = []
        real = retrieval.solve_exact
        monkeypatch.setattr(retrieval, "solve_exact",
                            lambda cost: solves.append(1) or real(cost))
        for _ in range(3):
            query = random_normalized_layout(rng, max_elements=12)
            solves.clear()
            ranked = topk_retrieve(query, index, 5)
            assert len(solves) <= 2 * 5
            assert ranked == _brute_force(query, index, 5)


def _clustered_index(rng, size=240, m=6, jitter=0.08):
    """``size`` entries of ``m`` elements, jittered copies of one base layout,
    each geometry stored twice under shuffled ids; and a jittered copy of
    the base as a query. The first bound rules few of them out."""
    labels = rng.choice(VOCAB, m)
    w, h = rng.uniform(0.1, 0.4, (2, m))
    left, top = rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h)

    def jittered(layout_id):
        d = rng.normal(0.0, jitter, (4, m))
        return Layout(id=layout_id, canvas=Canvas(1, 1), elements=tuple(
            _element(str(labels[i]), float(left[i] + d[0, i]), float(top[i] + d[1, i]),
                     float(w[i] + d[2, i]), float(h[i] + d[3, i]))
            for i in range(m)))

    shapes = [jittered("") for _ in range(size // 2)]
    ids = [f"e{p:03d}" for p in rng.permutation(size)]
    return make_index([(ids[i], shapes[i % len(shapes)]) for i in range(size)]), jittered("q")


def _first_bound_survivors(query, index, kth_similarity):
    """Entries whose first-bound similarity is not below the true k-th
    similarity, which is at least the one the first k solves set."""
    bounds, _ = _bounds(query, index)
    kept = np.exp(retrieval.BOUND_SLACK - bounds) >= kth_similarity
    return int(kept.sum())


class TestBatchedDualBound:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), exclude_self=st.booleans(),
           query_kind=st.sampled_from(["near", "entry", "outside"]))
    def test_equals_full_scan_across_batches(self, seed, k, exclude_self, query_kind):
        rng = np.random.default_rng(seed)
        index, query = _clustered_index(rng)
        if query_kind == "entry":  # an entry under its own id, with its duplicate
            query = entry_layout(index, int(rng.integers(len(index))))
        elif query_kind == "outside":
            query = replace(query, elements=(replace(query.elements[0], label="banner"),)
                            + query.elements[1:])
        expected = _brute_force(query, index, k, exclude_self)
        survivors = _first_bound_survivors(query, index, expected[-1][1]) - k
        assume(survivors > 2 * retrieval.DUAL_BATCH)
        assert topk_retrieve(query, index, k, exclude_self=exclude_self) == expected

    def test_checkpoint_bounds_never_exceed_exact_cost(self):
        rng = np.random.default_rng(60)
        index = make_index([(f"e{i:02d}", random_normalized_layout(rng, max_elements=12))
                            for i in range(40)])
        query = random_normalized_layout(rng, max_elements=12)
        exact = np.array([transport_distance(query, entry_layout(index, pos)).cost
                          for pos in range(len(index))])
        checkpoints = []

        def keep_all(bound):
            checkpoints.append(bound.copy())
            return np.zeros(len(bound), dtype=bool)

        dual_lower_bounds(_costs(query, index), index.counts, keep_all)
        assert len(checkpoints) == len(retrieval.DUAL_CHECKPOINTS)
        for bound in checkpoints:
            assert np.all(bound <= exact + 1e-12)

    def test_rows_are_dropped_only_when_ruled_out(self):
        rng = np.random.default_rng(61)
        index = make_index([(f"e{i:02d}", random_normalized_layout(rng, max_elements=12))
                            for i in range(60)])
        query = random_normalized_layout(rng, max_elements=12)
        costs = _costs(query, index)
        exact = np.array([transport_distance(query, entry_layout(index, pos)).cost
                          for pos in range(len(index))])
        full = dual_lower_bounds(costs, index.counts)
        threshold = float(np.median(full))
        pruned = dual_lower_bounds(costs, index.counts, lambda bound: bound > threshold)
        assert pruned.shape == full.shape
        assert np.all(pruned <= exact + 1e-12)
        # A row either stopped with a bound the predicate rules out, or ran
        # the whole anneal.
        stopped = pruned > threshold
        assert 0 < stopped.sum() < len(index)
        assert np.all(np.abs(pruned - full)[~stopped] <= 1e-9)

    def test_two_argument_call_returns_a_full_length_bound(self):
        rng = np.random.default_rng(62)
        index = _random_index(rng, 30)
        query = random_normalized_layout(rng, max_elements=6)
        costs = _costs(query, index)
        bound = dual_lower_bounds(costs, index.counts)
        assert bound.shape == (len(index),)
        assert np.all(np.isfinite(bound))
        keep_all = dual_lower_bounds(costs, index.counts,
                                     lambda b: np.zeros(len(b), dtype=bool))
        assert bound.tobytes() == keep_all.tobytes()

    def test_segment_arrays_are_cached_read_only(self):
        segments = retrieval._quantile_segments(4, 6)
        assert segments is retrieval._quantile_segments(4, 6)
        for array in segments:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_a_batch_whose_first_entry_is_ruled_out_ends_the_scan(self, monkeypatch):
        # The first k solves set a low k-th similarity, so the first bound
        # keeps several batches; the solves of the first batch raise it.
        rng = np.random.default_rng(63)
        index, query = _clustered_index(rng, size=300, jitter=0.05)
        k = 4
        expected = _brute_force(query, index, k)
        bounds, _ = _bounds(query, index)
        head_cost = max(transport_distance(query, entry_layout(index, pos)).cost
                        for pos in np.argsort(bounds, kind="stable")[:k].tolist())
        kept_by_head = int((bounds - retrieval.BOUND_SLACK <= head_cost).sum()) - k
        assert kept_by_head > 3 * retrieval.DUAL_BATCH
        batches = []
        real = retrieval.dual_lower_bounds
        monkeypatch.setattr(retrieval, "dual_lower_bounds",
                            lambda *a: batches.append(1) or real(*a))
        assert topk_retrieve(query, index, k) == expected
        assert 0 < len(batches) < kept_by_head // retrieval.DUAL_BATCH

    def test_vector_prefilter_tolerates_np_exp_below_math_exp(self, monkeypatch):
        # One-element entries tie with the query's copies at a cost near 720,
        # where similarities are subnormal and BOUND_SLACK leaves the bound
        # similarity equal to the exact one; the head holds the copy at the
        # first position, and a lower id waits outside it.
        query = _layout([("text", 0.1, 0.2, 0.2, 0.2)])
        far = [("logo", 6000.0, 6000.0, 0.1, 0.1)]

        def tied(offset):
            near = [("text", 2880.2 + offset, 2880.3, 0.2, 0.2)]
            stored = _index_storing([near, far, near, far, near])
            return RetrievalIndex(VOCAB, ["e3", "e0", "e1", "e4", "e2"],
                                  stored.labels, stored.coords)

        def bound_equals_exact(index):
            bound = float(_bounds(query, index)[0][0])
            exact = transport_distance(query, entry_layout(index, 0)).cost
            return bound == exact and math.exp(retrieval.BOUND_SLACK - bound) \
                == math.exp(-exact) > 0.0

        index = next(index for index in map(tied, np.linspace(0.01, 0.3, 300).tolist())
                     if bound_equals_exact(index))
        # np.exp one unit in the last place below math.exp, as it may be.
        real = np.exp
        monkeypatch.setattr(np, "exp", lambda x, *a, **kw: np.nextafter(
            real(x, *a, **kw), -np.inf, **kw))
        expected = _brute_force(query, index, 1)
        assert expected[0][0] == "e1"
        assert topk_retrieve(query, index, 1) == expected


class TestPseudoLayout:
    def test_uses_stats_areas(self):
        stats = AreaStats(means={"text": 0.09, "logo": 0.04})
        lay = pseudo_layout({"text": 2, "logo": 1}, stats)
        assert len(lay.elements) == 3
        text_box = lay.elements[0].bbox
        assert text_box.width == pytest.approx(0.3, abs=1e-12)
        assert center(text_box)[0] == pytest.approx(0.5, abs=1e-12)
        assert lay.canvas == Canvas(1, 1)

    def test_default_area_without_stats(self):
        lay = pseudo_layout({"underlay": 1})
        assert lay.elements[0].bbox.width == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_empty_categories_rejected(self):
        with pytest.raises(EmptyLayout):
            pseudo_layout({})

    def test_more_elements_than_a_query_holds_are_refused_up_front(self):
        with pytest.raises(SchemaError, match=r"^retrieval query has 26 elements; transport "
                                              r"similarity supports at most 25$"):
            pseudo_layout({"text": 20, "logo": 6})
