"""Element cost, transport distance on layouts, similarity, and top-k retrieval."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutloom import retrieval
from layoutloom.dataset import AreaStats, DatasetManifest, ingest
from layoutloom.errors import EmptyIndex, EmptyLayout, SchemaError, VersionMismatch
from layoutloom.model import BBox, Canvas, Element, Layout, normalize
from layoutloom.retrieval import (
    CostWeights,
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

from conftest import make_index, make_layout, random_normalized_layout

VOCAB = ("text", "logo", "underlay")
MANIFEST = DatasetManifest(name="mini", task_kind="content_aware", vocabulary=VOCAB)


def _element(label, left, top, w, h):
    return Element(label=label, bbox=BBox(left, top, w, h))


def _reference_costs(a, b, weights):
    """The ground cost of every (a, b) element pair, written out in plain
    Python floats: the definition the numpy costs must equal bit for bit."""
    fa = [(e.bbox.cx, e.bbox.cy, e.bbox.width, e.bbox.height, e.label) for e in a]
    fb = [(e.bbox.cx, e.bbox.cy, e.bbox.width, e.bbox.height, e.label) for e in b]
    wg, wl = weights.w_geo, weights.w_label
    return [
        [
            wg * ((abs(acx - bcx) + abs(acy - bcy)
                   + abs(aw - bw) + abs(ah - bh)) / 4.0)
            + (0.0 if alab == blab else wl)
            for bcx, bcy, bw, bh, blab in fb
        ]
        for acx, acy, aw, ah, alab in fa
    ]


def _element_cost(e, f, weights=CostWeights()):
    """A 1x1 transport moves all the mass along its one pair, so it costs
    exactly the ground cost of the two elements."""
    def one(element):
        return Layout(id="", canvas=Canvas(1, 1), elements=(element,))
    return transport_distance(one(e), one(f), weights).cost


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
        for weights in (CostWeights(), CostWeights(w_geo=0.8, w_label=0.2)):
            for _ in range(50):
                a = _element(str(rng.choice(["text", "logo"])), *rng.uniform(0, 0.5, 4))
                b = _element(str(rng.choice(["text", "banner"])), *rng.uniform(0, 0.5, 4))
                assert _element_cost(a, b, weights) == \
                    _reference_costs([a], [b], weights)[0][0]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CostWeights(w_geo=0.7, w_label=0.5)
        with pytest.raises(ValueError):
            CostWeights(w_geo=-0.5, w_label=1.5)


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

    def test_scale_doubles_log_similarity(self):
        rng = np.random.default_rng(9)
        a = random_normalized_layout(rng)
        b = random_normalized_layout(rng)
        s1 = ltsim_score(a, b, scale=1.0)
        s2 = ltsim_score(a, b, scale=2.0)
        assert math.log(s2) == pytest.approx(2 * math.log(s1), rel=1e-9, abs=1e-12)

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

    def test_save_load_identical_retrieval(self, tmp_path):
        dataset = _mini_dataset()
        index = build_index(dataset, "train")
        path = tmp_path / "index.json"
        save_index(index, path)
        again = load_index(path)
        assert (again.vocabulary, again.ids, again.weights) == \
            (index.vocabulary, index.ids, index.weights)
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

    def test_entry_layout_roundtrip(self):
        dataset = _mini_dataset()
        index = build_index(dataset, "train")
        lay = index.entry_layout(0)
        assert lay.id == index.ids[0]
        assert len(lay.elements) == index.counts[0]


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

    def test_vocabulary_that_repeats_a_label_is_refused(self):
        labels, coords = _two_entries()
        with pytest.raises(SchemaError, match="repeats a label"):
            RetrievalIndex(("text", "logo", "text"), ("a", "b"), labels, coords)

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        save_index(build_index(_mini_dataset(), "train"), tmp_path / "index.json")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    @pytest.mark.parametrize("content, error", [
        (b"", SchemaError),
        (b"[]", SchemaError),
        (b'{"id": "a"}\n{"id": "b"}\n', SchemaError),
        (b"PK\x03\x04 truncated", SchemaError),
        (json.dumps({"entries": [{"elements": [[0, 0.5, 0.5, 0.2, 0.2]], "id": "a"}],
                     "version": "1", "vocabulary": ["text"],
                     "weights": {"w_geo": 0.5, "w_label": 0.5}}).encode(), VersionMismatch),
    ])
    def test_file_that_is_not_an_index(self, tmp_path, content, error):
        path = tmp_path / "index.json"
        path.write_bytes(content)
        with pytest.raises(error):
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
        query = index.entry_layout(3)
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
        query = index.entry_layout(3)
        ranked = topk_retrieve(query, index, 3, exclude_self=True)
        assert all(rid != query.id for rid, _ in ranked)

    def test_k_larger_than_index(self):
        dataset = _mini_dataset(count=4)
        index = build_index(dataset, "train")
        query = index.entry_layout(0)
        assert len(topk_retrieve(query, index, 50)) == len(index)

    def test_matches_full_scan_sort(self):
        dataset = _mini_dataset(count=30, seed=14)
        index = build_index(dataset, "train")
        rng = np.random.default_rng(15)
        for _ in range(10):
            query = random_normalized_layout(rng)
            scan = [
                (index.ids[i], ltsim_score(query, index.entry_layout(i)))
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


def _brute_force(query, index, k, scale=1.0, exclude_self=False):
    scan = [
        (index.ids[i], ltsim_score(query, index.entry_layout(i), index.weights, scale=scale))
        for i in range(len(index))
        if not (exclude_self and index.ids[i] == query.id)
    ]
    scan.sort(key=lambda t: (-t[1], t[0]))
    return scan[:k]


_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_feature = st.tuples(st.sampled_from(VOCAB + ("banner", "headline")),
                     _coord, _coord, _coord, _coord)
_features = st.lists(_feature, min_size=1, max_size=25)
_weights = st.sampled_from([CostWeights(), CostWeights(w_geo=0.8, w_label=0.2),
                            CostWeights(w_geo=1.0, w_label=0.0),
                            CostWeights(w_geo=0.0, w_label=1.0)])


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


def _costs(query, index, weights):
    """The cost tensor ``topk_retrieve`` solves from, for every entry."""
    return retrieval._entry_costs(*retrieval._features(query, index.vocabulary), index,
                                  list(range(len(index))), weights)


class TestGroundCost:
    @settings(max_examples=60, deadline=None)
    @given(query=_features, entries=st.lists(_features, min_size=1, max_size=4),
           weights=_weights)
    def test_entry_costs_equal_the_reference_bit_for_bit(self, query, entries, weights):
        cx, w = _unstable_center()
        index = _index_storing(_in_vocabulary(entries) + [[("logo", cx, 0.5, w, 0.2)]])
        q = _layout(query)
        costs = _costs(q, index, weights)
        for pos in range(len(index)):
            reference = _reference_costs(q.elements, index.entry_layout(pos).elements, weights)
            assert costs[pos, :, :index.counts[pos]].tobytes() == np.array(reference).tobytes()

    def test_copy_of_an_entry_with_an_unstable_center_costs_zero(self):
        cx, w = _unstable_center()
        index = _index_storing([[("text", cx, 0.5, w, 0.25)]])
        query = index.entry_layout(0)
        assert query.elements[0].bbox.cx != cx
        assert _costs(query, index, index.weights).tolist() == [[[0.0]]]
        # The stored center would give a positive cost and a similarity below 1.
        q_labels, q_feats = retrieval._features(query, index.vocabulary)
        assert retrieval._ground_costs(q_labels, q_feats, index.labels, index.coords,
                                       index.weights)[0, 0, 0] > 0.0
        assert topk_retrieve(query, index, 1) == [("e0", 1.0)]


def _bounds(query, index, weights=None):
    """The first and the dual lower bound of every entry, from the arrays
    ``topk_retrieve`` computes them from."""
    w = weights or index.weights
    q_labels, q_feats = retrieval._features(query, index.vocabulary)
    return (transport_lower_bounds(q_labels, q_feats, index, w),
            dual_lower_bounds(_costs(query, index, w), index.counts))


class TestLowerBound:
    @settings(max_examples=80, deadline=None)
    @given(query=_features, entries=st.lists(_features, min_size=1, max_size=4),
           weights=_weights)
    def test_never_exceeds_exact_cost(self, query, entries, weights):
        index = make_index([(f"e{i}", _layout(elements))
                            for i, elements in enumerate(_in_vocabulary(entries))])
        q = _layout(query)
        bounds, dual = _bounds(q, index, weights)
        assert bounds.shape == (len(index),)
        assert dual.shape == (len(index),)
        for pos in range(len(index)):
            exact = transport_distance(q, index.entry_layout(pos), weights).cost
            assert bounds[pos] <= exact + 1e-12
            assert dual[pos] <= exact + 1e-12

    def test_outside_labels_count_as_mismatched(self):
        index = _random_index(np.random.default_rng(40), 5)
        query = _layout([("banner", 0.1, 0.1, 0.2, 0.2), ("headline", 0.3, 0.3, 0.2, 0.2)])
        bounds, _ = _bounds(query, index, CostWeights(w_geo=0.0, w_label=1.0))
        assert bounds.tolist() == [1.0] * len(index)

    def test_dual_bound_is_close_to_exact(self):
        rng = np.random.default_rng(42)
        index = make_index([(f"e{i:02d}", random_normalized_layout(rng, max_elements=25))
                            for i in range(30)])
        query = random_normalized_layout(rng, max_elements=15)
        exact = np.array([transport_distance(query, index.entry_layout(pos)).cost
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
            query = index.entry_layout(pos)
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
            query = index.entry_layout(pos)
            for k in (1, 4, 29, 30):
                assert topk_retrieve(query, index, k, exclude_self=True) == \
                    _brute_force(query, index, k, exclude_self=True)

    def test_scale_other_than_one(self):
        rng = np.random.default_rng(53)
        index = _random_index(rng, 40)
        for _ in range(5):
            query = random_normalized_layout(rng, max_elements=6)
            # 1e4 underflows every similarity to 0.0, so ids alone order the ties
            for scale in (0.25, 3.0, 900.0, 1e4):
                assert topk_retrieve(query, index, 4, scale=scale) == \
                    _brute_force(query, index, 4, scale=scale)

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


class TestPseudoLayout:
    def test_uses_stats_areas(self):
        stats = AreaStats(means={"text": 0.09, "logo": 0.04})
        lay = pseudo_layout({"text": 2, "logo": 1}, stats, Canvas(100, 200))
        assert len(lay.elements) == 3
        text_box = lay.elements[0].bbox
        assert text_box.width == pytest.approx(0.3, abs=1e-12)
        assert text_box.cx == pytest.approx(0.5, abs=1e-12)
        assert lay.task_meta["px_size"] == [100, 200]

    def test_default_area_without_stats(self):
        lay = pseudo_layout({"underlay": 1})
        assert lay.elements[0].bbox.width == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_empty_categories_rejected(self):
        with pytest.raises(EmptyLayout):
            pseudo_layout({})
