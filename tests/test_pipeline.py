"""Ranking, constraint satisfaction, coarse generation, staged refinement,
and full replay runs over the bundled fixture."""

import json
import logging
import re
import threading
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutloom.dataset import DatasetManifest, ingest, layout_to_record, record_to_layout
from layoutloom.errors import ConfigError, InvalidPayload, NoViableCandidate, SchemaError
from layoutloom.gateway import BackendConfig, Gateway
from layoutloom.model import BBox, Canvas, Element, Layout, denormalize, to_html
from layoutloom import pipeline
from layoutloom.pipeline import (
    CandidateRecord,
    CoarseFragment,
    PipelineConfig,
    RankerWeights,
    RefinementTrace,
    StageRecord,
    _read_config,
    bundle_sha256,
    constraint_from_record,
    constraint_satisfaction,
    generate_coarse,
    rank_candidates,
    refine_cot,
    run_task,
)
from layoutloom.prompts import ConstraintSpec, build_stage_prompt
from layoutloom.retrieval import build_index

from conftest import (
    entry_layout,
    make_layout,
    messy_layouts,
    normalize,
    object_path_match_slots,
    object_path_relation_holds,
    random_normalized_layout,
    scalar_alignment,
    scalar_overlap,
    scripted_llm,
)

MANIFEST = DatasetManifest(name="mini", task_kind="content_aware",
                           vocabulary=("text", "logo", "underlay"))


def unit_layout(boxes, labels=None, layout_id="c"):
    labels = labels or ["text"] * len(boxes)
    return Layout(layout_id, Canvas(1, 1),
                  tuple(Element(lab, BBox(*b)) for lab, b in zip(labels, boxes)))


GEN_T = ConstraintSpec("gen_t", {"categories": {"text": 2}})


def _tiny_index(count=12, seed=3):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        elements = []
        for _ in range(int(rng.integers(1, 4))):
            w, h = int(rng.integers(20, 120)), int(rng.integers(20, 120))
            elements.append({
                "label": str(rng.choice(["text", "logo", "underlay"])),
                "bbox": [int(rng.integers(0, 380 - w)), int(rng.integers(0, 380 - h)), w, h],
            })
        records.append({"id": f"idx{i:02d}", "split": "train",
                        "canvas": {"w": 400, "h": 400}, "elements": elements})
    return build_index(ingest(records, MANIFEST), "train")


class TestConstraintSatisfaction:
    def test_gen_t_exact_counts(self):
        good = unit_layout([(0.1, 0.1, 0.2, 0.2), (0.1, 0.5, 0.2, 0.2)])
        bad = unit_layout([(0.1, 0.1, 0.2, 0.2)])
        assert constraint_satisfaction(good, GEN_T) == 1.0
        assert constraint_satisfaction(bad, GEN_T) == 0.0

    def test_gen_ts_size_tolerance(self):
        spec = ConstraintSpec("gen_ts", {
            "elements": [{"label": "text", "width": 100, "height": 50}],
            "canvas": [400, 400],
        })
        exact = make_layout("a", (400, 400), [(10, 10, 100, 50)])
        within = make_layout("b", (400, 400), [(10, 10, 108, 46)])
        outside = make_layout("c", (400, 400), [(10, 10, 150, 50)])
        assert constraint_satisfaction(exact, spec) == 1.0
        assert constraint_satisfaction(within, spec) == 1.0
        assert constraint_satisfaction(outside, spec) == 0.5  # count ok, size not

    def test_gen_r_relations(self):
        spec = ConstraintSpec("gen_r", {
            "elements": ["text", "logo"],
            "relations": [[1, "above", 0], [1, "smaller", 0]],
        })
        good = unit_layout([(0.1, 0.5, 0.4, 0.3), (0.1, 0.1, 0.2, 0.2)],
                           ["text", "logo"])
        assert constraint_satisfaction(good, spec) == 1.0
        flipped = unit_layout([(0.1, 0.1, 0.4, 0.3), (0.1, 0.6, 0.2, 0.2)],
                              ["text", "logo"])
        # both count clauses and the size relation hold; "above" does not
        assert constraint_satisfaction(flipped, spec) == pytest.approx(0.75)

    def test_completion_fixed_elements(self):
        spec = ConstraintSpec("completion", {"layout": {
            "canvas": {"w": 100, "h": 100},
            "elements": [{"label": "text", "bbox": [10, 10, 20, 20]}],
        }})
        kept = make_layout("a", (100, 100), [(10, 10, 20, 20), (50, 50, 30, 30)],
                           ["text", "logo"])
        moved = make_layout("b", (100, 100), [(40, 10, 20, 20), (50, 50, 30, 30)],
                            ["text", "logo"])
        nudged = make_layout("c", (100, 100), [(10.5, 10, 20, 20)], ["text"])
        assert constraint_satisfaction(kept, spec) == 1.0
        assert constraint_satisfaction(moved, spec) == 0.0
        assert constraint_satisfaction(nudged, spec) == 1.0  # within 1px

    def test_content_aware_presence(self):
        spec = ConstraintSpec("content_aware", {
            "canvas": [100, 100], "categories": {"text": 1, "logo": 1},
        })
        full = unit_layout([(0.1, 0.1, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)],
                           ["text", "logo"])
        partial = unit_layout([(0.1, 0.1, 0.2, 0.2)], ["text"])
        assert constraint_satisfaction(full, spec) == 1.0
        assert constraint_satisfaction(partial, spec) == 0.5

    def test_text_without_categories_is_vacuous(self):
        spec = ConstraintSpec("text_to_layout", {"text": "two buttons"})
        assert constraint_satisfaction(unit_layout([(0, 0, 0.1, 0.1)]), spec) == 1.0


class TestRankCandidates:
    def test_singleton(self):
        best, scores = rank_candidates([unit_layout([(0.1, 0.1, 0.5, 0.5)])], GEN_T)
        assert best == 0
        assert len(scores) == 1

    def test_dominance_lower_overlap_wins(self):
        overlapping = unit_layout([(0.1, 0.1, 0.4, 0.4), (0.2, 0.2, 0.4, 0.4)])
        disjoint = unit_layout([(0.1, 0.1, 0.4, 0.4), (0.1, 0.6, 0.4, 0.3)])
        best, _ = rank_candidates([overlapping, disjoint], GEN_T)
        assert best == 1
        best, _ = rank_candidates([disjoint, overlapping], GEN_T)
        assert best == 0

    def test_constraint_term_breaks_geometry_ties(self):
        two_text = unit_layout([(0.1, 0.1, 0.2, 0.2), (0.1, 0.5, 0.2, 0.2)])
        one_text = unit_layout([(0.1, 0.1, 0.2, 0.2)])
        best, _ = rank_candidates([one_text, two_text], GEN_T)
        assert best == 1

    def test_scaling_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            candidates = [random_normalized_layout(rng, max_elements=4)
                          for _ in range(int(rng.integers(2, 6)))]
            lam = float(rng.uniform(0.01, 100.0))
            base = RankerWeights(1.0, 1.0, 1.0)
            scaled = RankerWeights(lam, lam, lam)
            best_a, _ = rank_candidates(candidates, GEN_T, base)
            best_b, _ = rank_candidates(candidates, GEN_T, scaled)
            assert best_a == best_b

    def test_ties_go_to_lowest_index(self):
        same = unit_layout([(0.1, 0.1, 0.2, 0.2), (0.1, 0.5, 0.2, 0.2)])
        best, scores = rank_candidates([same, same, same], GEN_T)
        assert best == 0
        assert scores[0] == scores[1] == scores[2]

    def test_empty_rejected(self):
        with pytest.raises(NoViableCandidate):
            rank_candidates([], GEN_T)

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            RankerWeights(0.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            RankerWeights(-1.0, 1.0, 1.0)

    def test_argmax_survives_monotone_transform(self):
        import math as _math
        rng = np.random.default_rng(13)
        candidates = [random_normalized_layout(rng, max_elements=4) for _ in range(6)]
        best, scores = rank_candidates(candidates, GEN_T)
        transformed = [_math.exp(s) for s in scores]
        assert transformed.index(max(transformed)) == best


# A raw run-config value for every PipelineConfig field and what it becomes.
_CONFIG_VALUES = {
    "k_coarse": (7, 7),
    "k_refine": (3, 3),
    "n_candidates": (5, 5),
    "stages": (2, 2),
    "use_rag": (False, False),
    "seed": (11, 11),
}



# --- the parsed layout against the deleted record round trip ------------------

PARITY_VOCAB = ("text", "title", "list")
GIVEN = {"canvas": {"w": 400, "h": 300},
         "elements": [{"label": "text", "bbox": [20, 30, 150, 40]},
                      {"label": "title", "bbox": [20.5, 100, 200, 60.25]}]}
EVERY_KIND = [
    ConstraintSpec("gen_t", {"categories": {"text": 2, "title": 1}}),
    ConstraintSpec("gen_ts", {"canvas": [400, 300], "elements": [
        {"label": "text", "width": 150, "height": 40},
        {"label": "title", "width": 200.5, "height": 60}]}),
    ConstraintSpec("gen_r", {"elements": ["text", "title", "text"], "relations": [
        [0, "above", 1], [1, "larger", 2], [2, "right-of", 0], [0, "equal", 2]]}),
    ConstraintSpec("completion", {"layout": GIVEN}),
    ConstraintSpec("refinement", {"layout": GIVEN}),
    ConstraintSpec("content_aware", {"canvas": [400, 300],
                                     "categories": {"text": 1, "list": 1}}),
    ConstraintSpec("text_to_layout", {"text": "two text blocks", "categories": {"text": 2}}),
    ConstraintSpec("text_to_layout", {"text": "two text blocks"}),
]


def _old_constraint_satisfaction(candidate, constraint):
    """constraint_satisfaction as it was before candidates stayed parsed
    layouts: the given layout parsed per call, a locked-element filter, and
    a normalized candidate scaled back to pixels (the candidates are parsed
    pixel-space layouts, so it was the candidate itself)."""
    from layoutloom.model import label_counts
    from layoutloom.pipeline import _within_ratio
    kind, payload = constraint.kind, constraint.payload
    counts = label_counts(candidate)
    clauses = []
    if kind in ("gen_t", "gen_ts", "gen_r"):
        clauses += [counts.get(label, 0) == want
                    for label, want in constraint.categories().items()]
    if kind == "gen_ts":
        canvas = payload.get("canvas") or (candidate.canvas.width, candidate.canvas.height)
        slots = object_path_match_slots(normalize(candidate),
                                        [it["label"] for it in payload["elements"]])
        for item, box in zip(payload["elements"], slots):
            clauses.append(box is not None
                           and _within_ratio(box.width, float(item["width"]) / float(canvas[0]),
                                             0.1)
                           and _within_ratio(box.height,
                                             float(item["height"]) / float(canvas[1]), 0.1))
    if kind == "gen_r":
        slots = object_path_match_slots(normalize(candidate), list(payload["elements"]))
        for si, rel, oi in payload.get("relations", []):
            a, b = slots[int(si)], slots[int(oi)]
            clauses.append(a is not None and b is not None
                           and object_path_relation_holds(rel, a, b))
    if kind in ("completion", "refinement"):
        given = record_to_layout(dict(payload["layout"], id=""))
        fixed = [e for e in given.elements if getattr(e, "locked", False)] or (
            list(given.elements) if kind == "completion" else [])
        if fixed:
            slots = object_path_match_slots(candidate, [e.label for e in fixed])
            for e, box in zip(fixed, slots):
                clauses.append(box is not None
                               and abs(box.left - e.bbox.left) <= 1.0
                               and abs(box.top - e.bbox.top) <= 1.0
                               and abs(box.width - e.bbox.width) <= 1.0
                               and abs(box.height - e.bbox.height) <= 1.0)
    if kind in ("content_aware", "text_to_layout"):
        clauses += [counts.get(label, 0) >= want
                    for label, want in constraint.categories().items()]
    return sum(clauses) / len(clauses) if clauses else 1.0


def _candidate_response(rng):
    """An LLM-like response: some of the given boxes, jittered by up to 1.5 px,
    random boxes with fractional pixels, an unknown class now and then, and
    a canvas div that may be missing or 1x1."""
    divs = []
    for e in GIVEN["elements"]:
        if rng.random() < 0.7:
            box = [v + float(rng.uniform(-1.5, 1.5)) for v in e["bbox"]]
            divs.append((e["label"], box))
    for _ in range(int(rng.integers(0, 5))):
        label = str(rng.choice(PARITY_VOCAB + ("banner",)))
        divs.append((label, [round(float(v), 2) for v in rng.uniform([0, 0, 5, 5],
                                                                     [350, 250, 220, 90])]))
    order = rng.permutation(len(divs))
    body = "".join(f'<div class="{divs[i][0]}" style="left:{divs[i][1][0]}px; '
                   f'top:{divs[i][1][1]}px; width:{divs[i][1][2]}px; '
                   f'height:{divs[i][1][3]}px"></div>\n' for i in order)
    canvas = rng.choice(["400x300", "none", "1x1"])
    if canvas != "none":
        w, h = canvas.split("x")
        body = f'<div class="canvas" style="width:{w}px; height:{h}px"></div>\n' + body
    return f"Here you go:\n```html\n{body}```"


def test_parsed_candidates_rank_as_their_record_round_trip():
    from layoutloom.gateway import extract_layout
    rng = np.random.default_rng(20)
    weights = [RankerWeights(), RankerWeights(w_align=0.0, w_overlap=0.5, w_constraint=2.0)]
    checked = 0
    for trial in range(60):
        parsed = []
        for idx in range(int(rng.integers(1, 7))):
            layout = extract_layout(_candidate_response(rng), PARITY_VOCAB,
                                    fallback_canvas=Canvas(400, 300),
                                    layout_id=f"t{trial}:coarse:{idx}")
            if isinstance(layout, Layout) and layout.elements:
                parsed.append(layout)
        if not parsed:
            continue
        rebuilt = [record_to_layout(dict(layout_to_record(x), id="")) for x in parsed]
        for constraint in EVERY_KIND:
            for w in weights:
                assert rank_candidates(parsed, constraint, w) == \
                    rank_candidates(rebuilt, constraint, w)
            for x, y in zip(parsed, rebuilt):
                old = _old_constraint_satisfaction(y, constraint)
                assert constraint_satisfaction(x, constraint) == old
                assert constraint_satisfaction(y, constraint) == old
                checked += old not in (0.0, 1.0)
    assert checked > 50  # partial satisfaction, not only the trivial ends


def _rank_oracle(candidates, constraint, weights):
    """rank_candidates as it was before the batched metrics: every candidate
    normalized, then scored by the scalar alignment and overlap loops."""
    def minmax(column):
        lo, hi = min(column), max(column)
        return [0.0] * len(column) if hi <= lo else [(x - lo) / (hi - lo) for x in column]

    normalized = [normalize(c) for c in candidates]
    align_norm = minmax([scalar_alignment(c) for c in normalized])
    overlap_norm = minmax([scalar_overlap(c) for c in normalized])
    sat = [constraint_satisfaction(c, constraint) for c in candidates]
    scores = [-weights.w_align * a - weights.w_overlap * o + weights.w_constraint * s
              for a, o, s in zip(align_norm, overlap_norm, sat)]
    return max(range(len(scores)), key=lambda i: (scores[i], -i)), scores


@settings(max_examples=40, deadline=None)
@given(st.lists(messy_layouts(vocabulary=PARITY_VOCAB), min_size=1, max_size=20),
       st.sampled_from(EVERY_KIND),
       st.sampled_from([RankerWeights(), RankerWeights(0.0, 0.5, 2.0), RankerWeights(3, 1, 0)]))
def test_rank_candidates_picks_and_scores_as_the_scalar_ranker(candidates, constraint, weights):
    best, scores = rank_candidates(candidates, constraint, weights)
    want_best, want_scores = _rank_oracle(candidates, constraint, weights)
    assert best == want_best
    assert [s.hex() for s in scores] == [s.hex() for s in want_scores]



@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_config_field_is_set_from_a_run_config(name):
    raw, expected = _CONFIG_VALUES[name]
    value = getattr(_read_config(PipelineConfig, {name: raw}), name)
    assert value == expected
    assert type(value) is type(expected)


@pytest.mark.parametrize("name, raw", [
    ("use_rag", "false"),
    ("use_rag", 0),
    ("k_coarse", 2.9),
    ("k_refine", 3.0),
    ("n_candidates", "7"),
    ("seed", True),
])
def test_config_value_of_the_wrong_json_type_is_rejected(name, raw):
    with pytest.raises(ConfigError, match=name):
        _read_config(PipelineConfig, {name: raw})


# A raw run-config value for every BackendConfig field and what it becomes.
_BACKEND_VALUES = {
    "mode": ("record", "record"),
    "endpoint": ("http://localhost:1", "http://localhost:1"),
    "model": ("m", "m"),
    "max_tokens": (64, 64),
    "timeout": (5, 5.0),
    "retry_limit": (0, 0),
    "retry_backoff": (1, 1.0),
    "transcript_dir": ("t", "t"),
    "fanout": (2, 2),
    "api_key": (None, None),
}


@pytest.mark.parametrize("name", [f.name for f in fields(BackendConfig)])
def test_every_backend_field_is_set_from_a_run_config(name):
    raw, expected = _BACKEND_VALUES[name]
    backend = _read_config(BackendConfig, {"transcript_dir": "t", name: raw}, "backend")
    assert getattr(backend, name) == expected
    assert type(getattr(backend, name)) is type(expected)


@pytest.mark.parametrize("name, raw", [
    ("fanout", "4"),
    ("fanout", 2.0),
    ("max_tokens", True),
    ("timeout", "60"),
    ("retry_backoff", None),
    ("mode", 1),
    ("model", None),
    ("transcript_dir", 5),
    ("api_key", ["k"]),
])
def test_backend_value_of_the_wrong_json_type_is_rejected(name, raw):
    with pytest.raises(ConfigError, match=f"backend.{name} must be"):
        _read_config(BackendConfig, {"transcript_dir": "t", name: raw}, "backend")


class TestProtocolDefaults:
    def test_pipeline_defaults(self):
        cfg = PipelineConfig()
        assert cfg.k_coarse == 10
        assert cfg.k_refine == 4
        assert cfg.n_candidates == 10
        assert cfg.stages == 3

    def test_stages_out_of_range(self):
        with pytest.raises(ConfigError, match="stages"):
            _read_config(PipelineConfig, {"stages": 4})

    @pytest.mark.parametrize("stages", [-1, 4])
    def test_stages_out_of_range_through_the_python_api(self, stages):
        with pytest.raises(ConfigError, match="stages must be between 0 and 3"):
            PipelineConfig(stages=stages)

    @pytest.mark.parametrize("name", ["k_coarse", "k_refine", "n_candidates"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_below_one_through_the_python_api(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be at least 1$"):
            PipelineConfig(**{name: value})

    def test_sampling_temperatures(self):
        assert pipeline.COARSE_TEMPERATURE == 0.7
        assert pipeline.STAGE_TEMPERATURE == 0.0

    def test_cost_weight_defaults(self):
        from layoutloom.retrieval import W_GEO, W_LABEL
        assert W_GEO == 0.5
        assert W_LABEL == 0.5

    def test_size_tolerance_default(self):
        from layoutloom.metrics import DEFAULT_TOLERANCE_RATIO
        assert DEFAULT_TOLERANCE_RATIO == 1.1


def _no_id(record):
    return {k: v for k, v in record.items() if k != "id"}


def _authored_transport(responses_by_marker):
    """Route a request to a canned response by substring match on the user text."""

    def transport(payload, idx):
        user = payload["messages"][1]["content"]
        for marker, responder in responses_by_marker.items():
            if marker in user:
                return responder(idx) if callable(responder) else responder
        return responses_by_marker["default"](idx) \
            if callable(responses_by_marker.get("default")) \
            else responses_by_marker.get("default", "no idea")

    return transport


def _html(boxes, labels, canvas=(400, 400)):
    return to_html(make_layout("", canvas, boxes, labels))


class TestGenerateCoarse:
    def _gateway(self, tmp_path, transport, mode="record"):
        cfg = BackendConfig(mode=mode, model="t", transcript_dir=str(tmp_path),
                            retry_backoff=0.0)
        return Gateway(cfg, transport=transport)

    def test_authored_dominant_candidate_wins(self, tmp_path):
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 2}})
        # candidate 1 is cleanly aligned and disjoint; candidate 0 overlaps itself
        responses = {
            "default": lambda idx: (
                _html([(50, 50, 200, 200), (120, 120, 200, 200)], ["text", "text"])
                if idx == 0 else
                _html([(50, 50, 200, 80), (50, 200, 200, 80)], ["text", "text"])
            ),
        }
        index = _tiny_index()
        cfg = PipelineConfig(k_coarse=3, n_candidates=2)
        gateway = self._gateway(tmp_path, _authored_transport(responses))
        chosen, fragment = generate_coarse(spec, index, cfg, gateway, run_id="t1")
        assert fragment.chosen_index == 1
        assert [e.bbox.top for e in chosen.elements] == [50.0, 200.0]
        assert len(fragment.candidates) == 2
        assert fragment.exemplar_source == "ltsim"
        assert len(fragment.exemplar_ids) == 3

    def test_all_unparseable_raises_after_retry(self, tmp_path):
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 1}})
        index = _tiny_index()
        cfg = PipelineConfig(k_coarse=2, n_candidates=3)
        gateway = self._gateway(tmp_path, _authored_transport({"default": "nope"}))
        with pytest.raises(NoViableCandidate):
            generate_coarse(spec, index, cfg, gateway, run_id="t2")
        # retry round recorded fresh salted candidates: 3 + 3 transcripts
        assert len(list(Path(tmp_path).glob("*.json"))) == 6

    def test_replay_does_not_retry(self, tmp_path):
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 1}})
        index = _tiny_index()
        cfg = PipelineConfig(k_coarse=2, n_candidates=2)
        record = self._gateway(tmp_path, _authored_transport({"default": "nope"}))
        with pytest.raises(NoViableCandidate):
            generate_coarse(spec, index, cfg, record, run_id="t3")
        replay = self._gateway(tmp_path, None, mode="replay")
        with pytest.raises(NoViableCandidate):
            generate_coarse(spec, index, cfg, replay, run_id="t3")

    def test_replay_follows_a_recorded_retry(self, tmp_path):
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 1}})
        index = _tiny_index()
        cfg = PipelineConfig(k_coarse=2, n_candidates=2)
        good = _html([(10, 10, 100, 50)], ["text"])
        # The first fan-out (indices 0 and 1) fails; the retry (2 and 3) parses.
        record = self._gateway(tmp_path, lambda payload, idx: good if idx >= 2 else "nope")
        recorded, recorded_fragment = generate_coarse(spec, index, cfg, record, run_id="t5")
        assert recorded_fragment.chosen_index == 2
        replay = self._gateway(tmp_path, None, mode="replay")
        replayed, replayed_fragment = generate_coarse(spec, index, cfg, replay, run_id="t5")
        assert replayed_fragment == recorded_fragment
        assert replayed == recorded

    def test_no_rag_uses_seeded_random_exemplars(self, tmp_path):
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 1}})
        index = _tiny_index()
        cfg = PipelineConfig(k_coarse=4, n_candidates=1, use_rag=False, seed=9)
        gateway = self._gateway(
            tmp_path,
            _authored_transport({"default": _html([(10, 10, 100, 50)], ["text"])}),
        )
        _, frag_a = generate_coarse(spec, index, cfg, gateway, run_id="abl")
        assert frag_a.exemplar_source == "random(seed=9)"
        _, frag_b = generate_coarse(spec, index, cfg, gateway, run_id="abl")
        assert frag_a.exemplar_ids == frag_b.exemplar_ids

    def test_no_rag_builds_no_query(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a query was built without retrieval")

        monkeypatch.setattr(pipeline, "pseudo_layout", refuse)
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 1}})
        cfg = PipelineConfig(k_coarse=2, n_candidates=1, use_rag=False)
        gateway = self._gateway(
            tmp_path,
            _authored_transport({"default": _html([(10, 10, 100, 50)], ["text"])}),
        )
        _, fragment = generate_coarse(spec, _tiny_index(), cfg, gateway, run_id="q")
        assert fragment.exemplar_source == "random(seed=0)"


class TestExemplarSnippets:
    @pytest.mark.parametrize("drafted_canvas", [(400, 400), (200, 300)])
    def test_stage_prompt_exemplars_are_on_the_coarse_canvas(self, tmp_path, drafted_canvas):
        index = _tiny_index()
        cfg = PipelineConfig(k_coarse=4, k_refine=2, n_candidates=2, stages=1)
        draft = _html([(40, 40, 100, 60), (40, 150, 100, 60)], ["text", "text"],
                      canvas=drafted_canvas)
        gateway = Gateway(BackendConfig(mode="record", model="t", transcript_dir=str(tmp_path),
                                        retry_backoff=0.0),
                          transport=_authored_transport({"default": draft}))
        spec = ConstraintSpec("content_aware", {"canvas": [400, 400], "categories": {"text": 2}})
        coarse, fragment = generate_coarse(spec, index, cfg, gateway, run_id="x")
        assert coarse.canvas == Canvas(*drafted_canvas)
        trace, _ = refine_cot(coarse, spec, index, cfg, gateway, fragment, run_id="x")
        ids = fragment.exemplar_ids
        exemplars = [to_html(denormalize(entry_layout(index, index.positions[eid]),
                                         *drafted_canvas)) for eid in ids[:2]]
        bundle = build_stage_prompt(1, exemplars, coarse, spec, vocabulary=index.vocabulary)
        assert bundle_sha256(bundle) == trace.stages[0].prompt_sha256


class TestRefineCot:
    def _run(self, tmp_path, transport, stages=3):
        index = _tiny_index()
        cfg = PipelineConfig(k_refine=2, stages=stages)
        gateway = Gateway(BackendConfig(mode="record", model="t",
                                        transcript_dir=str(tmp_path),
                                        retry_backoff=0.0), transport=transport)
        coarse = make_layout("c", (400, 400), [(40, 40, 150, 60), (40, 200, 150, 60)],
                             ["text", "text"])
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 2}})
        fragment = CoarseFragment(exemplar_ids=list(index.ids[:3]), exemplar_source="ltsim",
                                  template_id=("content_aware", "coarse"), candidates=[],
                                  chosen_index=0)
        trace, final = refine_cot(coarse, spec, index, cfg, gateway, fragment, run_id="r1")
        assert all(s.exemplar_ids == list(index.ids[:2]) for s in trace.stages)
        # The layout handed out is the one the trace records.
        assert layout_to_record(final) == trace.final
        return trace, coarse

    def test_three_clean_stages(self, tmp_path):
        clean = _html([(40, 30, 150, 60), (40, 150, 150, 60)], ["text", "text"])
        trace, _ = self._run(tmp_path, _authored_transport({"default": clean}))
        assert len(trace.stages) == 3
        assert not any(s.fallback for s in trace.stages)
        assert _no_id(trace.final) == _no_id(trace.stages[-1].parsed)

    def test_stage2_fallback(self, tmp_path):
        stage_html = {
            1: _html([(10, 10, 100, 40), (10, 100, 100, 40)], ["text", "text"]),
            3: _html([(20, 20, 100, 40), (20, 120, 100, 40)], ["text", "text"]),
        }
        responses = {
            "needing refinement": stage_html[1],
            "after Stage 1": "completely unusable response",
            "after Stage 2": stage_html[3],
        }
        trace, _ = self._run(tmp_path, _authored_transport(responses))
        assert [s.fallback for s in trace.stages] == [False, True, False]
        # stage 2 kept stage 1's layout, and stage 3 was prompted with it
        assert trace.stages[1].parsed is None
        assert len(trace.stages[1].raw_responses) == 2  # one retry happened
        assert _no_id(trace.final) == _no_id(trace.stages[2].parsed)

    def test_stage_retry_that_parses(self, tmp_path):
        clean = _html([(40, 30, 150, 60), (40, 150, 150, 60)], ["text", "text"])
        responses = {"needing refinement": lambda idx: clean if idx else "junk",
                     "default": clean}
        trace, _ = self._run(tmp_path, _authored_transport(responses))
        first = trace.stages[0]
        assert first.raw_responses == ["junk", clean]
        assert first.fallback is False
        assert first.parsed["id"] == "r1:stage1"
        assert [s.fallback for s in trace.stages] == [False, False, False]
        requests = [json.loads(path.read_text(encoding="utf-8"))["request"]
                    for path in tmp_path.glob("*.json")]
        stage1 = sorted((r["candidate_index"], r["temperature"]) for r in requests
                        if "needing refinement" in r["user"])
        assert stage1 == [(0, 0.0), (1, 0.0)]
        assert all(type(t) is float for _, t in stage1)

    def test_all_stages_fail_keeps_coarse(self, tmp_path):
        trace, coarse = self._run(tmp_path, _authored_transport({"default": "junk"}))
        assert all(s.fallback for s in trace.stages)
        assert record_to_layout(trace.final).elements == coarse.elements

    def test_single_stage_ablation(self, tmp_path):
        clean = _html([(40, 30, 150, 60), (40, 150, 150, 60)], ["text", "text"])
        trace, _ = self._run(tmp_path, _authored_transport({"default": clean}), stages=1)
        assert len(trace.stages) == 1

    def test_stage_prompt_hash_matches_reconstruction(self, tmp_path):
        clean = _html([(40, 30, 150, 60), (40, 150, 150, 60)], ["text", "text"])
        trace, coarse = self._run(tmp_path, _authored_transport({"default": clean}))
        index = _tiny_index()
        spec = ConstraintSpec("content_aware",
                              {"canvas": [400, 400], "categories": {"text": 2}})
        # rebuild stage 2's prompt from the trace: exemplars + stage 1 output
        exemplars = [to_html(denormalize(entry_layout(index, index.positions[eid]),
                                         coarse.canvas.width, coarse.canvas.height))
                     for eid in trace.stages[1].exemplar_ids]
        previous = record_to_layout(dict(trace.stages[0].parsed, id=""))
        bundle = build_stage_prompt(2, exemplars, previous, spec, vocabulary=index.vocabulary)
        assert bundle_sha256(bundle) == trace.stages[1].prompt_sha256


@dataclass
class _Point:
    x: float
    tags: tuple


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


def _trace_with(value) -> RefinementTrace:
    return RefinementTrace(
        run_id="r", constraint_kind="content_aware", constraint_digest="d" * 64,
        coarse=CoarseFragment(exemplar_ids=[], exemplar_source="ltsim",
                              template_id=("a", "coarse"), candidates=[], chosen_index=0),
        stages=[], final={}, config={"value": value})


def _assert_one_line_that_decodes_back(value):
    trace = _trace_with(value)
    text = trace.to_json()
    assert text == json.dumps(asdict(trace), ensure_ascii=False, sort_keys=True)
    assert "\n" not in text and "\r" not in text
    # the decoded value re-encodes to the same line, so NaN and -0.0 compare equal
    decoded = json.loads(text)
    assert json.dumps(decoded, ensure_ascii=False, sort_keys=True) == text


class TestTraceJson:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -3, 10**30, 1.5, -0.0, 1e-300, 1e300,
        float("nan"), float("inf"), float("-inf"), np.float64(0.1),
        "", "a\"b\\c\n\t\x00\r é😀\u2028",
        [], {}, (), [[]], {"a": {}}, {"k": ("t", 1.0)},
        [1, [2, (3, "x")], {"z": 1, "a": [None, {}], "é": True}],
        {"p": _Point(0.5, ("a", 2)), "q": [_Point(1e-9, ())]},
        [0.5, -0.0, 1e-300, 389.0], (1.5, 2.5), [1e308, 1e308], [1.0, float("inf")],
        [float("-inf"), float("inf")], [float("nan")], [0.5, np.float64(0.25)], [True, 1.0],
        [1.0, 2], [_Float(1.5), 2.5], _Str("s"), _Int(7), _Dict(b=[1.0]), [[1.0, 2.0], 3.0],
    ])
    def test_hard_value_is_one_line_that_decodes_back(self, value):
        _assert_one_line_that_decodes_back(value)

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
        | st.lists(st.floats(), max_size=5) | st.builds(_Float, st.floats()),
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.builds(_Point, st.floats(), st.tuples(inner)),
        max_leaves=12))
    def test_any_trace_shape_is_one_line_that_decodes_back(self, value):
        _assert_one_line_that_decodes_back(value)

    def test_is_one_line_of_json_dumps(self):
        parsed = {"id": "x", "canvas": {"w": 513, "h": 750},
                  "elements": [{"label": "text", "bbox": [1.5, -0.0, 1e-300, 12]}]}
        trace = RefinementTrace(
            run_id="é😀\"quoted\"\n",
            constraint_kind="content_aware",
            constraint_digest="d" * 64,
            coarse=CoarseFragment(
                exemplar_ids=[], exemplar_source="ltsim", template_id=("a", "coarse"),
                candidates=[
                    CandidateRecord(index=0, raw_text="<html>\t\x00</html>", parsed=parsed,
                                    score=float("nan")),
                    CandidateRecord(index=1, raw_text="", parsed=None,
                                    failure_reason="no elements", score=float("-inf")),
                ],
                chosen_index=0),
            stages=[StageRecord(stage=1, template_id=("a", "1"), exemplar_ids=["e1"],
                                prompt_sha256="", raw_responses=[], parsed={},
                                fallback=True)],
            final=parsed,
            config={"k": 10**30, "use_rag": False, "temperature": 0.7, "none": None},
        )
        text = trace.to_json()
        assert text == json.dumps(asdict(trace), ensure_ascii=False, sort_keys=True)
        assert "\n" not in text


def _constraint(record, family):
    """The constraint of a run item, read as ``_run_item`` reads it."""
    return constraint_from_record(record_to_layout(record), record, family)


class TestConstraintFromRecord:
    def test_content_aware_from_categories(self):
        record = {"id": "x", "canvas": {"w": 100, "h": 200}, "elements": [],
                  "constraints": {"categories": {"text": 2}}, "saliency": "s.pgm"}
        spec = _constraint(record, "content_aware")
        assert spec.kind == "content_aware"
        assert spec.payload["categories"] == {"text": 2}
        assert spec.payload["canvas"] == [100, 200]
        assert set(spec.payload) == {"canvas", "categories"}

    def test_content_aware_from_elements(self):
        record = {"id": "x", "canvas": {"w": 100, "h": 200},
                  "elements": [{"label": "text", "bbox": [0, 0, 10, 10]},
                               {"label": "text", "bbox": [0, 20, 10, 10]}]}
        spec = _constraint(record, "content_aware")
        assert spec.payload["categories"] == {"text": 2}

    def test_explicit_constraint_object_wins(self):
        record = {"id": "x", "canvas": {"w": 100, "h": 100}, "elements": [],
                  "constraints": {"kind": "gen_t",
                                  "payload": {"categories": {"title": 1}}}}
        spec = _constraint(record, "constraint_explicit")
        assert spec.kind == "gen_t"
        assert spec.payload["categories"] == {"title": 1}

    def test_text_task(self):
        record = {"id": "x", "canvas": {"w": 360, "h": 640}, "elements": [],
                  "text": "a signup screen"}
        spec = _constraint(record, "text_to_layout")
        assert spec.kind == "text_to_layout"
        assert spec.payload == {"text": "a signup screen", "canvas": [360, 640]}

    @pytest.mark.parametrize("family, error", [("content_aware", "has no categories"),
                                               ("constraint_explicit", "yields no type")])
    def test_no_elements_and_no_categories_is_a_config_error(self, family, error):
        record = {"id": "x", "canvas": {"w": 100, "h": 200}, "elements": []}
        with pytest.raises(ConfigError, match=f"record 'x' {error}"):
            _constraint(record, family)

    @pytest.mark.parametrize("family", ["content_aware", "text_to_layout"])
    def test_categories_that_are_not_an_object_are_refused(self, family):
        record = {"id": "x", "canvas": {"w": 100, "h": 200}, "elements": [],
                  "text": "a form", "constraints": {"categories": "text"}}
        with pytest.raises(InvalidPayload):
            _constraint(record, family)


def _tree_bytes(run_dir: Path) -> dict:
    """Everything except run.log, keyed by relative path."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(run_dir))] = path.read_bytes()
    return out


class TestRunTask:
    def test_five_item_replay_run(self, fixture_env, tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_a", "replay")
        run_dir = run_task(config)
        traces = sorted((run_dir / "traces").glob("*.json"))
        assert len(traces) == 5
        generated = (run_dir / "generated.jsonl").read_text().strip().splitlines()
        assert len(generated) == 5
        for line in generated:
            record = json.loads(line)
            assert "error" not in record
            assert record["elements"]
        metrics = (run_dir / "metrics.tsv").read_text().splitlines()
        assert metrics[0].split("\t") == list(
            ("occ", "rea", "uti", "align", "und_l", "und_s", "overlap", "val", "r_e"))
        assert (run_dir / "run.log").exists()

    def test_each_item_record_is_parsed_once(self, fixture_env, tmp_path, monkeypatch):
        parsed = []

        def counted(record, *args):
            parsed.append(record["id"])
            return record_to_layout(record, *args)

        monkeypatch.setattr(pipeline, "record_to_layout", counted)
        run_task(fixture_env["run_config"](tmp_path / "run_p", "replay"))
        assert parsed == [item["id"] for item in fixture_env["items"]]
        # Without categories, the constraint comes from the parsed layout.
        parsed.clear()
        elements = [{"label": label, "bbox": box} for label, box in (
            ("text", [10, 10, 200, 50]), ("text", [10, 80, 200, 50]),
            ("logo", [300, 10, 100, 100]), ("underlay", [0, 0, 513, 300]))]
        items = [dict(item, constraints={}, elements=elements) for item in fixture_env["items"]]
        config = _record_config(fixture_env, tmp_path, items, fanout=1)
        run_dir = run_task(config, transport=scripted_llm)
        assert parsed == [item["id"] for item in fixture_env["items"]]
        assert "run ends: 5 ok, 0 failed" in (run_dir / "run.log").read_text()

    def test_replay_is_deterministic(self, fixture_env, tmp_path):
        config_a = fixture_env["run_config"](tmp_path / "run_a", "replay")
        config_b = fixture_env["run_config"](tmp_path / "run_b", "replay")
        dir_a = run_task(config_a)
        dir_b = run_task(config_b)
        assert _tree_bytes(dir_a) == _tree_bytes(dir_b)

    def test_trace_structure(self, fixture_env, tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_t", "replay")
        run_dir = run_task(config)
        trace = json.loads((run_dir / "traces" / "item0.json").read_text())
        assert trace["constraint_kind"] == "content_aware"
        assert len(trace["stages"]) == 3
        assert trace["coarse"]["chosen_index"] >= 0
        assert len(trace["coarse"]["candidates"]) == 10
        assert trace["coarse"]["exemplar_ids"][:4] == trace["stages"][0]["exemplar_ids"]
        assert trace["coarse"]["template_id"] == ["content_aware", "coarse"]
        assert [s["template_id"] for s in trace["stages"]] == \
            [["content_aware", str(stage)] for stage in (1, 2, 3)]
        assert trace["final"]["elements"]

    def test_missing_config_keys(self):
        with pytest.raises(ConfigError):
            run_task({"run_dir": "/tmp/x"})

    # A typo of use_rag, and two keys an earlier run config read.
    @pytest.mark.parametrize("extra", [{"use_rga": False}, {"metrics": "align"},
                                       {"exclude_overlap_labels": "underlay"}])
    def test_unknown_top_level_key_is_refused(self, fixture_env, tmp_path, extra):
        config = dict(fixture_env["run_config"](tmp_path / "run_u", "replay"), **extra)
        with pytest.raises(ConfigError, match=f"unknown run config keys: {next(iter(extra))}$"):
            run_task(config)
        assert not (tmp_path / "run_u").exists()

    # Settings an earlier PipelineConfig had: use_cot, whose false is stages 0,
    # and five that no run, command or workload set.
    @pytest.mark.parametrize("key, value", [("use_cot", False), ("use_cot", True),
                                            ("similarity_scale", 1.0), ("exclude_self", True),
                                            ("default_canvas", [512, 512]),
                                            ("coarse_temperature", 0.7),
                                            ("stage_temperature", 0.0),
                                            ("ranker", {"w_align": 2.0})])
    def test_deleted_setting_is_refused(self, fixture_env, tmp_path, key, value):
        config = dict(fixture_env["run_config"](tmp_path / "run_u", "replay"), **{key: value})
        with pytest.raises(ConfigError, match=f"unknown run config keys: {key}$"):
            run_task(config)
        assert not (tmp_path / "run_u").exists()

    # Counts no run can use, k_refine 0 also where no stage would read it.
    @pytest.mark.parametrize("change, message", [
        ({"k_coarse": 0}, "k_coarse must be at least 1"),
        ({"k_coarse": -3}, "k_coarse must be at least 1"),
        ({"n_candidates": 0}, "n_candidates must be at least 1"),
        ({"k_refine": 0}, "k_refine must be at least 1"),
        ({"k_refine": -1}, "k_refine must be at least 1"),
        ({"k_refine": 0, "stages": 0}, "k_refine must be at least 1"),
        ({"backend": {"retry_limit": -1}}, "retry_limit must be at least 0"),
        ({"backend": {"timeout": -1.0}}, "timeout must be greater than 0"),
        ({"backend": {"timeout": 0}}, "timeout must be greater than 0"),
        ({"backend": {"max_tokens": 0}}, "max_tokens must be at least 1"),
        ({"backend": {"retry_backoff": -1}},
         "retry_backoff must be a finite number of at least 0, got -1.0"),
        ({"backend": {"retry_backoff": float("nan")}},
         "retry_backoff must be a finite number of at least 0, got nan"),
    ])
    def test_count_that_cannot_work_is_refused_before_any_item(self, fixture_env, tmp_path,
                                                                 change, message):
        config = fixture_env["run_config"](tmp_path / "run_c", "record")
        config["backend"] = dict(config["backend"], transcript_dir=str(tmp_path / "t"),
                                 **change.get("backend", {}))
        config.update((key, value) for key, value in change.items() if key != "backend")
        calls = []

        def transport(payload, idx):
            calls.append(idx)
            return scripted_llm(payload, idx)

        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_task(config, transport=transport)
        assert calls == []
        assert not (tmp_path / "run_c" / "generated.jsonl").exists()

    def test_every_unknown_key_is_named(self, fixture_env, tmp_path):
        config = dict(fixture_env["run_config"](tmp_path / "run_u", "replay"),
                      use_rga=False, metrics="align")
        with pytest.raises(ConfigError, match="unknown run config keys: metrics, use_rga$"):
            run_task(config)

    @pytest.mark.parametrize("backend, named", [
        ({"mode": "replay", "temperature": 0.7}, "temperature"),
        ({"mode": "replay", "fanuot": 2, "modle": "m"}, "fanuot, modle"),
        ({"mode": "replay", "fanout": "4"}, "backend.fanout"),
        ("replay", "backend"),
    ])
    def test_bad_backend_is_a_config_error(self, fixture_env, tmp_path, backend, named):
        config = fixture_env["run_config"](tmp_path / "run_b", "replay")
        if isinstance(backend, dict):
            backend = dict(config["backend"], **backend)
        config["backend"] = backend
        with pytest.raises(ConfigError, match=named):
            run_task(config)

    # Each top-level key is typed before the run directory is made.
    @pytest.mark.parametrize("change, message", [
        ({"run_dir": 5}, "run_dir must be a string, got 5"),
        ({"base_dir": 5}, "base_dir must be a string, got 5"),
        ({"index": 5}, "index must be a string, got 5"),
        ({"stats": 5}, "stats must be a string or null, got 5"),
        ({"task_family": ["content_aware"]},
         "task_family must be a string, got ['content_aware']"),
        ({"dataset": None, "items": 5}, "items must be a list, got 5"),
        ({"dataset": 5}, "dataset must be an object, got 5"),
        ({"dataset": {"records": 5}}, "dataset.records must be a string, got 5"),
        ({"dataset": {"records": "test.jsonl", "splt": "test"}}, "unknown dataset keys: splt"),
        ({"dataset": {"records": "test.jsonl", "split": 5}},
         "dataset.split must be a string or null, got 5"),
        ({"dataset": {"split": "test"}}, "dataset needs a records path"),
        ({"items": []}, "run config needs exactly one of items and dataset"),
        ({"dataset": None}, "run config needs exactly one of items and dataset"),
    ])
    def test_run_key_of_the_wrong_json_type_is_refused(self, fixture_env, tmp_path,
                                                       monkeypatch, change, message):
        monkeypatch.chdir(tmp_path)
        config = fixture_env["run_config"](tmp_path / "run_t", "replay")
        config.update(change)
        config = {key: value for key, value in config.items() if value is not None}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_task(config)
        assert list(tmp_path.iterdir()) == []

    def test_a_record_whose_split_is_not_a_string_fails_alone(self, fixture_env, tmp_path):
        records = tmp_path / "records.jsonl"
        odd = dict(fixture_env["items"][0], id="odd", split=5)
        records.write_text((fixture_env["root"] / "test.jsonl").read_text(encoding="utf-8")
                           + json.dumps(odd) + "\n", encoding="utf-8")
        config = fixture_env["run_config"](tmp_path / "run_s", "replay")
        config["dataset"] = dict(config["dataset"], records=str(records))
        run_dir = run_task(config)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == [f"item{i}" for i in range(5)] + ["odd"]
        assert lines[5] == {"id": "odd", "error": "SchemaError",
                            "message": "record 'odd' split must be a string, got 5"}
        [logged] = [l for l in (run_dir / "run.log").read_text().splitlines() if "odd" in l]
        assert logged.endswith(" ERROR item odd: SchemaError: record 'odd' split must be a "
                               "string, got 5")

    @pytest.mark.parametrize("key, content", [
        ("index", None), ("index", "{not json"), ("index", "[]"),
        ("stats", None), ("stats", "{not json"), ("stats", '{"text": "big"}'),
        ("records", None), ("records", "{not json\n"), ("records", "[1]\n"),
    ])
    def test_unreadable_input_file_is_a_config_error(self, fixture_env, tmp_path, key,
                                                     content):
        config = fixture_env["run_config"](tmp_path / "run_i", "replay")
        path = tmp_path / f"bad_{key}"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        if key == "records":
            config["dataset"] = dict(config["dataset"], records=str(path))
        else:
            config[key] = str(path)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            run_task(config)

    def test_no_cot_trace_has_the_cot_config_keys(self, fixture_env, tmp_path):
        configs = {}
        for stages in (3, 0):
            config = fixture_env["run_config"](tmp_path / f"run_stages_{stages}", "replay")
            config["stages"] = stages
            trace = json.loads((run_task(config) / "traces" / "item0.json").read_text())
            configs[stages] = trace["config"]
        assert set(configs[0]) == set(configs[3])
        assert configs[3]["use_cot"] is True and configs[3]["stages"] == 3
        assert configs[0]["use_cot"] is False and configs[0]["stages"] == 0

    def test_inline_items_replay_whatever_their_key_order(self, fixture_env, tmp_path):
        # The recorded test.jsonl has its keys sorted; the inline items list
        # their categories as text, logo, underlay.
        config = fixture_env["run_config"](tmp_path / "run_file", "replay")
        from_file = run_task(config)
        config["run_dir"] = str(tmp_path / "run_inline")
        config["items"] = fixture_env["items"]
        del config["dataset"]
        inline = run_task(config)
        generated = (inline / "generated.jsonl").read_text()
        assert "ReplayMiss" not in generated
        assert _tree_bytes(inline) == _tree_bytes(from_file)

    def test_partial_failure_recorded(self, fixture_env, tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_f", "replay")
        # an item with no transcripts recorded: replay misses become an error record
        config["items"] = fixture_env["items"] + [{
            "id": "ghost",
            "canvas": {"w": 513, "h": 750},
            "elements": [],
            "constraints": {"categories": {"text": 1}},
        }]
        del config["dataset"]
        run_dir = run_task(config)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert len(lines) == 6
        ghost = [l for l in lines if l["id"] == "ghost"]
        assert ghost and ghost[0]["error"] == "ReplayMiss"

    def test_unsafe_item_ids_cost_only_their_item(self, fixture_env, tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_u", "replay")
        unsafe = ["sub/dir", "../x", "back\\slash", "", "n" * 300]
        items = fixture_env["items"]
        config["items"] = items + [dict(items[0], id=item_id) for item_id in unsafe]
        del config["dataset"]
        run_dir = run_task(config)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == [f"item{i}" for i in range(5)] + unsafe
        assert all("error" not in l for l in lines[:5])
        assert [l["error"] for l in lines[5:]] == ["SchemaError"] * len(unsafe)
        assert sorted(p.name for p in (run_dir / "traces").iterdir()) == \
            [f"item{i}.json" for i in range(5)]
        assert not (run_dir / "x.json").exists()

    def test_oversized_query_costs_only_its_item(self, fixture_env, tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_o", "replay")
        items = fixture_env["items"]
        config["items"] = items + [dict(items[0], id="big",
                                        constraints={"categories": {"text": 26}})]
        del config["dataset"]
        run_dir = run_task(config)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert all("error" not in l for l in lines[:5])
        assert lines[5]["error"] == "SchemaError"
        assert "26 elements" in lines[5]["message"]

    def test_duplicate_item_ids_rejected_up_front(self, fixture_env, tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_d", "replay")
        config["items"] = fixture_env["items"] + [dict(fixture_env["items"][2])]
        del config["dataset"]
        with pytest.raises(SchemaError, match="item2"):
            run_task(config)
        assert not (tmp_path / "run_d" / "generated.jsonl").exists()

    @pytest.mark.parametrize("entry", [[1, 2], "item5", 7, None])
    def test_items_entry_that_is_not_an_object_is_refused_up_front(self, fixture_env,
                                                                   tmp_path, entry):
        config = fixture_env["run_config"](tmp_path / "run_n", "replay")
        config["items"] = fixture_env["items"] + [entry]
        del config["dataset"]
        with pytest.raises(SchemaError, match=rf"^items\[5\] must be an object, "
                                              rf"got {type(entry).__name__}$"):
            run_task(config)
        assert not (tmp_path / "run_n" / "generated.jsonl").exists()

    def test_records_line_that_is_not_an_object_is_refused_up_front(self, fixture_env,
                                                                    tmp_path):
        config = fixture_env["run_config"](tmp_path / "run_n", "replay")
        path = tmp_path / "records.jsonl"
        path.write_text((fixture_env["root"] / "test.jsonl").read_text(encoding="utf-8")
                        + "[1, 2]\n", encoding="utf-8")
        config["dataset"] = dict(config["dataset"], records=str(path))
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot read records file {path}: {path}:6: a record must be an object, "
                f"got list")) as raised:
            run_task(config)
        assert isinstance(raised.value.__cause__, SchemaError)
        assert not (tmp_path / "run_n" / "generated.jsonl").exists()

    def test_error_trace_is_its_generated_line(self, fixture_env, tmp_path):
        def transport(payload, idx):
            if _item_of(payload) == 1:
                raise OSError("connection reset\nby «peer»")
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, _distinct_items(2), fanout=1)
        run_dir = run_task(config, transport=transport)
        line = (run_dir / "generated.jsonl").read_text(encoding="utf-8").splitlines()[1]
        assert (run_dir / "traces" / "it1.json").read_text(encoding="utf-8") == line + "\n"
        assert json.loads(line) == {"id": "it1", "error": "OSError",
                                    "message": "connection reset\nby «peer»"}

    def test_non_domain_error_costs_only_its_item(self, fixture_env, tmp_path):
        def transport(payload, idx):
            if _item_of(payload) == 1:
                raise RuntimeError("connection reset")
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, _distinct_items(3), fanout=1)
        run_dir = run_task(config, transport=transport)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["it0", "it1", "it2"]
        assert "error" not in lines[0] and "error" not in lines[2]
        assert lines[1]["error"] == "RuntimeError"
        assert lines[1]["message"] == "connection reset"
        assert json.loads((run_dir / "traces" / "it1.json").read_text())["error"] == "RuntimeError"
        assert (run_dir / "metrics.tsv").exists()
        log = (run_dir / "run.log").read_text()
        assert "item it1: RuntimeError: connection reset" in log
        assert "Traceback" in log

    def test_a_run_whose_every_item_fails_scores_no_overlap(self, fixture_env, tmp_path):
        def transport(payload, idx):
            raise OSError("connection reset")

        config = _record_config(fixture_env, tmp_path, _distinct_items(2), fanout=1)
        run_dir = run_task(config, transport=transport)
        header, values = (run_dir / "metrics.tsv").read_text().splitlines()
        row = dict(zip(header.split("\t"), values.split("\t")))
        assert row["overlap"] == "skipped(empty_population)"
        assert row["val"] == "skipped(empty_population)"

    def test_runs_leave_the_logger_registry_alone(self, fixture_env, tmp_path):
        run_task(fixture_env["run_config"](tmp_path / "first", "replay"))
        registered = len(logging.Logger.manager.loggerDict)
        for name in ("second", "third"):
            run_dir = run_task(fixture_env["run_config"](tmp_path / name, "replay"))
            assert len(logging.Logger.manager.loggerDict) == registered
        sizes = [len(json.loads(line)["elements"])
                 for line in (run_dir / "generated.jsonl").read_text().splitlines()]
        # Each line is "date time LEVEL message".
        assert [line.split(" ", 2)[2] for line in
                (run_dir / "run.log").read_text().splitlines()] == [
            "INFO run starts: 5 items, family=content_aware, mode=replay",
            *(f"INFO item item{i}: ok ({n} elements)" for i, n in enumerate(sizes)),
            "INFO run ends: 5 ok, 0 failed",
        ]

    def test_retries_and_fallbacks_are_named_in_the_run_log(self, fixture_env, tmp_path,
                                                             capfd, caplog):
        # Every item's stages 2 and 3 are refused, so they keep stage 1's
        # layout, and item it1's first coarse fan-out (candidates 0-9) holds
        # no layout, so its drafts are retried.
        def transport(payload, idx):
            user = payload["messages"][1]["content"]
            if "after Stage" in user:
                return "I cannot refine this layout."
            if "needing refinement" not in user and _item_of(payload) == 1 and idx < 10:
                return "I need more information before I can design this layout."
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, _distinct_items(3), fanout=1)
        run_dir = run_task(config, transport=transport)
        # Each line is "date time LEVEL message".
        assert [line.split(" ", 2)[2] for line in
                (run_dir / "run.log").read_text().splitlines()] == [
            "INFO run starts: 3 items, family=content_aware, mode=record",
            "INFO item it0: ok (1 elements; stage 2, 3 kept the previous layout)",
            "INFO item it1: ok (2 elements; coarse drafts retried; "
            "stage 2, 3 kept the previous layout)",
            "INFO item it2: ok (3 elements; stage 2, 3 kept the previous layout)",
            "INFO run ends: 3 ok, 0 failed",
        ]
        trace = json.loads((run_dir / "traces" / "it1.json").read_text())
        assert [s["fallback"] for s in trace["stages"]] == [False, True, True]
        assert len(trace["coarse"]["candidates"]) == 20
        assert capfd.readouterr().err == ""
        # Under pytest a record that reaches the root logger is caught here
        # instead of being printed to stderr.
        assert caplog.records == []

    def test_runs_whose_directories_share_a_name_keep_their_logs(self, fixture_env, tmp_path):
        # A second run starts, and ends, while the first is still running.
        inner = fixture_env["run_config"](tmp_path / "b" / "run", "replay")
        started = []

        def transport(payload, idx):
            if not started:
                started.append(run_task(inner))
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, _distinct_items(2), fanout=1)
        config["run_dir"] = str(tmp_path / "a" / "run")
        run_task(config, transport=transport)
        assert "run ends: 2 ok, 0 failed" in (tmp_path / "a" / "run" / "run.log").read_text()
        assert "run ends: 5 ok, 0 failed" in (tmp_path / "b" / "run" / "run.log").read_text()

    def test_keyboard_interrupt_aborts_the_run(self, fixture_env, tmp_path):
        def transport(payload, idx):
            raise KeyboardInterrupt

        config = _record_config(fixture_env, tmp_path, _distinct_items(2), fanout=2)
        with pytest.raises(KeyboardInterrupt):
            run_task(config, transport=transport)
        assert not (Path(config["run_dir"]) / "generated.jsonl").exists()

    def test_interrupted_run_keeps_the_lines_of_finished_items(self, fixture_env, tmp_path):
        config = _record_config(fixture_env, tmp_path, _distinct_items(3), fanout=1)
        generated = Path(config["run_dir"]) / "generated.jsonl"
        on_disk = []

        def transport(payload, idx):
            if _item_of(payload) == 2:
                if not on_disk:  # read before the run unwinds
                    on_disk.append(generated.read_text())
                raise KeyboardInterrupt
            return scripted_llm(payload, idx)

        with pytest.raises(KeyboardInterrupt):
            run_task(config, transport=transport)
        assert on_disk[0] == generated.read_text()
        lines = [json.loads(line) for line in on_disk[0].splitlines()]
        assert [line["id"] for line in lines] == ["it0", "it1"]
        assert all("error" not in line for line in lines)

    def test_malformed_constraint_payload_costs_only_its_item(self, fixture_env, tmp_path):
        bad = {"id": "bad", "canvas": {"w": 513, "h": 750}, "elements": [],
               "constraints": {"kind": "gen_ts", "payload": {"elements": [
                   {"label": "text", "width": "w", "height": 3}]}}}
        config = _record_config(fixture_env, tmp_path, _distinct_items(2) + [bad], fanout=1)
        run_dir = run_task(config, transport=scripted_llm)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["it0", "it1", "bad"]
        assert "error" not in lines[0] and "error" not in lines[1]
        assert lines[2]["error"] == "InvalidPayload"
        log = (run_dir / "run.log").read_text()
        assert "item bad: InvalidPayload: gen_ts element" in log
        assert "Traceback" not in log

    def test_unreadable_transcript_is_one_log_line(self, fixture_env, tmp_path):
        items = _distinct_items(2)
        config = _record_config(fixture_env, tmp_path, items[1:], fanout=1)
        run_task(config, transport=scripted_llm)
        transcripts = Path(config["backend"]["transcript_dir"])
        of_it1 = set(transcripts.iterdir())
        run_task(dict(config, items=items, run_dir=str(tmp_path / "run_both")),
                 transport=scripted_llm)
        of_it0 = sorted(set(transcripts.iterdir()) - of_it1)
        for path in of_it0:
            path.write_text("{not json", encoding="utf-8")
        run_dir = run_task(dict(config, items=items, run_dir=str(tmp_path / "run_replay"),
                                backend=dict(config["backend"], mode="replay")))
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert lines[0]["error"] == "SchemaError"
        assert "error" not in lines[1]
        log = (run_dir / "run.log").read_text()
        assert "item it0: SchemaError: transcript " in log
        assert any(f"transcript {path} is not JSON" in log for path in of_it0)
        assert "Traceback" not in log
        assert "run ends: 1 ok, 1 failed" in log

    @pytest.mark.parametrize("means, reason", [
        ({"text": 0.05}, "missing_label_stats"),
        ({"text": 0.05, "logo": 0.02, "underlay": 0.0}, "zero_training_area"),
    ])
    def test_labels_without_a_training_area_skip_r_e(self, fixture_env, tmp_path, means,
                                                     reason):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(means), encoding="utf-8")
        config = _record_config(fixture_env, tmp_path, fixture_env["items"], fanout=1)
        config["stats"] = str(stats)
        run_dir = run_task(config, transport=scripted_llm)
        header, values = (run_dir / "metrics.tsv").read_text().splitlines()
        row = dict(zip(header.split("\t"), values.split("\t")))
        assert row["r_e"] == f"skipped({reason})"
        assert row["val"] == "1.000000"
        assert "run ends: 5 ok, 0 failed" in (run_dir / "run.log").read_text()

    @pytest.mark.parametrize("change, error, message", [
        ({"saliency": 5}, "SchemaError", "record 'bad' saliency must be a string, got 5"),
        ({"gradient": "rasters/missing.pgm"}, "FileNotFoundError",
         "[Errno 2] No such file or directory"),
        ({"canvas": [513, 750]}, "SchemaError",
         "record 'bad' canvas must have integer w and h, got [513, 750]"),
        ({"canvas": {"w": 513.0, "h": 750}}, "SchemaError",
         "record 'bad' canvas must have integer w and h, got {'w': 513.0, 'h': 750}"),
        # An explicit constraint does not skip the reader.
        ({"canvas": [513, 750], "constraints": {"kind": "gen_t",
                                                "payload": {"categories": {"text": 9}}}},
         "SchemaError", "record 'bad' canvas must have integer w and h, got [513, 750]"),
    ])
    def test_unreadable_item_fails_alone_before_any_llm_request(self, fixture_env, tmp_path,
                                                                change, error, message):
        bad = dict({"id": "bad", "canvas": {"w": 513, "h": 750}, "elements": [],
                    "constraints": {"categories": {"text": 9}}}, **change)
        requested = []

        def transport(payload, idx):
            requested.append(_item_of(payload))
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, [bad] + _distinct_items(2), fanout=1)
        run_dir = run_task(config, transport=transport)
        assert 8 not in requested  # item `bad` asks for 9 text boxes
        assert {0, 1} <= set(requested)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["bad", "it0", "it1"]
        assert lines[0]["error"] == error
        assert "error" not in lines[1] and "error" not in lines[2]
        log = (run_dir / "run.log").read_text()
        assert f"item bad: {error}: {message}" in log
        assert "Traceback" not in log
        assert "run ends: 2 ok, 1 failed" in log

    def test_a_stats_file_with_a_nan_area_is_a_config_error(self, fixture_env, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text('{"text": NaN}', encoding="utf-8")
        config = _record_config(fixture_env, tmp_path, fixture_env["items"], fanout=1)
        config["stats"] = str(stats)
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot read stats file {stats}: {stats}: label 'text' needs a finite, "
                "non-negative area, got nan")):
            run_task(config, transport=scripted_llm)


def _item_of(payload) -> int | None:
    """Position of the `_distinct_items` item a coarse request belongs to."""
    match = re.search(r"^text: (\d+)$", payload["messages"][1]["content"], re.MULTILINE)
    return int(match.group(1)) - 1 if match else None


def _distinct_items(count: int) -> list[dict]:
    """Items whose coarse prompts differ: item i requires i + 1 text boxes."""
    return [{"id": f"it{i}", "canvas": {"w": 513, "h": 750}, "elements": [],
             "constraints": {"categories": {"text": i + 1}}} for i in range(count)]


def _record_config(fixture_env, tmp_path, items, fanout):
    config = fixture_env["run_config"](tmp_path / f"run{fanout}", "record")
    config["backend"] = dict(config["backend"], fanout=fanout,
                             transcript_dir=str(tmp_path / f"transcripts{fanout}"))
    config["items"] = items
    del config["dataset"]
    return config


class TestConcurrentRun:
    def test_fanout_does_not_change_outputs(self, fixture_env, tmp_path):
        # The fixture's items send identical prompts; the others differ.
        items = [json.loads(json.dumps(item, sort_keys=True))
                 for item in fixture_env["items"]] + _distinct_items(4)
        runs = {}
        for fanout in (1, 4):
            config = _record_config(fixture_env, tmp_path, items, fanout)
            run_dir = run_task(config, transport=scripted_llm)
            keys = sorted(p.name for p in Path(config["backend"]["transcript_dir"]).iterdir())
            runs[fanout] = (_tree_bytes(run_dir), keys)
        assert runs[4] == runs[1]
        assert len(runs[1][0]) == len(items) + 2  # traces, generated.jsonl, metrics.tsv
        assert all(name.endswith(".json") for name in runs[1][1])

    def test_items_overlap(self, fixture_env, tmp_path):
        second_started = threading.Event()
        timed_out = []

        def transport(payload, idx):
            item = _item_of(payload)
            if item == 1:
                second_started.set()
            elif item == 0 and not second_started.wait(timeout=10):
                timed_out.append(idx)
                second_started.set()  # fail once, not once per request
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, _distinct_items(2), fanout=2)
        run_dir = run_task(config, transport=transport)
        assert timed_out == []
        lines = (run_dir / "generated.jsonl").read_text().splitlines()
        assert all("error" not in json.loads(line) for line in lines)

    def test_record_order_when_first_item_finishes_last(self, fixture_env, tmp_path):
        config = _record_config(fixture_env, tmp_path, _distinct_items(3), fanout=3)
        second_trace = Path(config["run_dir"]) / "traces" / "it1.json"
        timed_out = []

        def transport(payload, idx):
            if _item_of(payload) == 0 and not timed_out:
                deadline = time.monotonic() + 10
                while not second_trace.exists():
                    if time.monotonic() > deadline:
                        timed_out.append(idx)
                        break
                    time.sleep(0.005)
            return scripted_llm(payload, idx)

        run_dir = run_task(config, transport=transport)
        assert timed_out == []
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["it0", "it1", "it2"]
        assert all("error" not in l for l in lines)
        log = (run_dir / "run.log").read_text()
        assert [m.group(1) for m in re.finditer(r"item (\w+): ok", log)] == \
            ["it0", "it1", "it2"]
