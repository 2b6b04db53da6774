"""Ranking, constraint satisfaction, coarse generation, staged refinement,
and full replay runs over the bundled fixture."""

import json
import logging
import re
import threading
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from layoutloom.dataset import DatasetManifest, ingest, record_to_layout
from layoutloom.errors import ConfigError, NoViableCandidate, SchemaError
from layoutloom.gateway import BackendConfig, Gateway
from layoutloom.model import BBox, Canvas, Element, Layout, to_html
from layoutloom.pipeline import (
    CandidateRecord,
    CoarseFragment,
    PipelineConfig,
    RankerWeights,
    RefinementTrace,
    StageRecord,
    _dataclass_from,
    _pipeline_config,
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

from conftest import make_layout, random_normalized_layout, scripted_llm

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
    "use_cot": (False, False),
    "seed": (11, 11),
    "coarse_temperature": (0.5, 0.5),
    "stage_temperature": (1, 1.0),
    "similarity_scale": (2, 2.0),
    "exclude_self": (False, False),
    "ranker": ({"w_align": 2.0}, RankerWeights(w_align=2.0)),
    "default_canvas": ([640, 480], (640, 480)),
}


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_config_field_is_set_from_a_run_config(name):
    raw, expected = _CONFIG_VALUES[name]
    value = getattr(_pipeline_config({name: raw}), name)
    assert value == expected
    assert type(value) is type(expected)


@pytest.mark.parametrize("name, raw", [
    ("use_cot", "false"),
    ("exclude_self", "no"),
    ("use_rag", 0),
    ("k_coarse", 2.9),
    ("k_refine", 3.0),
    ("n_candidates", "7"),
    ("seed", True),
    ("coarse_temperature", "0.5"),
    ("similarity_scale", False),
    ("default_canvas", ["640", 480]),
    ("default_canvas", [640, 0]),
    ("default_canvas", [640, 480, 1]),
    ("ranker", {"w_align": "2"}),
    ("ranker", {"w_allign": 2.0}),
    ("ranker", [1.0, 1.0, 1.0]),
])
def test_config_value_of_the_wrong_json_type_is_rejected(name, raw):
    with pytest.raises(ConfigError, match=name):
        _pipeline_config({name: raw})


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
    backend = _dataclass_from("backend", BackendConfig, {"transcript_dir": "t", name: raw})
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
        _dataclass_from("backend", BackendConfig, {"transcript_dir": "t", name: raw})


class TestProtocolDefaults:
    def test_pipeline_defaults(self):
        cfg = PipelineConfig()
        assert cfg.k_coarse == 10
        assert cfg.k_refine == 4
        assert cfg.n_candidates == 10
        assert cfg.stages == 3
        assert cfg.similarity_scale == 1.0

    def test_stages_out_of_range(self):
        with pytest.raises(ConfigError, match="stages"):
            _pipeline_config({"stages": 4})

    def test_cost_weight_defaults(self):
        from layoutloom.retrieval import DEFAULT_WEIGHTS
        assert DEFAULT_WEIGHTS.w_geo == 0.5
        assert DEFAULT_WEIGHTS.w_label == 0.5

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
        exemplar_ids = list(index.ids[:2])
        return refine_cot(coarse, spec, index, cfg, gateway,
                          exemplar_ids=exemplar_ids, run_id="r1"), coarse

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
        from layoutloom.pipeline import _exemplar_layouts
        exemplars = _exemplar_layouts(index, trace.stages[1].exemplar_ids, coarse.canvas)
        previous = record_to_layout(dict(trace.stages[0].parsed, id=""))
        bundle = build_stage_prompt(2, "content_aware", exemplars, previous, spec,
                                    vocabulary=index.vocabulary)
        assert bundle_sha256(bundle) == trace.stages[1].prompt_sha256


class TestTraceJson:
    def test_matches_indented_json_dumps(self):
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
        assert trace.to_json() == json.dumps(asdict(trace), ensure_ascii=False, indent=2,
                                             sort_keys=True)


class TestConstraintFromRecord:
    def test_content_aware_from_categories(self):
        record = {"id": "x", "canvas": {"w": 100, "h": 200}, "elements": [],
                  "constraints": {"categories": {"text": 2}}, "saliency": "s.pgm"}
        spec = constraint_from_record(record, "content_aware")
        assert spec.kind == "content_aware"
        assert spec.payload["categories"] == {"text": 2}
        assert spec.payload["canvas"] == [100, 200]
        assert spec.payload["saliency"] == "s.pgm"

    def test_content_aware_from_elements(self):
        record = {"id": "x", "canvas": {"w": 100, "h": 200},
                  "elements": [{"label": "text", "bbox": [0, 0, 10, 10]},
                               {"label": "text", "bbox": [0, 20, 10, 10]}]}
        spec = constraint_from_record(record, "content_aware")
        assert spec.payload["categories"] == {"text": 2}

    def test_explicit_constraint_object_wins(self):
        record = {"id": "x", "canvas": {"w": 100, "h": 100}, "elements": [],
                  "constraints": {"kind": "gen_t",
                                  "payload": {"categories": {"title": 1}}}}
        spec = constraint_from_record(record, "constraint_explicit")
        assert spec.kind == "gen_t"
        assert spec.payload["categories"] == {"title": 1}

    def test_text_task(self):
        record = {"id": "x", "canvas": {"w": 360, "h": 640}, "elements": [],
                  "text": "a signup screen"}
        spec = constraint_from_record(record, "text_to_layout")
        assert spec.kind == "text_to_layout"
        assert spec.payload["text"] == "a signup screen"


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
        assert trace["final"]["elements"]

    def test_missing_config_keys(self):
        with pytest.raises(ConfigError):
            run_task({"run_dir": "/tmp/x"})

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
        for use_cot in (True, False):
            config = fixture_env["run_config"](tmp_path / f"run_cot_{use_cot}", "replay")
            config["use_cot"] = use_cot
            trace = json.loads((run_task(config) / "traces" / "item0.json").read_text())
            configs[use_cot] = trace["config"]
        assert set(configs[False]) == set(configs[True])
        assert configs[True]["use_cot"] is True and configs[True]["stages"] == 3
        assert configs[False]["use_cot"] is False and configs[False]["stages"] == 0

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

    def test_non_domain_error_costs_only_its_item(self, fixture_env, tmp_path):
        def transport(payload, idx):
            if _item_of(payload) == 1:
                raise OSError("connection reset")
            return scripted_llm(payload, idx)

        config = _record_config(fixture_env, tmp_path, _distinct_items(3), fanout=1)
        run_dir = run_task(config, transport=transport)
        lines = [json.loads(l) for l in
                 (run_dir / "generated.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["it0", "it1", "it2"]
        assert "error" not in lines[0] and "error" not in lines[2]
        assert lines[1]["error"] == "OSError"
        assert lines[1]["message"] == "connection reset"
        assert json.loads((run_dir / "traces" / "it1.json").read_text())["error"] == "OSError"
        assert (run_dir / "metrics.tsv").exists()
        log = (run_dir / "run.log").read_text()
        assert "item it1: OSError: connection reset" in log
        assert "Traceback" in log

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
