"""Template catalog completeness, constraint rendering, and bundle determinism."""

import pytest

from layoutloom import prompts
from layoutloom.dataset import TASK_KINDS, record_to_layout
from layoutloom.errors import (
    EmptyExemplars,
    InvalidPayload,
    UnboundPlaceholder,
    UnknownTemplate,
)
from layoutloom.model import MAX_PIXEL, to_html
from layoutloom.prompts import (
    ConstraintSpec,
    STAGE_NAMES,
    build_coarse_prompt,
    build_stage_prompt,
    constraint_digest,
    load_template,
    render_constraint,
)

from conftest import make_layout

VOCAB = ("text", "logo", "title")


def exemplars(n=3):
    return [
        to_html(make_layout(f"ex{i}", (100, 200), [(10 + i, 20, 30, 40), (5, 100 + i, 50, 20)],
                            ["text", "logo"]))
        for i in range(n)
    ]


CONSTRAINTS = {
    "content_aware": ConstraintSpec("content_aware", {
        "canvas": [513, 750],
        "categories": {"text": 2, "logo": 1},
    }),
    "constraint_explicit": ConstraintSpec("gen_t", {"categories": {"text": 2, "title": 1}}),
    "text_to_layout": ConstraintSpec("text_to_layout", {
        "text": "a login page with a logo above a form",
        "canvas": [360, 640],
    }),
}


class TestCatalog:
    def test_twelve_templates_exist(self):
        assert len(TASK_KINDS) * len(STAGE_NAMES) == 12
        for family in TASK_KINDS:
            for stage in STAGE_NAMES:
                system, user = load_template(family, stage)
                assert system.strip() and user.strip()

    def test_unknown_template(self):
        for family, stage in [("content_aware", "4"), ("poster", "coarse"),
                              ("content_aware", 1)]:
            with pytest.raises(UnknownTemplate):
                load_template(family, stage)

    def test_all_templates_render(self):
        # 12 render smoke checks: every (family, stage) with a valid binding
        for family in TASK_KINDS:
            constraint = CONSTRAINTS[family]
            current = make_layout("cur", (100, 200), [(1, 2, 3, 4)])
            bundle = build_coarse_prompt(exemplars(), constraint, VOCAB)
            assert "{{" not in bundle.system + bundle.user
            for stage in (1, 2, 3):
                bundle = build_stage_prompt(stage, exemplars(), current, constraint, VOCAB)
                assert "{{" not in bundle.system + bundle.user


class TestConstraintSpec:
    def test_gen_t_rendering_lines(self):
        text = render_constraint(CONSTRAINTS["constraint_explicit"])
        assert text.splitlines() == ["text: 2", "title: 1", "total elements: 3"]

    def test_gen_r_empty_relations_degenerates_to_gen_t(self):
        gen_r = ConstraintSpec("gen_r", {"elements": ["text", "text", "title"],
                                         "relations": []})
        gen_t = ConstraintSpec("gen_t", {"categories": {"text": 2, "title": 1}})
        assert render_constraint(gen_r) == render_constraint(gen_t)

    def test_gen_r_relation_lines(self):
        spec = ConstraintSpec("gen_r", {
            "elements": ["text", "title"],
            "relations": [[0, "below", 1]],
        })
        assert "relation 1: element 1 (text) below element 2 (title)" in render_constraint(spec)

    def test_gen_ts_sizes(self):
        spec = ConstraintSpec("gen_ts", {"elements": [
            {"label": "text", "width": 120, "height": 40},
            {"label": "text", "width": 100, "height": 30},
        ]})
        text = render_constraint(spec)
        assert "size of text 1: 120 x 40" in text
        assert "size of text 2: 100 x 30" in text

    def test_completion_embeds_snippet(self):
        partial = make_layout("p", (100, 100), [(10, 10, 20, 20)])
        spec = ConstraintSpec("completion", {"layout": {
            "canvas": {"w": 100, "h": 100},
            "elements": [{"label": "text", "bbox": [10, 10, 20, 20]}],
        }})
        text = render_constraint(spec)
        assert to_html(partial) in text
        assert text.count('<div class="text"') == 1

    def test_content_aware_lists_canvas_and_categories(self):
        text = render_constraint(CONSTRAINTS["content_aware"])
        assert "canvas size: 513 x 750 pixels" in text
        assert "text: 2" in text and "logo: 1" in text

    def test_text_passed_verbatim(self):
        text = render_constraint(CONSTRAINTS["text_to_layout"])
        assert "a login page with a logo above a form" in text

    def test_invalid_payloads(self):
        with pytest.raises(InvalidPayload):
            ConstraintSpec("gen_t", {"categories": {}})
        with pytest.raises(InvalidPayload):
            ConstraintSpec("gen_r", {"elements": ["text"], "relations": [[0, "on-top", 0]]})
        with pytest.raises(InvalidPayload):
            ConstraintSpec("gen_r", {"elements": ["text"], "relations": [[0, "above", 5]]})
        with pytest.raises(InvalidPayload):
            ConstraintSpec("text_to_layout", {"text": "  "})
        with pytest.raises(InvalidPayload):
            ConstraintSpec("nonesuch", {})

    # Each payload value a reader uses, malformed; without the checks these
    # raised ValueError or TypeError, or (gen_ts width "w") were rendered into
    # the prompt and failed in ranking.
    @pytest.mark.parametrize("kind, payload", [
        ("gen_t", ["categories"]),
        ("gen_t", {"categories": {"text": "many"}}),
        ("gen_t", {"categories": {"text": True}}),
        ("gen_t", {"categories": {"text": 0}}),
        ("gen_ts", {"elements": "text"}),
        ("gen_ts", {"elements": ["label width height"]}),
        ("gen_ts", {"elements": [{"label": "text", "width": "w", "height": 3}]}),
        ("gen_ts", {"elements": [{"label": "text", "width": 30, "height": float("nan")}]}),
        ("gen_ts", {"elements": [{"label": 7, "width": 30, "height": 3}]}),
        ("gen_ts", {"elements": [{"label": "text", "width": 30, "height": 3}],
                    "canvas": [0, 300]}),
        ("gen_ts", {"elements": [{"label": "text", "width": 1e300, "height": 3}]}),
        ("gen_ts", {"elements": [{"label": "text", "width": 30, "height": 10**400}]}),
        ("gen_ts", {"elements": [{"label": "text", "width": 30, "height": 3}],
                    "canvas": [int(MAX_PIXEL) + 1, 300]}),
        ("gen_r", {"elements": "text"}),
        ("gen_r", {"elements": [["text"]]}),
        ("gen_r", {"elements": ["text", "title"], "relations": [[0, "above"]]}),
        ("gen_r", {"elements": ["text", "title"], "relations": [["x", "above", 1]]}),
        ("gen_r", {"elements": ["text", "title"], "relations": [[0, "above", True]]}),
        ("gen_r", {"elements": ["text", "title"], "relations": {"0": "above"}}),
        ("completion", {"layout": {"canvas": {"w": 0, "h": 10}, "elements": []}}),
        ("completion", {"layout": {"canvas": [10, 10], "elements": []}}),
        ("completion", {"layout": {"canvas": {"w": 10**400, "h": 10}, "elements": []}}),
        ("completion", {"layout": {"canvas": {"w": 10, "h": 10}, "elements": 5}}),
        ("refinement", {"layout": {"canvas": {"w": 10, "h": 10},
                                   "elements": [{"label": "text"}]}}),
        ("content_aware", {"canvas": 5, "categories": {"text": 1}}),
        ("content_aware", {"canvas": [513, "750"], "categories": {"text": 1}}),
        ("content_aware", {"canvas": [513, 10**400], "categories": {"text": 1}}),
        ("text_to_layout", {"text": "a form", "canvas": [360, int(MAX_PIXEL) + 1]}),
        ("text_to_layout", {"text": "a form", "canvas": [360]}),
        ("text_to_layout", {"text": "a form", "categories": {"text": "2"}}),
    ])
    def test_malformed_payload_values(self, kind, payload):
        with pytest.raises(InvalidPayload):
            ConstraintSpec(kind, payload)

    @pytest.mark.parametrize("kind", ["completion", "refinement"])
    def test_given_layout_is_parsed_once_with_an_empty_id(self, kind):
        record = {"id": "partial7", "canvas": {"w": 100, "h": 80},
                  "elements": [{"label": "text", "bbox": [10, 10, 20, 20]}]}
        spec = ConstraintSpec(kind, {"layout": record})
        assert spec.given_layout.id == ""
        assert spec.given_layout == record_to_layout(dict(record, id=""))
        assert ConstraintSpec(kind, {"layout": record}) == spec

    def test_other_kinds_have_no_given_layout(self):
        assert all(spec.given_layout is None for spec in CONSTRAINTS.values())

    def test_digest_stable_and_distinct(self):
        a = constraint_digest(CONSTRAINTS["constraint_explicit"])
        b = constraint_digest(ConstraintSpec("gen_t", {"categories": {"text": 2, "title": 1}}))
        c = constraint_digest(ConstraintSpec("gen_t", {"categories": {"text": 3, "title": 1}}))
        assert a == b
        assert a != c


class TestCoarsePrompt:
    def test_exemplar_count_and_order(self):
        ex = exemplars(10)
        bundle = build_coarse_prompt(ex, CONSTRAINTS["content_aware"], VOCAB)
        assert bundle.user.count('<div class="canvas"') == 10
        positions = [bundle.user.find(html) for html in ex]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)
        assert "Below are 10 reference layouts" in bundle.user

    def test_len_topk_binding_single(self):
        bundle = build_coarse_prompt(exemplars(1), CONSTRAINTS["content_aware"], VOCAB)
        assert "Below are 1 reference layouts" in bundle.user

    def test_deterministic(self):
        one = build_coarse_prompt(exemplars(), CONSTRAINTS["constraint_explicit"], VOCAB)
        two = build_coarse_prompt(exemplars(), CONSTRAINTS["constraint_explicit"], VOCAB)
        assert one == two

    def test_empty_exemplars(self):
        with pytest.raises(EmptyExemplars):
            build_coarse_prompt([], CONSTRAINTS["content_aware"], VOCAB)


class TestStagePrompts:
    def test_content_aware_stage_rules(self):
        current = make_layout("cur", (513, 750), [(10, 10, 100, 50)])
        s1 = build_stage_prompt(1, exemplars(), current, CONSTRAINTS["content_aware"], VOCAB)
        assert "Keep object and underlay locked" in s1.system
        s2 = build_stage_prompt(2, exemplars(), current, CONSTRAINTS["content_aware"], VOCAB)
        assert "maximize IoU with associated text/logo" in s2.system
        assert "fully contains the corresponding text/logo" in s2.system

    def test_text_to_layout_stage2_overlap_rule(self):
        current = make_layout("cur", (360, 640), [(10, 10, 100, 50)])
        bundle = build_stage_prompt(2, exemplars(), current, CONSTRAINTS["text_to_layout"], VOCAB)
        assert "Reduce Overlap to near zero" in bundle.system

    def test_stage_placeholder_progression(self):
        current = make_layout("cur", (100, 200), [(1, 2, 3, 4)])
        s1 = build_stage_prompt(1, exemplars(), current, CONSTRAINTS["content_aware"], VOCAB)
        assert "initial layout needing refinement" in s1.user
        s2 = build_stage_prompt(2, exemplars(), current, CONSTRAINTS["content_aware"], VOCAB)
        assert "after Stage 1" in s2.user
        s3 = build_stage_prompt(3, exemplars(), current, CONSTRAINTS["content_aware"], VOCAB)
        assert "after Stage 2" in s3.user
        for bundle in (s1, s2, s3):
            assert to_html(current) in bundle.user

    def test_unbound_placeholder_is_refused(self, monkeypatch):
        current = make_layout("cur", (100, 200), [(1, 2, 3, 4)])
        monkeypatch.setattr(prompts, "load_template",
                            lambda family, stage: ("{{TEXT_DESCRIPTION}}", "{{CURRENT_HTML}}"))
        with pytest.raises(UnboundPlaceholder, match="TEXT_DESCRIPTION"):
            build_stage_prompt(1, exemplars(), current, CONSTRAINTS["constraint_explicit"], VOCAB)

    def test_invalid_stage(self):
        current = make_layout("cur", (100, 200), [(1, 2, 3, 4)])
        with pytest.raises(UnknownTemplate):
            build_stage_prompt(4, exemplars(), current, CONSTRAINTS["content_aware"], VOCAB)

    def test_vocabulary_binding(self):
        current = make_layout("cur", (100, 200), [(1, 2, 3, 4)])
        bundle = build_stage_prompt(1, exemplars(), current,
                                    CONSTRAINTS["constraint_explicit"],
                                    vocabulary=("text", "title", "list"))
        assert "1) text, 2) title, 3) list" in bundle.system

    def test_lock_rules_vary_by_kind(self):
        current = make_layout("cur", (100, 200), [(1, 2, 3, 4)])
        completion = ConstraintSpec("completion", {"layout": {
            "canvas": {"w": 100, "h": 200},
            "elements": [{"label": "text", "bbox": [1, 2, 3, 4]}],
        }})
        bundle = build_stage_prompt(1, exemplars(), current, completion, VOCAB)
        assert "partial elements are fixed" in bundle.system
