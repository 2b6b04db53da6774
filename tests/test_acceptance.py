"""Acceptance criteria, one test per criterion, each with its runtime budget.

Expected values marked "independent evaluation" are computed inline from
first principles (math formulas, brute-force enumeration) rather than through
the code paths under test.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from layoutloom.dataset import AreaStats
from layoutloom.metrics import (
    alignments,
    max_iou,
    overlaps,
    size_reasonableness,
    underlay_effectiveness,
)
from layoutloom.model import BBox, Canvas, Element, Layout, parse_html, to_html, unit_boxes
from layoutloom.pipeline import RankerWeights, rank_candidates, run_task
from layoutloom.prompts import ConstraintSpec
from layoutloom.retrieval import ltsim_score, topk_retrieve
from layoutloom.transport import solve_exact

from conftest import (
    entry_layout,
    make_index,
    random_normalized_layout,
    random_pixel_layout,
    scripted_llm,
)
from test_transport import permutation_assignment_cost, polytope_vertex_min

VOCAB = ("text", "logo", "underlay")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s budget"


def unit_layout(boxes, labels=None, layout_id="a"):
    labels = labels or ["text"] * len(boxes)
    return Layout(layout_id, Canvas(1, 1),
                  tuple(Element(lab, BBox(*b)) for lab, b in zip(labels, boxes)))


def test_criterion_1_size_reasonableness_exactness():
    budget = Budget(1.0)

    # every per-label mean-area ratio exactly 1.0
    stats = AreaStats(means={"text": 0.06, "logo": 0.02})
    population = [
        unit_layout([(0.0, 0.0, 0.3, 0.2), (0.0, 0.5, 0.2, 0.1)], ["text", "logo"]),
        unit_layout([(0.1, 0.1, 0.2, 0.3), (0.4, 0.4, 0.1, 0.2)], ["text", "logo"]),
    ]
    score = size_reasonableness(population, stats)
    assert abs(score.value - 1.0) <= 1e-12

    # single label with ratio 1.2: independent evaluation of the formula
    expected = math.exp(-(math.log(1.2) - math.log(1.1)))
    stats = AreaStats(means={"text": 0.05})
    population = [unit_layout([(0.0, 0.0, 0.3, 0.2)])]  # area 0.06 -> r = 1.2
    score = size_reasonableness(population, stats)
    assert abs(score.value - expected) <= 1e-12
    assert abs(expected - 11.0 / 12.0) < 1e-6  # sanity: exp(-ln(12/11)) = 11/12

    budget.check()


def test_criterion_2_transport_matches_enumeration():
    budget = Budget(10.0)
    rng = np.random.default_rng(202)

    # 200 square instances, m = n <= 4, against the n!-permutation oracle
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cost = rng.random((n, n))
        plan = solve_exact(cost)
        oracle = permutation_assignment_cost(cost)
        assert abs(n * plan.cost - oracle) <= 1e-9

    # 50 rectangular instances, m != n <= 3, against vertex enumeration
    done = 0
    while done < 50:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        if m == n:
            continue
        cost = rng.random((m, n))
        plan = solve_exact(cost)
        assert abs(plan.cost - polytope_vertex_min(cost)) <= 1e-9
        done += 1

    budget.check()


def _synthetic_index(rng, size=1000, duplicates=100):
    entries = [(f"syn{i:04d}", random_normalized_layout(rng, max_elements=3, vocabulary=VOCAB))
               for i in range(size - duplicates)]
    # exact geometric ties under fresh ids
    entries += [(f"tie{j:04d}", entries[j][1]) for j in range(duplicates)]
    return make_index(entries, VOCAB)


def test_criterion_3_retrieval_equals_full_scan():
    budget = Budget(30.0)
    rng = np.random.default_rng(303)
    index = _synthetic_index(rng)
    assert len(index) == 1000

    queries = [random_normalized_layout(rng, max_elements=3, vocabulary=VOCAB)
               for _ in range(50)]
    # half the queries are exact copies of index entries
    copy_positions = [int(rng.integers(0, len(index))) for _ in range(50)]
    queries += [entry_layout(index, pos) for pos in copy_positions]

    for qi, query in enumerate(queries):
        full_scan = [
            (index.ids[i], ltsim_score(query, entry_layout(index, i)))
            for i in range(len(index))
        ]
        full_scan.sort(key=lambda t: (-t[1], t[0]))
        for k in (1, 4, 10):
            assert topk_retrieve(query, index, k) == full_scan[:k]
        if qi >= 50:  # self-similarity for the copied queries
            assert full_scan[0][1] == 1.0

    budget.check()


def test_criterion_4_metric_hand_cases():
    budget = Budget(1.0)

    pair = unit_layout([(0.0, 0.0, 0.5, 0.5), (0.25, 0.25, 0.5, 0.5)])
    assert abs(overlaps(unit_boxes([pair]))[0] - 0.125) <= 1e-12

    a = unit_layout([(0.0, 0.0, 0.5, 0.5)])
    b = unit_layout([(0.25, 0.25, 0.5, 0.5)])
    assert abs(max_iou(unit_boxes([a]), unit_boxes([b])) - 1.0 / 7.0) <= 1e-12

    column = unit_layout([(0.2, 0.1, 0.3, 0.1), (0.2, 0.3, 0.5, 0.1),
                          (0.2, 0.5, 0.2, 0.2), (0.2, 0.8, 0.4, 0.1)])
    assert alignments(unit_boxes([column])) == [0.0]

    half = unit_layout([(0.0, 0.0, 0.5, 0.5), (0.4, 0.1, 0.2, 0.2)],
                       ["underlay", "text"])
    assert abs(underlay_effectiveness(unit_boxes([half]))[0] - 0.5) <= 1e-12

    budget.check()


ADVERSARIAL_RESPONSES = [
    # (response text, expected canvas, expected [(label, l, t, w, h)])
    ("Here is the design you requested:\n"
     '<div class="canvas" style="width:100px; height:200px"></div>\n'
     '<div class="text" style="left:10px; top:20px; width:30px; height:40px"></div>',
     (100, 200), [("text", 10, 20, 30, 40)]),
    ("```html\n"
     '<div class="canvas" style="width:64px; height:64px"></div>\n'
     '<div class="logo" style="left:1px; top:2px; width:3px; height:4px"></div>\n'
     "```", (64, 64), [("logo", 1, 2, 3, 4)]),
    ('<div class="canvas" style="height:300px; width:150px"></div>'
     '<div class="text" style="top:5px; height:20px; left:8px; width:40px"></div>',
     (150, 300), [("text", 8, 5, 40, 20)]),
    ("<html><body>\n"
     '<div class="canvas" style="width:513px; height:750px"></div>\n'
     '<div class="underlay" style="left:50px; top:60px; width:413px; height:200px"></div>\n'
     '<div class="text" style="left:70px; top:80px; width:373px; height:60px"></div>\n'
     "</body></html>\nAll elements are aligned.",
     (513, 750), [("underlay", 50, 60, 413, 200), ("text", 70, 80, 373, 60)]),
    ("Sure thing!\n\n"
     '  <div class="canvas" style="width:90px; height:90px"></div>  \n'
     '  <div class="logo" style="left:0px; top:0px; width:45px; height:45px"></div>',
     (90, 90), [("logo", 0, 0, 45, 45)]),
    ('<DIV CLASS="canvas" STYLE="width:40px; height:50px"></DIV>'
     '<DIV CLASS="text" STYLE="left:4px; top:5px; width:6px; height:7px"></DIV>',
     (40, 50), [("text", 4, 5, 6, 7)]),
    ("The canvas is unchanged.\n"
     "<div class='canvas' style='width:120px; height:80px'></div>"
     "<div class='text' style='left: 12px ; top: 8px ; width: 24px ; height: 16px'></div>",
     (120, 80), [("text", 12, 8, 24, 16)]),
    ('<div class="canvas" style="width:100px; height:100px"></div>'
     '<div class="banner" style="left:0px; top:0px; width:9px; height:9px"></div>'
     '<div class="text" style="left:1px; top:1px; width:2px; height:3px"></div>',
     (100, 100), [("text", 1, 1, 2, 3)]),  # unknown class dropped with a warning
    ('step 1: place text\nstep 2: done\n'
     '<div class="canvas" style="width:77px; height:88px"></div>'
     '<div class="text" style="left:7px; top:8px; width:9px; height:10px"></div>',
     (77, 88), [("text", 7, 8, 9, 10)]),
    ('<div class="canvas" style="width:100.0px; height:200.0px"></div>'
     '<div class="text" style="left:10.0px; top:20.0px; width:30.0px; height:40.0px"></div>',
     (100, 200), [("text", 10, 20, 30, 40)]),
    ("Layout (verbose explanation follows the code)\n"
     "```\n"
     '<div class="canvas" style="width:32px; height:32px"></div>\n'
     '<div class="logo" style="left:2px; top:2px; width:28px; height:28px"></div>\n'
     "```\n"
     "The logo fills most of the canvas as requested.",
     (32, 32), [("logo", 2, 2, 28, 28)]),
    ('<div style="width:60px; height:70px" class="canvas"></div>'
     '<div style="left:6px; top:7px; width:8px; height:9px" class="underlay"></div>',
     (60, 70), [("underlay", 6, 7, 8, 9)]),
    ("Final HTML:"
     '<div class="canvas" style="width:10px; height:10px"></div>'
     '<div class="text" style="left:0px; top:0px; width:10px; height:10px"></div>'
     "That's everything.",
     (10, 10), [("text", 0, 0, 10, 10)]),
    ('<div class="canvas" style="width:400px; height:300px"></div>\n\n\n'
     '<div class="text"\n style="left:40px; top:30px; width:80px; height:60px"></div>',
     (400, 300), [("text", 40, 30, 80, 60)]),
    ("I'll keep object and underlay locked as instructed.\n"
     '<div class="canvas" style="width:200px; height:100px"></div>'
     '<div class="text" style="left:20px; top:10px; width:40px; height:20px"></div>'
     '<div class="logo" style="left:80px; top:10px; width:30px; height:20px"></div>',
     (200, 100), [("text", 20, 10, 40, 20), ("logo", 80, 10, 30, 20)]),
    ('{"thought": "placing one box"}\n'
     '<div class="canvas" style="width:55px; height:66px"></div>'
     '<div class="text" style="left:5px; top:6px; width:7px; height:8px"></div>',
     (55, 66), [("text", 5, 6, 7, 8)]),
    ('<div class="canvas" style="width:128px; height:256px"/>'
     '<div class="text" style="left:8px; top:16px; width:32px; height:64px"/>',
     (128, 256), [("text", 8, 16, 32, 64)]),
    ("Reference layouts were helpful. Mine:\n"
     '<div class="canvas" style="width:300px; height:300px"></div>'
     '<div class="underlay" style="left:30px; top:30px; width:240px; height:120px"></div>',
     (300, 300), [("underlay", 30, 30, 240, 120)]),
    ('<div class="text" style="left:10px; top:10px; width:20px; height:30px"></div>',
     (30, 40), [("text", 10, 10, 20, 30)]),  # canvas inferred from extent
    ("As requested, only the updated HTML.\n"
     '<div class="canvas" style="width:1024px; height:768px"></div>'
     '<div class="logo" style="left:100px; top:100px; width:200px; height:150px"></div>'
     '<div class="text" style="left:100px; top:300px; width:400px; height:80px"></div>'
     '<div class="underlay" style="left:90px; top:290px; width:420px; height:100px"></div>',
     (1024, 768), [("logo", 100, 100, 200, 150), ("text", 100, 300, 400, 80),
                   ("underlay", 90, 290, 420, 100)]),
]


def test_criterion_5_serialization():
    budget = Budget(5.0)
    rng = np.random.default_rng(505)

    for i in range(1000):
        lay = random_pixel_layout(rng, layout_id=f"rt{i}")
        assert parse_html(to_html(lay), VOCAB, layout_id=f"rt{i}") == lay

    assert len(ADVERSARIAL_RESPONSES) == 20
    for text, canvas, fields in ADVERSARIAL_RESPONSES:
        lay = parse_html(text, VOCAB)
        assert (lay.canvas.width, lay.canvas.height) == canvas
        got = [(e.label, e.bbox.left, e.bbox.top, e.bbox.width, e.bbox.height)
               for e in lay.elements]
        assert got == [(lab, float(l), float(t), float(w), float(h))
                       for lab, l, t, w, h in fields]

    budget.check()


def _tree_bytes(run_dir: Path) -> dict:
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(run_dir))] = path.read_bytes()
    return out


def _no_network(payload, idx):
    raise AssertionError("replay run attempted a transport call")


def test_criterion_6_replay_determinism(fixture_env, tmp_path):
    budget = Budget(20.0)

    config_a = fixture_env["run_config"](tmp_path / "acc_a", "replay")
    config_b = fixture_env["run_config"](tmp_path / "acc_b", "replay")
    dir_a = run_task(config_a, transport=_no_network)
    dir_b = run_task(config_b, transport=_no_network)

    bytes_a = _tree_bytes(dir_a)
    bytes_b = _tree_bytes(dir_b)
    assert bytes_a == bytes_b
    assert len([k for k in bytes_a if k.startswith("traces/")]) == 5

    # both runs exercised the full protocol: 10 coarse candidates, 3 stages, k = 10/4
    trace = json.loads((dir_a / "traces" / "item0.json").read_text())
    assert len(trace["coarse"]["candidates"]) == 10
    assert len(trace["coarse"]["exemplar_ids"]) == 10
    assert len(trace["stages"]) == 3
    assert all(len(s["exemplar_ids"]) == 4 for s in trace["stages"])

    budget.check()


def test_criterion_7_ranker_properties():
    budget = Budget(10.0)
    rng = np.random.default_rng(707)
    constraint = ConstraintSpec("gen_t", {"categories": {"text": 2}})

    for _ in range(100):
        candidates = [random_normalized_layout(rng, max_elements=4)
                      for _ in range(int(rng.integers(2, 8)))]
        lam = float(rng.uniform(1e-3, 1e3))
        best_base, _ = rank_candidates(candidates, constraint, RankerWeights(1, 1, 1))
        best_scaled, _ = rank_candidates(candidates, constraint,
                                         RankerWeights(lam, lam, lam))
        assert best_base == best_scaled

    # dominance: strictly worse overlap, everything else identical, never wins
    clean = unit_layout([(0.1, 0.1, 0.3, 0.2), (0.1, 0.5, 0.3, 0.2)])
    overlapped = unit_layout([(0.1, 0.1, 0.3, 0.2), (0.1, 0.2, 0.3, 0.2)])
    for ordering in ([clean, overlapped], [overlapped, clean]):
        best, _ = rank_candidates(ordering, constraint)
        assert ordering[best] is clean

    budget.check()


def test_criterion_8_ablation_harness(fixture_env, tmp_path):
    budget = Budget(30.0)
    root = fixture_env["root"]

    # stages 0 (no CoT): coarse result becomes final, no stages recorded
    # (Table-style row "w/ RAG only")
    config = fixture_env["run_config"](tmp_path / "abl_nocot", "replay")
    config["stages"] = 0
    run_dir = run_task(config, transport=_no_network)
    trace = json.loads((run_dir / "traces" / "item0.json").read_text())
    assert trace["stages"] == []
    assert trace["final"]["elements"]
    assert (run_dir / "metrics.tsv").exists()

    # --no-rag: seeded random exemplars; needs its own transcripts (record once)
    config = fixture_env["run_config"](tmp_path / "abl_norag_rec", "record")
    config["backend"]["transcript_dir"] = str(tmp_path / "norag_transcripts")
    config["use_rag"] = False
    run_task(config, transport=scripted_llm)
    config_replay = dict(config)
    config_replay["run_dir"] = str(tmp_path / "abl_norag")
    config_replay["backend"] = dict(config["backend"], mode="replay")
    run_dir = run_task(config_replay, transport=_no_network)
    trace = json.loads((run_dir / "traces" / "item0.json").read_text())
    assert trace["coarse"]["exemplar_source"].startswith("random(seed=")
    assert trace["final"]["elements"]

    # --stages 1: single refinement pass (Table-style row "Single-Stage (1)")
    config = fixture_env["run_config"](tmp_path / "abl_s1_rec", "record")
    config["stages"] = 1
    config["backend"]["transcript_dir"] = str(tmp_path / "s1_transcripts")
    run_task(config, transport=scripted_llm)
    config_replay = dict(config)
    config_replay["run_dir"] = str(tmp_path / "abl_s1")
    config_replay["backend"] = dict(config["backend"], mode="replay")
    run_dir = run_task(config_replay, transport=_no_network)
    trace = json.loads((run_dir / "traces" / "item0.json").read_text())
    assert len(trace["stages"]) == 1
    assert trace["final"]["elements"]

    budget.check()


LIVE_KEY = os.environ.get("LAYOUTLOOM_API_KEY")
LIVE_DATA = os.environ.get("LAYOUTLOOM_LIVE_DATASET")  # PKU-format records JSONL


@pytest.mark.skipif(not (LIVE_KEY and LIVE_DATA),
                    reason="live check needs LAYOUTLOOM_API_KEY and "
                           "LAYOUTLOOM_LIVE_DATASET")
def test_criterion_9_optional_live_sanity(tmp_path):
    """20-item live run: Val >= 0.95 and no NoViableCandidate items."""
    from layoutloom.dataset import read_jsonl

    records = list(itertools.islice(read_jsonl(LIVE_DATA), 20))
    base = Path(LIVE_DATA).parent
    manifest_path = base / "manifest.json"
    index_path = base / "index.json"
    config = {
        "run_dir": str(tmp_path / "live_run"),
        "base_dir": str(base),
        "task_family": "content_aware",
        "index": str(index_path),
        "items": records,
        "backend": {
            "mode": "live",
            "model": os.environ.get("LAYOUTLOOM_MODEL", "gpt-4"),
            "endpoint": os.environ["LAYOUTLOOM_ENDPOINT"],
        },
    }
    run_dir = run_task(config)
    lines = [json.loads(l) for l in
             (run_dir / "generated.jsonl").read_text().splitlines()]
    assert not any("error" in l for l in lines)
    header, values = (run_dir / "metrics.tsv").read_text().splitlines()
    val = float(dict(zip(header.split("\t"), values.split("\t")))["val"])
    assert val >= 0.95
