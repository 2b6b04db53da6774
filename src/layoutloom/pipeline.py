"""End-to-end orchestration: retrieval, coarse generation with ranking, and
three-stage refinement, with full trace persistence.

Candidate ranking scores each parseable coarse candidate as

    score = -w_align * norm(alignment) - w_overlap * norm(overlap)
            + w_constraint * satisfaction

where norm is min-max over the candidate set (a constant column contributes
0) and satisfaction is the fraction of constraint clauses the candidate
meets. The argmax is therefore invariant under positive scaling of the
weights. Coarse drafts are ranked at the default, equal weights.

Coarse drafts and refinement stages draw their completions one way: n
responses (n_candidates drafts, one per stage), each parsed leniently, and n
fresh ones when none of the first n parses. Drafts are sampled at
COARSE_TEMPERATURE and stages at STAGE_TEMPERATURE. A stage whose retry does
not parse either keeps the previous stage's layout, so a run can never lose
a successfully generated coarse layout.

Runs are reproducible: in replay mode two executions over the same
transcripts produce byte-identical traces, generated JSONL, and metric
tables. Trace files carry no timestamps; wall-clock detail goes to run.log.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .dataset import (
    TASK_KINDS,
    AreaStats,
    SaliencyRaster,
    layout_to_record,
    load_area_stats,
    load_raster,
    read_jsonl,
    record_to_layout,
)
from .errors import ConfigError, LayoutLoomError, NoViableCandidate, SchemaError
from .gateway import BackendConfig, ExtractionFailure, Gateway, extract_layout
from .metrics import (
    alignments,
    family_metrics,
    layout_samples,
    overlaps,
    population_report,
    write_metrics_tsv,
)
from .model import Canvas, Layout, label_counts, unit_boxes
from .prompts import (
    ConstraintSpec,
    PromptBundle,
    build_coarse_prompt,
    build_stage_prompt,
    constraint_digest,
)
from .retrieval import RetrievalIndex, load_index, pseudo_layout, topk_retrieve

DEFAULT_CANVAS = (512, 512)
COARSE_TEMPERATURE = 0.7
STAGE_TEMPERATURE = 0.0


@dataclass(frozen=True)
class RankerWeights:
    w_align: float = 1.0
    w_overlap: float = 1.0
    w_constraint: float = 1.0

    def __post_init__(self):
        if min(self.w_align, self.w_overlap, self.w_constraint) < 0:
            raise ConfigError("ranker weights must be non-negative")
        if self.w_align == self.w_overlap == self.w_constraint == 0:
            raise ConfigError("at least one ranker weight must be positive")


@dataclass
class PipelineConfig:
    k_coarse: int = 10
    k_refine: int = 4
    n_candidates: int = 10
    stages: int = 3
    use_rag: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.stages not in (0, 1, 2, 3):
            raise ConfigError("stages must be between 0 and 3")
        for name in ("k_coarse", "k_refine", "n_candidates"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")


# --- constraint satisfaction ------------------------------------------------

def _within_ratio(actual: float, target: float, tolerance: float) -> bool:
    """``actual`` within ``tolerance`` of a positive ``target``, relatively."""
    return abs(actual - target) <= tolerance * target


def _relation_holds(rel: str, a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether (left, top, width, height) boxes ``a`` and ``b`` hold ``rel``."""
    (a_left, a_top, a_width, a_height), (b_left, b_top, b_width, b_height) = a, b
    a_area, b_area = a_width * a_height, b_width * b_height
    if rel == "above":
        return a_top + a_height <= b_top
    if rel == "below":
        return a_top >= b_top + b_height
    if rel == "left-of":
        return a_left + a_width <= b_left
    if rel == "right-of":
        return a_left >= b_left + b_width
    if rel == "larger":
        return a_area > b_area
    if rel == "smaller":
        return a_area < b_area
    if rel == "equal":
        bigger = max(a_area, b_area)
        return bigger == 0 or abs(a_area - b_area) <= 0.1 * bigger
    return False


def _match_slots(candidate: Layout, boxes: Sequence, labels: Sequence[str]) -> list:
    """Map the i-th constraint slot of each label to the i-th candidate element
    with that label, as its entry of ``boxes``; None when the candidate runs out."""
    pools: dict[str, list] = {}
    for e, box in zip(candidate.elements, boxes):
        pools.setdefault(e.label, []).append(box)
    taken: dict[str, int] = {}
    out = []
    for label in labels:
        idx = taken.get(label, 0)
        pool = pools.get(label, [])
        out.append(pool[idx] if idx < len(pool) else None)
        taken[label] = idx + 1
    return out


def constraint_satisfaction(candidate: Layout, constraint: ConstraintSpec) -> float:
    """Fraction of constraint clauses the candidate satisfies, in [0, 1].

    Clauses by kind: exact category counts (gen_t family); plus one size
    clause per specified element within 10 percent (gen_ts); plus one clause
    per relation triple (gen_r); one clause per given element staying within
    1px (completion; refinement adds none); category presence with at least
    the required count (content_aware, text_to_layout when categories are
    given). A constraint with no extractable clauses is vacuously satisfied.
    ``candidate`` is in pixel space, as the parser returns it.
    """
    kind = constraint.kind
    counts = label_counts(candidate)
    clauses: list[bool] = []

    if kind in ("gen_t", "gen_ts", "gen_r"):
        for label, want in constraint.categories().items():
            clauses.append(counts.get(label, 0) == want)

    if kind == "gen_ts":
        canvas = constraint.payload.get("canvas") or (candidate.canvas.width,
                                                      candidate.canvas.height)
        items = constraint.payload["elements"]
        slots = _match_slots(candidate, unit_boxes([candidate]).ltwh[0].tolist(),
                             [item["label"] for item in items])
        for item, box in zip(items, slots):
            clauses.append(
                box is not None
                and _within_ratio(box[2], float(item["width"]) / float(canvas[0]), 0.1)
                and _within_ratio(box[3], float(item["height"]) / float(canvas[1]), 0.1)
            )

    if kind == "gen_r":
        labels = list(constraint.payload["elements"])
        slots = _match_slots(candidate, unit_boxes([candidate]).ltwh[0].tolist(), labels)
        for si, rel, oi in constraint.payload.get("relations", []):
            a, b = slots[si], slots[oi]
            clauses.append(a is not None and b is not None and _relation_holds(rel, a, b))

    if kind == "completion":
        given = constraint.given_layout
        slots = _match_slots(candidate, [e.bbox for e in candidate.elements], given.labels())
        for e, box in zip(given.elements, slots):
            clauses.append(
                box is not None
                and abs(box.left - e.bbox.left) <= 1.0
                and abs(box.top - e.bbox.top) <= 1.0
                and abs(box.width - e.bbox.width) <= 1.0
                and abs(box.height - e.bbox.height) <= 1.0
            )

    if kind in ("content_aware", "text_to_layout"):
        for label, want in constraint.categories().items():
            clauses.append(counts.get(label, 0) >= want)

    if not clauses:
        return 1.0
    return sum(clauses) / len(clauses)


def _minmax(column: Sequence[float]) -> list[float]:
    lo, hi = min(column), max(column)
    if hi <= lo:
        return [0.0] * len(column)
    return [(x - lo) / (hi - lo) for x in column]


def rank_candidates(candidates: Sequence[Layout], constraint: ConstraintSpec,
                    weights: RankerWeights | None = None) -> tuple[int, list[float]]:
    """Pick the best parseable candidate; ties go to the lowest index."""
    if not candidates:
        raise NoViableCandidate("no parseable candidates to rank")
    weights = weights or RankerWeights()
    boxes = unit_boxes(candidates)
    align_norm = _minmax(alignments(boxes))
    overlap_norm = _minmax(overlaps(boxes))
    sat = [constraint_satisfaction(c, constraint) for c in candidates]
    scores = [
        -weights.w_align * a - weights.w_overlap * o + weights.w_constraint * s
        for a, o, s in zip(align_norm, overlap_norm, sat)
    ]
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return best, scores


# --- trace records ----------------------------------------------------------

@dataclass
class CandidateRecord:
    index: int
    raw_text: str
    parsed: dict | None
    failure_reason: str | None = None
    score: float | None = None


@dataclass
class CoarseFragment:
    exemplar_ids: list[str]
    exemplar_source: str            # "ltsim" or "random(seed=...)"
    template_id: tuple[str, str]
    candidates: list[CandidateRecord]
    chosen_index: int
    prompt_sha256: str = ""


@dataclass
class StageRecord:
    stage: int
    template_id: tuple[str, str]
    exemplar_ids: list[str]
    prompt_sha256: str
    raw_responses: list[str]
    parsed: dict | None
    fallback: bool


# Trace files and generated.jsonl lines: one line each, sorted keys, non-ASCII
# text kept, and a dataclass written as its fields.
_OUTPUT_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True, default=vars)


@dataclass
class RefinementTrace:
    run_id: str
    constraint_kind: str
    constraint_digest: str
    coarse: CoarseFragment
    stages: list[StageRecord]
    final: dict
    config: dict

    def to_json(self) -> str:
        return _OUTPUT_JSON.encode(self)


def bundle_sha256(bundle: PromptBundle) -> str:
    body = bundle.system + "\x00" + bundle.user
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# --- coarse generation ------------------------------------------------------

def _query_layout(constraint: ConstraintSpec, stats: AreaStats | None,
                  item: Layout | None) -> Layout | None:
    if item is not None and item.elements:
        return item
    if constraint.given_layout is not None and constraint.given_layout.elements:
        return constraint.given_layout
    categories = constraint.categories()
    if categories:
        return pseudo_layout(categories, stats)
    return None


def _target_canvas(constraint: ConstraintSpec, item: Layout | None) -> Canvas:
    """The canvas a coarse layout is drafted on: the constraint's, else the
    canvas of an item with elements, unless that is the unit canvas, else
    ``DEFAULT_CANVAS``."""
    payload = constraint.payload
    if constraint.kind in ("content_aware", "text_to_layout") and payload.get("canvas"):
        return Canvas(*payload["canvas"])
    if constraint.given_layout is not None:
        return constraint.given_layout.canvas
    if item is not None and item.elements and not item.is_normalized:
        return item.canvas
    return Canvas(*DEFAULT_CANVAS)


def _select_exemplars(query: Layout | None, index: RetrievalIndex, k: int,
                      cfg: PipelineConfig, run_id: str) -> tuple[list[str], str]:
    if query is not None:
        ranked = topk_retrieve(query, index, k, exclude_self=True)
        return [rid for rid, _ in ranked], "ltsim"
    rng = random.Random(f"{cfg.seed}:{run_id}")
    ids = list(index.ids)
    picked = rng.sample(ids, min(k, len(ids)))
    return picked, f"random(seed={cfg.seed})"


def _draw(gateway: Gateway, bundle: PromptBundle, n: int, temperature: float,
          vocabulary: Sequence[str], canvas: Canvas, layout_id: Callable[[int], str]
          ) -> list[tuple[int, str, Layout | ExtractionFailure]]:
    """Draw n responses to ``bundle`` and extract a layout from each; when
    none parses, draw n fresh ones, candidate indices n to 2n-1. Returns
    (candidate index, response, extraction) in index order. ``canvas`` is
    the extraction's fallback canvas; ``layout_id(i)`` names candidate i."""
    draws = []
    for first_index in (0, n):
        texts = gateway.complete(bundle, n=n, temperature=temperature,
                                 first_index=first_index)
        draws += [(idx, text, extract_layout(text, vocabulary, fallback_canvas=canvas,
                                             layout_id=layout_id(idx)))
                  for idx, text in enumerate(texts, start=first_index)]
        if not all(isinstance(extracted, ExtractionFailure) for _, _, extracted in draws):
            break
    return draws


def generate_coarse(constraint: ConstraintSpec, index: RetrievalIndex,
                    cfg: PipelineConfig, gateway: Gateway,
                    stats: AreaStats | None = None, query: Layout | None = None,
                    run_id: str = "") -> tuple[Layout, CoarseFragment]:
    """Retrieve exemplars, draw n candidates, rank, and return the best."""
    vocabulary = index.vocabulary
    query_lay = _query_layout(constraint, stats, query) if cfg.use_rag else None
    canvas = _target_canvas(constraint, query)
    exemplar_ids, source = _select_exemplars(query_lay, index, cfg.k_coarse, cfg, run_id)
    exemplars = index.entries_html([index.positions[eid] for eid in exemplar_ids], canvas)
    bundle = build_coarse_prompt(exemplars, constraint, vocabulary=vocabulary)

    records: list[CandidateRecord] = []
    viable: list[tuple[CandidateRecord, Layout]] = []
    for idx, text, extracted in _draw(gateway, bundle, cfg.n_candidates, COARSE_TEMPERATURE,
                                      vocabulary, canvas,
                                      lambda i: f"{run_id}:coarse:{i}"):
        if isinstance(extracted, ExtractionFailure):
            records.append(CandidateRecord(index=idx, raw_text=text, parsed=None,
                                           failure_reason=extracted.reason))
        else:
            records.append(CandidateRecord(index=idx, raw_text=text,
                                           parsed=layout_to_record(extracted)))
            viable.append((records[-1], extracted))
    if not viable:
        raise NoViableCandidate(f"run {run_id!r}: every coarse candidate failed extraction")

    best_pos, scores = rank_candidates([lay for _, lay in viable], constraint)
    for (record, _), score in zip(viable, scores):
        record.score = score
    chosen_record, chosen_layout = viable[best_pos]

    fragment = CoarseFragment(
        exemplar_ids=list(exemplar_ids),
        exemplar_source=source,
        template_id=(constraint.family, "coarse"),
        candidates=records,
        chosen_index=chosen_record.index,
        prompt_sha256=bundle_sha256(bundle),
    )
    return replace(chosen_layout, id=f"{run_id}:coarse"), fragment


# --- staged refinement ------------------------------------------------------

def refine_cot(coarse: Layout, constraint: ConstraintSpec, index: RetrievalIndex,
               cfg: PipelineConfig, gateway: Gateway, coarse_fragment: CoarseFragment,
               run_id: str = "") -> tuple[RefinementTrace, Layout]:
    """Sequential staged refinement with one retry per stage, then fallback.

    Exemplars (k_refine of them) are fixed once per item: the head of the
    coarse exemplar ranking, on the coarse layout's canvas. With
    ``cfg.stages`` 0 no stage runs and the coarse layout is final. Returns
    the trace and the final layout, which ``trace.final`` records.
    """
    vocabulary = index.vocabulary
    exemplar_ids = coarse_fragment.exemplar_ids[:cfg.k_refine]
    exemplars = index.entries_html([index.positions[eid] for eid in exemplar_ids],
                                   coarse.canvas)

    current = coarse
    stages: list[StageRecord] = []
    for stage in range(1, cfg.stages + 1):
        bundle = build_stage_prompt(stage, exemplars, current, constraint,
                                    vocabulary=vocabulary)
        draws = _draw(gateway, bundle, 1, STAGE_TEMPERATURE, vocabulary, current.canvas,
                      lambda i: f"{run_id}:stage{stage}")
        parsed_layout = draws[-1][2]  # one draw a round: only the last can parse
        fallback = isinstance(parsed_layout, ExtractionFailure)
        stages.append(StageRecord(
            stage=stage,
            template_id=(constraint.family, str(stage)),
            exemplar_ids=list(exemplar_ids),
            prompt_sha256=bundle_sha256(bundle),
            raw_responses=[text for _, text, _ in draws],
            parsed=None if fallback else layout_to_record(parsed_layout),
            fallback=fallback,
        ))
        if not fallback:
            current = parsed_layout

    final = replace(current, id=run_id or coarse.id)
    trace = RefinementTrace(
        run_id=run_id,
        constraint_kind=constraint.kind,
        constraint_digest=constraint_digest(constraint),
        coarse=coarse_fragment,
        stages=stages,
        final=layout_to_record(final),
        config={
            "k_coarse": cfg.k_coarse,
            "k_refine": cfg.k_refine,
            "n_candidates": cfg.n_candidates,
            "stages": cfg.stages,
            "use_rag": cfg.use_rag,
            "use_cot": cfg.stages > 0,
            "seed": cfg.seed,
        },
    )
    return trace, final


# --- full task runs ---------------------------------------------------------

def constraint_from_record(layout: Layout, record: Mapping[str, Any],
                           task_family: str) -> ConstraintSpec:
    """The constraint of a run item: ``layout`` is its record as
    ``record_to_layout`` read it, which also typed ``constraints`` and ``text``.

    An explicit ``constraints`` object wins; otherwise content-aware items
    fall back to their own element categories, and text items to their text.
    """
    raw = record.get("constraints") or {}
    if "kind" in raw:
        return ConstraintSpec(kind=str(raw["kind"]), payload=raw.get("payload", {}))
    canvas = [layout.canvas.width, layout.canvas.height]
    if task_family == "content_aware":
        if "categories" not in raw and not layout.elements:
            raise ConfigError(f"record {layout.id!r} has no categories and no elements")
        categories = raw["categories"] if "categories" in raw else label_counts(layout)
        return ConstraintSpec(kind="content_aware",
                              payload={"canvas": canvas, "categories": categories})
    if task_family == "text_to_layout":
        payload = {"text": record.get("text") or "", "canvas": canvas}
        if "categories" in raw:
            payload["categories"] = raw["categories"]
        return ConstraintSpec(kind="text_to_layout", payload=payload)
    # Constraint-explicit without an explicit spec: treat the record's own
    # label multiset as a Gen-T style type constraint.
    counts = label_counts(layout)
    if not counts:
        raise ConfigError(f"record {layout.id!r} yields no type constraint")
    return ConstraintSpec(kind="gen_t", payload={"categories": counts})


# Each top-level run-config key that is no PipelineConfig field, with a
# value of its JSON type (see _SCALARS).
_RUN_KEYS = {"run_dir": "", "base_dir": "", "task_family": "", "index": "", "stats": None,
             "dataset": {}, "items": [], "backend": {}}


@dataclass(frozen=True)
class _DatasetSpec:
    """A run's ``dataset`` object: the records file, and the split to run,
    every record when null."""
    records: str = ""
    split: str | None = None


def _load_run_config(source: str | Path | Mapping[str, Any]) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    path = Path(source)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read run config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"run config {path} is a JSON {type(data).__name__}, not an object")
    return data


# What a run-config field accepts, by the type of its default. An accepted
# value is converted to that type, so an integer becomes a float. A field
# whose default is None holds an optional path or key.
_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("an object", lambda v: isinstance(v, Mapping)),
}


def _read_value(label: str, default, raw):
    """``raw`` converted to the type of ``default``, or ConfigError naming
    ``label`` when its JSON type is not that of ``default`` (see _SCALARS)."""
    kind, accepts = _SCALARS[type(default)]
    if not accepts(raw):
        raise ConfigError(f"{label} must be {kind}, got {raw!r}")
    return raw if default is None else type(default)(raw)


def _read_config(cls, value: Mapping, name: str | None = None, other_keys=frozenset()):
    """``cls`` built from a run-config object: the top level when ``name`` is
    None, else its ``name`` object. ConfigError names the keys that are
    neither ``cls`` fields nor ``other_keys``, or the first value whose JSON
    type differs from its field's: no quoted booleans or numbers, and no
    float where an integer belongs."""
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(str(key) for key in value if key not in defaults and key not in other_keys)
    if unknown:
        raise ConfigError(f"unknown {name or 'run config'} keys: {', '.join(unknown)}")
    return cls(**{key: _read_value(f"{name}.{key}" if name else key, defaults[key], raw)
                  for key, raw in value.items() if key in defaults})


def _read_input(kind: str, path: Path, load):
    """``load(path)``, or ConfigError naming the file when it cannot be read
    or does not hold what a run needs."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, SchemaError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc


def _trace_name(item_id: str) -> str:
    """``{item_id}.json``, or SchemaError when the id cannot name a file
    inside the traces directory: empty, not printable, holding a path
    separator, or longer than a file name may be."""
    name = f"{item_id}.json"
    if not item_id or not item_id.isprintable() or "/" in item_id or "\\" in item_id \
            or len(name.encode("utf-8")) > 255:
        raise SchemaError(f"item id {item_id!r} cannot name a trace file")
    return name


def record_rasters(record: Mapping[str, Any], base: Path) -> list[SaliencyRaster | None]:
    """The saliency and gradient rasters of a record ``record_to_layout`` has
    checked, each read relative to ``base``; None where the record names none."""
    return [load_raster(base / record[key]) if record.get(key) else None
            for key in ("saliency", "gradient")]


class _ItemOutcome(NamedTuple):
    payload: dict                # the item's generated.jsonl record
    final: Layout | None         # None when the item failed
    samples: dict[str, float]    # the final layout's metric samples
    error: Exception | None      # why the item failed
    coarse_retried: bool = False           # the first coarse fan-out had no viable draft
    fallback_stages: tuple[int, ...] = ()  # stages that kept the previous layout


def _run_item(record: Mapping[str, Any], *, task_family: str, index: RetrievalIndex,
              cfg: PipelineConfig, gateway: Gateway, stats: AreaStats | None,
              base: Path, traces_dir: Path,
              exclude_overlap_labels: Sequence[str]) -> _ItemOutcome:
    """Read one item and its rasters, which fails it before any LLM request
    if either cannot be read, generate it, score it, and write its trace.

    Any exception but KeyboardInterrupt becomes the item's error payload,
    written in place of its trace, so one item never aborts the run.
    """
    item_id = str(record.get("id", ""))
    trace_path = None
    try:
        trace_path = traces_dir / _trace_name(item_id)
        item_layout = record_to_layout(record)
        constraint = constraint_from_record(item_layout, record, task_family)
        rasters = record_rasters(record, base)
        coarse, fragment = generate_coarse(constraint, index, cfg, gateway, stats=stats,
                                           query=item_layout, run_id=item_id)
        trace, final = refine_cot(coarse, constraint, index, cfg, gateway,
                                  coarse_fragment=fragment, run_id=item_id)
        samples = layout_samples(final, item_layout, *rasters, exclude_overlap_labels)
        trace_path.write_text(trace.to_json() + "\n", encoding="utf-8")
        return _ItemOutcome(payload=trace.final, final=final, samples=samples, error=None,
                            coarse_retried=len(fragment.candidates) > cfg.n_candidates,
                            fallback_stages=tuple(s.stage for s in trace.stages if s.fallback))
    except Exception as exc:
        error_payload = {"id": item_id, "error": type(exc).__name__, "message": str(exc)}
        if trace_path is not None:
            trace_path.write_text(_OUTPUT_JSON.encode(error_payload) + "\n", encoding="utf-8")
        return _ItemOutcome(error_payload, None, {}, exc)


def run_task(config: str | Path | Mapping[str, Any], transport=None) -> Path:
    """Execute a full generation run and return the run directory.

    The directory receives ``traces/{id}.json``, ``generated.jsonl``,
    ``metrics.tsv``, and ``run.log``. Per-item failures, an id that cannot
    name a trace file among them, are recorded and do not abort the run;
    duplicate item ids are rejected before any item runs. In live and record
    mode up to ``backend.fanout`` items run at once; replay runs one at a
    time. Every output is in record order either way.
    """
    data = _load_run_config(config)
    cfg = _read_config(PipelineConfig, data, other_keys=_RUN_KEYS)
    for key in ("run_dir", "task_family", "index", "backend"):
        if key not in data:
            raise ConfigError(f"run config is missing {key!r}")
    run = {key: _read_value(key, _RUN_KEYS[key], raw) for key, raw in data.items()
           if key in _RUN_KEYS}
    task_family = run["task_family"]
    if task_family not in TASK_KINDS:
        raise ConfigError(f"unknown task family {task_family!r}")
    if ("items" in run) == ("dataset" in run):
        raise ConfigError("run config needs exactly one of items and dataset")
    if "dataset" in run:
        spec = _read_config(_DatasetSpec, run["dataset"], "dataset")
        if not spec.records:
            raise ConfigError("dataset needs a records path")

    base = Path(run.get("base_dir", "."))
    run_dir = Path(run["run_dir"])
    traces_dir = run_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    log_handler = logging.FileHandler(run_dir / "run.log", mode="w", encoding="utf-8")
    log_handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    # Not from getLogger, whose registry keeps every logger and shares one by name.
    run_logger = logging.Logger(f"layoutloom.run.{run_dir.name}", logging.INFO)
    run_logger.addHandler(log_handler)

    try:
        index = _read_input("index", base / run["index"], load_index)
        backend = _read_config(BackendConfig, run["backend"], "backend")
        gateway = Gateway(backend, transport)
        stats = None
        if run.get("stats"):
            stats = _read_input("stats", base / run["stats"], load_area_stats)

        if "items" in run:
            records = run["items"]
            for i, record in enumerate(records):
                if not isinstance(record, Mapping):
                    raise SchemaError(f"items[{i}] must be an object, "
                                      f"got {type(record).__name__}")
        else:
            # A record whose split is not a string is kept, to fail as its item.
            records = _read_input("records", base / spec.records, lambda path: [
                r for r in read_jsonl(path) if not spec.split or r.get("split") == spec.split
                or not isinstance(r.get("split"), (str, type(None)))
            ])
        repeated = sorted(i for i, n in Counter(str(r.get("id", "")) for r in records).items()
                          if n > 1)
        if repeated:
            raise SchemaError(f"duplicate item ids: {', '.join(map(repr, repeated))}")
        run_logger.info("run starts: %d items, family=%s, mode=%s",
                        len(records), task_family, backend.mode)

        finals: list[Layout] = []
        samples: list[dict[str, float]] = []
        failures = 0

        columns, exclude = family_metrics(task_family)
        run_item = partial(_run_item, task_family=task_family, index=index, cfg=cfg,
                           gateway=gateway, stats=stats, base=base, traces_dir=traces_dir,
                           exclude_overlap_labels=exclude)
        # Live and record items wait on the LLM almost all the time, so up to
        # `fanout` of them run at once; each gateway call fans out over at most
        # `fanout` threads of its own, so at most fanout**2 requests are in
        # flight. Replay items are CPU-bound and hold the GIL: one at a time,
        # on this thread.
        workers = 1 if backend.mode == "replay" else backend.fanout
        with ThreadPoolExecutor(max_workers=workers) as pool, ExitStack() as files:
            # Both maps yield in record order, so every output keeps that order.
            # Each line is on disk once its item and all before it finished; the
            # file is opened at the first, so a run that finished none has none.
            generated = None
            for outcome in (pool.map if workers > 1 else map)(run_item, records):
                if generated is None:
                    generated = files.enter_context(open(
                        run_dir / "generated.jsonl", "w", encoding="utf-8", buffering=1))
                generated.write(_OUTPUT_JSON.encode(outcome.payload) + "\n")
                item_id = outcome.payload["id"]
                error = outcome.error
                if error is not None:
                    failures += 1
                    # A domain error's or an unreadable file's message says what
                    # went wrong; any other error also gets its traceback.
                    run_logger.error("item %s: %s: %s", item_id, type(error).__name__, error,
                                     exc_info=None if isinstance(error, (LayoutLoomError, OSError))
                                     else error)
                    continue
                finals.append(outcome.final)
                samples.append(outcome.samples)
                notes = [f"{len(outcome.final.elements)} elements"]
                if outcome.coarse_retried:
                    notes.append("coarse drafts retried")
                if outcome.fallback_stages:
                    notes.append(f"stage {', '.join(map(str, outcome.fallback_stages))} "
                                 f"kept the previous layout")
                run_logger.info("item %s: ok (%s)", item_id, "; ".join(notes))

        if generated is None:
            (run_dir / "generated.jsonl").write_text("", encoding="utf-8")

        report = population_report(finals, samples, stats=stats)
        write_metrics_tsv(report, columns, run_dir / "metrics.tsv")
        run_logger.info("run ends: %d ok, %d failed", len(finals), failures)
    finally:
        log_handler.close()
    return run_dir

