"""End-to-end orchestration: retrieval, coarse generation with ranking, and
three-stage refinement, with full trace persistence.

Candidate ranking scores each parseable coarse candidate as

    score = -w_align * norm(alignment) - w_overlap * norm(overlap)
            + w_constraint * satisfaction

where norm is min-max over the candidate set (a constant column contributes
0) and satisfaction is the fraction of constraint clauses the candidate
meets. The argmax is therefore invariant under positive scaling of the
weights. Refinement runs one completion per stage at temperature 0 with one
retry, then falls back to the previous stage's layout, so a run can never
lose a successfully generated coarse layout.

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
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from .dataset import (
    TASK_KINDS,
    AreaStats,
    SaliencyRaster,
    dumps_indented,
    layout_to_record,
    load_area_stats,
    load_raster,
    read_jsonl,
    record_to_layout,
)
from .errors import ConfigError, LayoutLoomError, NoViableCandidate, SchemaError
from .gateway import BackendConfig, ExtractionFailure, Gateway, extract_layout
from .metrics import (
    CONSTRAINT_COLUMNS,
    CONTENT_AWARE_COLUMNS,
    MetricReport,
    alignment,
    overlap,
    population_report,
    report_rows,
)
from .model import Canvas, Layout, denormalize, label_counts, normalize
from .prompts import (
    ConstraintSpec,
    PromptBundle,
    build_coarse_prompt,
    build_stage_prompt,
    constraint_digest,
)
from .retrieval import RetrievalIndex, load_index, pseudo_layout, topk_retrieve

logger = logging.getLogger(__name__)

DEFAULT_CANVAS = (512, 512)


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
    use_cot: bool = True
    seed: int = 0
    coarse_temperature: float = 0.7
    stage_temperature: float = 0.0
    similarity_scale: float = 1.0
    exclude_self: bool = True
    ranker: RankerWeights = field(default_factory=RankerWeights)
    default_canvas: tuple[int, int] = DEFAULT_CANVAS


# --- constraint satisfaction ------------------------------------------------

def _within_ratio(actual: float, target: float, tolerance: float) -> bool:
    if target == 0:
        return actual == 0
    return abs(actual - target) <= tolerance * abs(target)


def _relation_holds(rel: str, a, b) -> bool:
    if rel == "above":
        return a.bottom <= b.top
    if rel == "below":
        return a.top >= b.bottom
    if rel == "left-of":
        return a.right <= b.left
    if rel == "right-of":
        return a.left >= b.right
    if rel == "larger":
        return a.area > b.area
    if rel == "smaller":
        return a.area < b.area
    if rel == "equal":
        bigger = max(a.area, b.area)
        return bigger == 0 or abs(a.area - b.area) <= 0.1 * bigger
    return False


def _match_slots(candidate: Layout, labels: Sequence[str]) -> list:
    """Map the i-th constraint slot of each label to the i-th candidate element
    with that label; None when the candidate runs out."""
    pools: dict[str, list] = {}
    for e in candidate.elements:
        pools.setdefault(e.label, []).append(e.bbox)
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
    per relation triple (gen_r); one clause per locked element staying within
    1px (completion, refinement); category presence with at least the
    required count (content_aware, text_to_layout when categories are given).
    A constraint with no extractable clauses is vacuously satisfied.
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
        norm_cand = normalize(candidate)
        slots = _match_slots(norm_cand, [it["label"] for it in constraint.payload["elements"]])
        for item, box in zip(constraint.payload["elements"], slots):
            if box is None:
                clauses.append(False)
                continue
            w_ok = _within_ratio(box.width, float(item["width"]) / float(canvas[0]), 0.1)
            h_ok = _within_ratio(box.height, float(item["height"]) / float(canvas[1]), 0.1)
            clauses.append(w_ok and h_ok)

    if kind == "gen_r":
        labels = list(constraint.payload["elements"])
        slots = _match_slots(normalize(candidate), labels)
        for si, rel, oi in constraint.payload.get("relations", []):
            a, b = slots[int(si)], slots[int(oi)]
            clauses.append(a is not None and b is not None and _relation_holds(rel, a, b))

    if kind in ("completion", "refinement"):
        given = record_to_layout(dict(constraint.payload["layout"], id=""))
        fixed = [e for e in given.elements if e.locked] or (
            list(given.elements) if kind == "completion" else []
        )
        if fixed:
            cand = denormalize(candidate) if candidate.is_normalized and candidate.px_size \
                else candidate
            slots = _match_slots(cand, [e.label for e in fixed])
            for e, box in zip(fixed, slots):
                if box is None:
                    clauses.append(False)
                    continue
                clauses.append(
                    abs(box.left - e.bbox.left) <= 1.0
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
    normalized = [normalize(c) for c in candidates]
    align_norm = _minmax([alignment(c) for c in normalized])
    overlap_norm = _minmax([overlap(c) for c in normalized])
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
        return dumps_indented(self)


def _layout_record(layout: Layout) -> dict:
    record = layout_to_record(layout)
    record.pop("constraints", None)
    return record


def bundle_sha256(bundle: PromptBundle) -> str:
    body = bundle.system + "\x00" + bundle.user
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# --- coarse generation ------------------------------------------------------

def _query_layout(constraint: ConstraintSpec, stats: AreaStats | None,
                  canvas: Canvas, query: Layout | None) -> Layout | None:
    if query is not None and query.elements:
        return query
    if constraint.kind in ("completion", "refinement"):
        given = record_to_layout(dict(constraint.payload["layout"], id=""))
        if given.elements:
            return given
    categories = constraint.categories()
    if categories:
        return pseudo_layout(categories, stats, canvas)
    return None


def _target_canvas(constraint: ConstraintSpec, cfg: PipelineConfig,
                   query: Layout | None) -> Canvas:
    payload = constraint.payload
    if constraint.kind in ("content_aware", "text_to_layout") and payload.get("canvas"):
        w, h = payload["canvas"]
        return Canvas(int(w), int(h))
    if constraint.kind in ("completion", "refinement"):
        given = payload["layout"].get("canvas")
        if given:
            return Canvas(int(given["w"]), int(given["h"]))
    if query is not None and query.px_size:
        w, h = query.px_size
        return Canvas(w, h)
    return Canvas(*cfg.default_canvas)


def _select_exemplars(query: Layout | None, index: RetrievalIndex, k: int,
                      cfg: PipelineConfig, run_id: str,
                      stats: AreaStats | None) -> tuple[list[str], str]:
    if cfg.use_rag and query is not None:
        ranked = topk_retrieve(query, index, k, scale=cfg.similarity_scale,
                               exclude_self=cfg.exclude_self)
        return [rid for rid, _ in ranked], "ltsim"
    rng = random.Random(f"{cfg.seed}:{run_id}")
    ids = list(index.ids)
    picked = rng.sample(ids, min(k, len(ids)))
    return picked, f"random(seed={cfg.seed})"


def _exemplar_layouts(index: RetrievalIndex, ids: Sequence[str],
                      canvas: Canvas) -> list[Layout]:
    position = {eid: i for i, eid in enumerate(index.ids)}
    return [
        denormalize(index.entry_layout(position[eid]), canvas.width, canvas.height)
        for eid in ids
    ]


def generate_coarse(constraint: ConstraintSpec, index: RetrievalIndex,
                    cfg: PipelineConfig, gateway: Gateway,
                    stats: AreaStats | None = None, query: Layout | None = None,
                    run_id: str = "") -> tuple[Layout, CoarseFragment]:
    """Retrieve exemplars, fan out n candidates, rank, and return the best."""
    vocabulary = index.vocabulary
    query_lay = _query_layout(constraint, stats, Canvas(*cfg.default_canvas), query)
    canvas = _target_canvas(constraint, cfg, query_lay)
    exemplar_ids, source = _select_exemplars(query_lay, index, cfg.k_coarse, cfg,
                                             run_id, stats)
    exemplars = _exemplar_layouts(index, exemplar_ids, canvas)
    bundle = build_coarse_prompt(exemplars, constraint, vocabulary=vocabulary)

    def fan_out(first_index: int) -> list[CandidateRecord]:
        texts = gateway.complete(bundle, n=cfg.n_candidates,
                                 temperature=cfg.coarse_temperature,
                                 first_index=first_index)
        records = []
        for offset, text in enumerate(texts):
            idx = first_index + offset
            extracted = extract_layout(text, vocabulary, fallback_canvas=canvas,
                                       layout_id=f"{run_id}:coarse:{idx}")
            if isinstance(extracted, ExtractionFailure):
                records.append(CandidateRecord(index=idx, raw_text=text, parsed=None,
                                               failure_reason=extracted.reason))
            elif not extracted.elements:
                records.append(CandidateRecord(index=idx, raw_text=text, parsed=None,
                                               failure_reason="no elements extracted"))
            else:
                records.append(CandidateRecord(index=idx, raw_text=text,
                                               parsed=_layout_record(extracted)))
        return records

    records = fan_out(0)
    viable = [(r, record_to_layout(dict(r.parsed, id=""))) for r in records if r.parsed]
    if not viable:
        logger.warning("run %s: all coarse candidates unparseable, retrying once", run_id)
        records.extend(fan_out(cfg.n_candidates))
        viable = [(r, record_to_layout(dict(r.parsed, id=""))) for r in records if r.parsed]
    if not viable:
        raise NoViableCandidate(f"run {run_id!r}: every coarse candidate failed extraction")

    best_pos, scores = rank_candidates([lay for _, lay in viable], constraint, cfg.ranker)
    for (record, _), score in zip(viable, scores):
        record.score = score
    chosen_record, chosen_layout = viable[best_pos]

    fragment = CoarseFragment(
        exemplar_ids=list(exemplar_ids),
        exemplar_source=source,
        template_id=bundle.provenance.template_id,
        candidates=records,
        chosen_index=chosen_record.index,
        prompt_sha256=bundle_sha256(bundle),
    )
    chosen = Layout(id=f"{run_id}:coarse", canvas=chosen_layout.canvas,
                    elements=chosen_layout.elements, task_meta=dict(chosen_layout.task_meta))
    return chosen, fragment


# --- staged refinement ------------------------------------------------------

def refine_cot(coarse: Layout, constraint: ConstraintSpec, index: RetrievalIndex,
               cfg: PipelineConfig, gateway: Gateway,
               exemplar_ids: Sequence[str] | None = None,
               coarse_fragment: CoarseFragment | None = None,
               run_id: str = "") -> RefinementTrace:
    """Sequential staged refinement with one retry per stage, then fallback.

    Exemplars (k_refine of them) are fixed once per item, from the ids given
    or the head of the coarse retrieval ranking. Without CoT no stage runs
    and the coarse layout is final.
    """
    stage_count = cfg.stages if cfg.use_cot else 0
    vocabulary = index.vocabulary
    if exemplar_ids is None:
        base = coarse_fragment.exemplar_ids if coarse_fragment else []
        exemplar_ids = base[:cfg.k_refine]
    exemplars = _exemplar_layouts(index, exemplar_ids, coarse.canvas)

    current = coarse
    stages: list[StageRecord] = []
    for stage in range(1, stage_count + 1):
        bundle = build_stage_prompt(stage, constraint.family, exemplars, current,
                                    constraint, vocabulary=vocabulary)
        raw_responses = []
        parsed_layout: Layout | None = None
        for attempt in range(2):
            text = gateway.complete(bundle, n=1, temperature=cfg.stage_temperature,
                                    first_index=attempt)[0]
            raw_responses.append(text)
            extracted = extract_layout(text, vocabulary, fallback_canvas=current.canvas,
                                       layout_id=f"{run_id}:stage{stage}")
            if not isinstance(extracted, ExtractionFailure) and extracted.elements:
                parsed_layout = extracted
                break
        fallback = parsed_layout is None
        if fallback:
            logger.warning("run %s: stage %d unparseable twice, keeping previous layout",
                           run_id, stage)
            next_layout = current
        else:
            next_layout = parsed_layout
        stages.append(StageRecord(
            stage=stage,
            template_id=(constraint.family, str(stage)),
            exemplar_ids=list(exemplar_ids),
            prompt_sha256=bundle_sha256(bundle),
            raw_responses=raw_responses,
            parsed=None if fallback else _layout_record(parsed_layout),
            fallback=fallback,
        ))
        current = next_layout

    final = Layout(id=run_id or coarse.id, canvas=current.canvas,
                   elements=current.elements, task_meta=dict(current.task_meta))
    return RefinementTrace(
        run_id=run_id,
        constraint_kind=constraint.kind,
        constraint_digest=constraint_digest(constraint),
        coarse=coarse_fragment or CoarseFragment(
            exemplar_ids=list(exemplar_ids), exemplar_source="given",
            template_id=(constraint.family, "coarse"), candidates=[], chosen_index=-1,
        ),
        stages=stages,
        final=_layout_record(final),
        config={
            "k_coarse": cfg.k_coarse,
            "k_refine": cfg.k_refine,
            "n_candidates": cfg.n_candidates,
            "stages": stage_count,
            "use_rag": cfg.use_rag,
            "use_cot": stage_count > 0,
            "seed": cfg.seed,
        },
    )


# --- full task runs ---------------------------------------------------------

def constraint_from_record(record: Mapping[str, Any], task_family: str) -> ConstraintSpec:
    """Build the item constraint from an interchange record.

    An explicit ``constraints`` object wins; otherwise content-aware items
    fall back to their own element categories, and text items to their text.
    """
    raw = record.get("constraints")
    if raw and "kind" in raw:
        return ConstraintSpec(kind=str(raw["kind"]), payload=raw.get("payload", {}))
    canvas = record.get("canvas", {})
    canvas_pair = [int(canvas.get("w", 0) or 0), int(canvas.get("h", 0) or 0)]
    if task_family == "content_aware":
        payload: dict[str, Any] = {"canvas": canvas_pair}
        if raw and "categories" in raw:
            payload["categories"] = dict(raw["categories"])
        else:
            layout = record_to_layout(record)
            counts = label_counts(layout)
            if not counts:
                raise ConfigError(
                    f"record {record.get('id')!r} has no categories and no elements"
                )
            payload["categories"] = counts
        for key in ("saliency", "gradient"):
            if record.get(key):
                payload[key] = record[key]
        return ConstraintSpec(kind="content_aware", payload=payload)
    if task_family == "text_to_layout":
        payload = {"text": str(record.get("text", ""))}
        if canvas_pair[0] > 0:
            payload["canvas"] = canvas_pair
        if raw and "categories" in raw:
            payload["categories"] = dict(raw["categories"])
        return ConstraintSpec(kind="text_to_layout", payload=payload)
    # Constraint-explicit without an explicit spec: treat the record's own
    # label multiset as a Gen-T style type constraint.
    layout = record_to_layout(record)
    counts = label_counts(layout)
    if not counts:
        raise ConfigError(f"record {record.get('id')!r} yields no type constraint")
    return ConstraintSpec(kind="gen_t", payload={"categories": counts})


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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _dataclass_from(name: str, cls, value):
    """``cls(**value)`` for a run-config object, or ConfigError naming the
    keys that ``cls`` has no field for or the first value whose JSON type
    differs from its field's."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(str(key) for key in value if key not in defaults)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
    return cls(**{key: _config_value(f"{name}.{key}", defaults[key], v)
                  for key, v in value.items()})


# What a scalar run-config field accepts, by the type of its default. An
# accepted value is converted to that type, so an integer becomes a float.
# A field whose default is None holds an optional path or key.
_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def _config_value(name: str, default, value):
    if name == "ranker":
        return _dataclass_from("ranker", RankerWeights, value)
    if name == "default_canvas":
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(type(v) is int and v > 0 for v in value)):
            raise ConfigError(f"default_canvas must be two positive integers, got {value!r}")
        return tuple(value)
    kind, accepts = _SCALARS[type(default)]
    if not accepts(value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value if default is None else type(default)(value)


def _pipeline_config(data: Mapping[str, Any]) -> PipelineConfig:
    """The run config's pipeline fields. A value whose JSON type differs
    from its field's is a ConfigError: no quoted booleans or numbers, and
    no float where an integer belongs."""
    cfg = PipelineConfig(**{
        f.name: _config_value(f.name, f.default, data[f.name])
        for f in fields(PipelineConfig) if f.name in data
    })
    if cfg.stages not in (0, 1, 2, 3):
        raise ConfigError("stages must be between 0 and 3")
    return cfg


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


class _ItemOutcome(NamedTuple):
    payload: dict                # the item's generated.jsonl record
    final: Layout | None         # None when the item failed
    reference: Layout | None     # the item's own layout, when it has elements
    rasters: dict[str, SaliencyRaster]
    error: Exception | None      # why the item failed


def _run_item(record: Mapping[str, Any], *, task_family: str, index: RetrievalIndex,
              cfg: PipelineConfig, gateway: Gateway, stats: AreaStats | None,
              base: Path, traces_dir: Path) -> _ItemOutcome:
    """Generate one item, write its trace file, and load its rasters.

    Any exception but KeyboardInterrupt becomes the item's error payload,
    written in place of its trace, so one item never aborts the run.
    """
    item_id = str(record.get("id", ""))
    trace_path = None
    try:
        trace_path = traces_dir / _trace_name(item_id)
        constraint = constraint_from_record(record, task_family)
        item_layout = record_to_layout(record)
        query = item_layout if item_layout.elements else None
        coarse, fragment = generate_coarse(
            constraint, index, cfg, gateway, stats=stats, query=query, run_id=item_id,
        )
        trace = refine_cot(coarse, constraint, index, cfg, gateway,
                           coarse_fragment=fragment, run_id=item_id)
        rasters = {key: load_raster(base / record[key])
                   for key in ("saliency", "gradient") if record.get(key)}
        trace_path.write_text(trace.to_json() + "\n", encoding="utf-8")
        return _ItemOutcome(payload=trace.final, final=record_to_layout(trace.final),
                            reference=item_layout if item_layout.elements else None,
                            rasters=rasters, error=None)
    except Exception as exc:
        error_payload = {"id": item_id, "error": type(exc).__name__, "message": str(exc)}
        if trace_path is not None:
            trace_path.write_text(dumps_indented(error_payload) + "\n", encoding="utf-8")
        return _ItemOutcome(error_payload, None, None, {}, exc)


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
    for key in ("run_dir", "task_family", "index", "backend"):
        if key not in data:
            raise ConfigError(f"run config is missing {key!r}")
    task_family = data["task_family"]
    if task_family not in TASK_KINDS:
        raise ConfigError(f"unknown task family {task_family!r}")

    base = Path(data.get("base_dir", "."))
    run_dir = Path(data["run_dir"])
    traces_dir = run_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    log_handler = logging.FileHandler(run_dir / "run.log", mode="w", encoding="utf-8")
    log_handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    # Not from getLogger, whose registry keeps every logger and shares one by name.
    run_logger = logging.Logger(f"layoutloom.run.{run_dir.name}", logging.INFO)
    run_logger.addHandler(log_handler)

    try:
        index = _read_input("index", base / data["index"], load_index)
        cfg = _pipeline_config(data)
        backend = _dataclass_from("backend", BackendConfig, data["backend"])
        gateway = Gateway(backend, transport)
        stats = None
        if data.get("stats"):
            stats = _read_input("stats", base / data["stats"], load_area_stats)

        if "items" in data:
            records = list(data["items"])
        elif "dataset" in data:
            spec = data["dataset"]
            if not isinstance(spec, Mapping) or "records" not in spec:
                raise ConfigError("dataset must be an object with a records path")
            split = spec.get("split")
            records = _read_input("records", base / spec["records"], lambda path: [
                r for r in read_jsonl(path) if not split or r.get("split") == split
            ])
        else:
            raise ConfigError("run config needs either items or dataset")
        repeated = sorted(i for i, n in Counter(str(r.get("id", "")) for r in records).items()
                          if n > 1)
        if repeated:
            raise SchemaError(f"duplicate item ids: {', '.join(map(repr, repeated))}")
        run_logger.info("run starts: %d items, family=%s, mode=%s",
                        len(records), task_family, backend.mode)

        finals: list[Layout] = []
        references: dict[str, Layout] = {}
        saliency_map: dict[str, SaliencyRaster] = {}
        gradient_map: dict[str, SaliencyRaster] = {}
        generated_lines: list[str] = []
        failures = 0

        run_item = partial(_run_item, task_family=task_family, index=index, cfg=cfg,
                           gateway=gateway, stats=stats, base=base, traces_dir=traces_dir)
        # Live and record items wait on the LLM almost all the time, so up to
        # `fanout` of them run at once; each gateway call fans out over at most
        # `fanout` threads of its own, so at most fanout**2 requests are in
        # flight. Replay items are CPU-bound and hold the GIL: one at a time,
        # on this thread.
        workers = 1 if backend.mode == "replay" else backend.fanout
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Both maps yield in record order, so every output keeps that order.
            for outcome in (pool.map if workers > 1 else map)(run_item, records):
                generated_lines.append(json.dumps(outcome.payload, ensure_ascii=False,
                                                  sort_keys=True))
                item_id = outcome.payload["id"]
                error = outcome.error
                if error is not None:
                    failures += 1
                    # A domain error's message says what went wrong; any other
                    # error also gets its traceback.
                    run_logger.error("item %s: %s: %s", item_id, type(error).__name__, error,
                                     exc_info=None if isinstance(error, LayoutLoomError)
                                     else error)
                    continue
                finals.append(outcome.final)
                if outcome.reference is not None:
                    references[item_id] = outcome.reference
                for key, target in (("saliency", saliency_map), ("gradient", gradient_map)):
                    if key in outcome.rasters:
                        target[item_id] = outcome.rasters[key]
                run_logger.info("item %s: ok (%d elements)", item_id,
                                len(outcome.final.elements))

        (run_dir / "generated.jsonl").write_text(
            "".join(line + "\n" for line in generated_lines), encoding="utf-8")

        exclude = tuple(data.get("exclude_overlap_labels",
                                 ("underlay",) if task_family == "content_aware" else ()))
        report = population_report(
            finals,
            references=references or None,
            stats=stats,
            saliency=saliency_map or None,
            gradient=gradient_map or None,
            exclude_overlap_labels=exclude,
            metrics=data.get("metrics"),
        )
        columns = CONTENT_AWARE_COLUMNS if task_family == "content_aware" \
            else CONSTRAINT_COLUMNS
        write_metrics_tsv(report, columns, run_dir / "metrics.tsv")
        run_logger.info("run ends: %d ok, %d failed", len(finals), failures)
    finally:
        log_handler.close()
    return run_dir


def write_metrics_tsv(report: MetricReport, columns: Sequence[str],
                      path: str | Path) -> None:
    rows = report_rows(report, columns)
    lines = [
        "\t".join(name for name, _ in rows),
        "\t".join(value for _, value in rows),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
