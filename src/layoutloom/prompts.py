"""Deterministic prompt construction for coarse generation and staged refinement.

Templates live as text assets under ``templates/{family}/{stage}.sys.txt``
and ``.usr.txt`` with ``{{NAME}}`` placeholders. Rendering is pure: equal
inputs produce byte-identical bundles, and any placeholder left unresolved
raises instead of leaking into a prompt. Exemplars come as snippets and are
joined in the order given, which callers keep equal to retrieval rank order.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Any, Mapping, Sequence

from .dataset import TASK_KINDS, record_to_layout
from .errors import (
    EmptyExemplars,
    InvalidPayload,
    LayoutLoomError,
    UnboundPlaceholder,
    UnknownTemplate,
)
from .model import MAX_PIXEL, HtmlSnippet, Layout, to_html

STAGE_NAMES = ("coarse", "1", "2", "3")

RELATIONS = ("above", "below", "left-of", "right-of", "larger", "smaller", "equal")

# Each constraint kind's template family, and how it locks elements during
# staged refinement.
CONSTRAINT_KINDS = {
    "gen_t": ("constraint_explicit",
              "Every listed element type must appear with exactly the requested count."),
    "gen_ts": ("constraint_explicit",
               "Honor the requested width and height of each element; "
               "do not deviate by more than 10 percent."),
    "gen_r": ("constraint_explicit",
              "Honor every stated spatial and size relation between elements."),
    "completion": ("constraint_explicit",
                   "The provided partial elements are fixed. "
                   "Do not move, resize, or relabel them."),
    "refinement": ("constraint_explicit",
                   "Keep the element set unchanged. Only correct positions and sizes."),
    "content_aware": ("content_aware", ""),
    "text_to_layout": ("text_to_layout", ""),
}

_PLACEHOLDER_RE = re.compile(r"\{\{([A-Z0-9_]+)\}\}")


# --- constraints ------------------------------------------------------------

def _require(payload: Mapping[str, Any], key: str, kind: str) -> Any:
    if key not in payload:
        raise InvalidPayload(f"{kind} constraint requires payload key {key!r}")
    return payload[key]


def _is_list(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_size(value: Any) -> bool:
    """A positive number of at most ``MAX_PIXEL``; NaN and inf are neither."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and 0 < value <= MAX_PIXEL


def _check_categories(value: Any, kind: str) -> None:
    if not isinstance(value, Mapping) or not value:
        raise InvalidPayload(f"{kind} categories must be a non-empty mapping")
    for label, count in value.items():
        if not isinstance(label, str) or not _is_int(count) or count < 1:
            raise InvalidPayload(f"{kind} category counts must be positive integers, "
                                 f"got {label!r}={count!r}")


def _check_canvas(value: Any, kind: str) -> None:
    if not (_is_list(value) and len(value) == 2
            and all(_is_int(v) and 0 < v <= MAX_PIXEL for v in value)):
        raise InvalidPayload(f"{kind} canvas must be [width, height], each in 1..{MAX_PIXEL:.0f}, "
                             f"got {value!r}")


def _given_layout(value: Any, kind: str) -> Layout:
    if not isinstance(value, Mapping) or "canvas" not in value \
            or not _is_list(value.get("elements")):
        raise InvalidPayload(f"{kind} constraint needs a layout record with canvas and elements")
    try:
        return record_to_layout(dict(value, id=""))
    except LayoutLoomError as exc:
        raise InvalidPayload(f"{kind} layout: {exc}") from exc


@dataclass(frozen=True)
class ConstraintSpec:
    """Typed user constraint; every payload value a reader uses is checked
    against the kind, and anything else raises InvalidPayload.

    ``given_layout`` is the pixel-space layout of a completion or refinement
    payload, parsed once with the id ``""``; None for the other kinds.
    """

    kind: str
    payload: Mapping[str, Any]
    given_layout: Layout | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, payload = self.kind, self.payload
        if kind not in CONSTRAINT_KINDS:
            raise InvalidPayload(f"unknown constraint kind {kind!r}")
        if not isinstance(payload, Mapping):
            raise InvalidPayload(f"{kind} payload must be an object, got {payload!r}")
        if kind == "gen_t":
            _check_categories(_require(payload, "categories", kind), kind)
        elif kind == "gen_ts":
            elements = _require(payload, "elements", kind)
            if not _is_list(elements) or not elements:
                raise InvalidPayload("gen_ts needs a non-empty element list")
            for item in elements:
                if not isinstance(item, Mapping) \
                        or not all(k in item for k in ("label", "width", "height")):
                    raise InvalidPayload("gen_ts elements need label, width, height")
                if not (isinstance(item["label"], str)
                        and _is_size(item["width"]) and _is_size(item["height"])):
                    raise InvalidPayload(f"gen_ts element {dict(item)!r} needs a string "
                                         "label and a width and height in (0, "
                                         f"{MAX_PIXEL:.0f}]")
            if payload.get("canvas"):
                _check_canvas(payload["canvas"], kind)
        elif kind == "gen_r":
            elements = _require(payload, "elements", kind)
            if not _is_list(elements) or not elements \
                    or not all(isinstance(label, str) for label in elements):
                raise InvalidPayload("gen_r needs a non-empty element label list")
            relations = payload.get("relations", [])
            if not _is_list(relations):
                raise InvalidPayload(f"gen_r relations must be a list, got {relations!r}")
            for triple in relations:
                if not _is_list(triple) or len(triple) != 3:
                    raise InvalidPayload(f"relation {triple!r} is not a "
                                         "[subject, relation, object] triple")
                si, rel, oi = triple
                if rel not in RELATIONS:
                    raise InvalidPayload(f"unknown relation {rel!r}")
                if not all(_is_int(i) and 0 <= i < len(elements) for i in (si, oi)):
                    raise InvalidPayload(f"relation {triple!r} references a missing element")
        elif kind in ("completion", "refinement"):
            object.__setattr__(self, "given_layout",
                               _given_layout(_require(payload, "layout", kind), kind))
        elif kind == "content_aware":
            _check_canvas(_require(payload, "canvas", kind), kind)
            _check_categories(_require(payload, "categories", kind), kind)
        elif kind == "text_to_layout":
            text = _require(payload, "text", kind)
            if not isinstance(text, str) or not text.strip():
                raise InvalidPayload("text_to_layout needs a non-empty description")
            if payload.get("canvas"):
                _check_canvas(payload["canvas"], kind)
            if payload.get("categories"):
                _check_categories(payload["categories"], kind)

    @property
    def family(self) -> str:
        return CONSTRAINT_KINDS[self.kind][0]

    def categories(self) -> dict[str, int]:
        """Required category counts, derived for kinds that imply them.

        Counts come in label order, so the order of a payload's keys or
        elements never changes a prompt, a digest or a retrieval query.
        """
        payload = self.payload
        if self.kind in ("gen_t", "content_aware", "text_to_layout"):
            counts = payload.get("categories") or {}
        elif self.kind == "gen_ts":
            counts = Counter(item["label"] for item in payload["elements"])
        elif self.kind == "gen_r":
            counts = Counter(payload["elements"])
        else:
            return {}
        return dict(sorted(counts.items()))


def render_constraint(constraint: ConstraintSpec) -> str:
    """Canonical textual form of a constraint, used in prompts and digests."""
    kind = constraint.kind
    payload = constraint.payload
    lines: list[str] = []
    if kind in ("gen_t", "gen_r", "gen_ts"):
        counts = constraint.categories()
        for label, count in counts.items():
            lines.append(f"{label}: {count}")
        lines.append(f"total elements: {sum(counts.values())}")
        if kind == "gen_ts":
            seen: dict[str, int] = {}
            for item in payload["elements"]:
                label = item["label"]
                seen[label] = seen.get(label, 0) + 1
                lines.append(f"size of {label} {seen[label]}: {item['width']} x {item['height']}")
        if kind == "gen_r":
            labels = list(payload["elements"])
            for idx, (si, rel, oi) in enumerate(payload.get("relations", []), start=1):
                lines.append(f"relation {idx}: element {si + 1} ({labels[si]}) {rel} "
                             f"element {oi + 1} ({labels[oi]})")
    elif kind == "completion":
        lines.append("fixed partial layout (keep these elements unchanged):")
        lines.append(to_html(constraint.given_layout))
    elif kind == "refinement":
        lines.append("noisy layout to refine:")
        lines.append(to_html(constraint.given_layout))
    elif kind == "content_aware":
        w, h = payload["canvas"]
        lines.append(f"canvas size: {w} x {h} pixels")
        lines.append("required element types:")
        for label, count in constraint.categories().items():
            lines.append(f"{label}: {count}")
    elif kind == "text_to_layout":
        canvas = payload.get("canvas")
        if canvas:
            lines.append(f"canvas size: {canvas[0]} x {canvas[1]} pixels")
        lines.append("layout description:")
        lines.append(payload["text"])
    return "\n".join(lines)


def constraint_digest(constraint: ConstraintSpec) -> str:
    """Stable hash of (kind, canonical rendering), which each trace records.
    Transcript keys hash the request record instead (see
    ``gateway.transcript_key``)."""
    body = json.dumps([constraint.kind, render_constraint(constraint)],
                      ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# --- templates --------------------------------------------------------------

@lru_cache(maxsize=None)
def load_template(family: str, stage: str) -> tuple[str, str]:
    """The (system, user) texts of one template, read once from the package's
    ``templates/{family}/{stage}.sys.txt`` and ``.usr.txt`` assets."""
    if family not in TASK_KINDS or stage not in STAGE_NAMES:
        raise UnknownTemplate(f"no template for family={family!r} stage={stage!r}")
    folder = resources.files("layoutloom") / "templates" / family
    try:
        return tuple((folder / f"{stage}.{part}.txt").read_text(encoding="utf-8").rstrip("\n")
                     for part in ("sys", "usr"))
    except OSError as exc:
        raise UnknownTemplate(f"missing template assets for {family}/{stage}") from exc


def _render_text(text: str, bindings: Mapping[str, str]) -> str:
    rendered = _PLACEHOLDER_RE.sub(
        lambda m: bindings.get(m.group(1), m.group(0)), text
    )
    leftover = _PLACEHOLDER_RE.findall(rendered)
    if leftover:
        raise UnboundPlaceholder(f"unresolved placeholders: {sorted(set(leftover))}")
    return rendered


# --- bundles ----------------------------------------------------------------

@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


def _bundle(family: str, stage: str, exemplars: Sequence[HtmlSnippet],
            constraint: ConstraintSpec, vocabulary: Sequence[str],
            **bindings: str) -> PromptBundle:
    """Render the (family, stage) template with the bindings every prompt
    shares plus ``bindings``."""
    system, user = load_template(family, stage)
    if not exemplars:
        raise EmptyExemplars(f"{family}/{stage} prompt needs at least one exemplar")
    ordered = list(vocabulary)
    bindings.update({
        "LEN_TOPK": str(len(exemplars)),
        "TOPK_HTML_STR": "\n\n".join(exemplars),
        "CONSTRAINT_STR": render_constraint(constraint),
        "VOCABULARY": ", ".join(f"{i + 1}) {label}" for i, label in enumerate(ordered))
                      or "(unspecified)",
        "PRIMARY_TYPES": ", ".join(ordered[:2]) or "(none)",
        "SECONDARY_TYPES": ", ".join(ordered[2:]) or "(none)",
        "LOCK_RULES": CONSTRAINT_KINDS[constraint.kind][1],
    })
    text = constraint.payload.get("text")
    if isinstance(text, str):
        bindings["TEXT_DESCRIPTION"] = text
    return PromptBundle(system=_render_text(system, bindings),
                        user=_render_text(user, bindings))


def build_coarse_prompt(exemplars: Sequence[HtmlSnippet], constraint: ConstraintSpec,
                        vocabulary: Sequence[str]) -> PromptBundle:
    """Render the coarse-generation prompt from ranked exemplars, each in the
    snippet grammar, and a constraint."""
    return _bundle(constraint.family, "coarse", exemplars, constraint, vocabulary)


def build_stage_prompt(stage: int, exemplars: Sequence[HtmlSnippet], current: Layout,
                       constraint: ConstraintSpec, vocabulary: Sequence[str]) -> PromptBundle:
    """Render the constraint family's refinement prompt for stage 1, 2, or 3,
    from exemplars in the snippet grammar.

    Stage 1 binds the working layout to {{CURRENT_HTML}}; later stages bind
    it to {{STAGE_{t-1}_HTML}} so the template can name its predecessor.
    """
    if stage not in (1, 2, 3):
        raise UnknownTemplate(f"stage must be 1, 2, or 3, got {stage}")
    name = "CURRENT_HTML" if stage == 1 else f"STAGE_{stage - 1}_HTML"
    return _bundle(constraint.family, str(stage), exemplars, constraint, vocabulary,
                   **{name: to_html(current)})
