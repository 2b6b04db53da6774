"""Deterministic prompt construction for coarse generation and staged refinement.

Templates live as text assets under ``templates/{family}/{stage}.sys.txt``
and ``.usr.txt`` with ``{{NAME}}`` placeholders. Rendering is pure: equal
inputs produce byte-identical bundles, and any placeholder left unresolved
raises instead of leaking into a prompt. Exemplars are serialized in the
order given, which callers keep equal to retrieval rank order.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

from .dataset import TASK_KINDS, record_to_layout
from .errors import (
    EmptyExemplars,
    InvalidPayload,
    UnboundPlaceholder,
    UnknownTemplate,
)
from .model import Layout, to_html

STAGE_NAMES = ("coarse", "1", "2", "3")

CONSTRAINT_KINDS = (
    "gen_t",
    "gen_ts",
    "gen_r",
    "completion",
    "refinement",
    "content_aware",
    "text_to_layout",
)

KIND_TO_FAMILY = {
    "gen_t": "constraint_explicit",
    "gen_ts": "constraint_explicit",
    "gen_r": "constraint_explicit",
    "completion": "constraint_explicit",
    "refinement": "constraint_explicit",
    "content_aware": "content_aware",
    "text_to_layout": "text_to_layout",
}

RELATIONS = ("above", "below", "left-of", "right-of", "larger", "smaller", "equal")

# How each constraint kind locks elements during staged refinement.
LOCK_RULES = {
    "gen_t": "Every listed element type must appear with exactly the requested count.",
    "gen_ts": "Honor the requested width and height of each element; do not deviate by more than 10 percent.",
    "gen_r": "Honor every stated spatial and size relation between elements.",
    "completion": "The provided partial elements are fixed. Do not move, resize, or relabel them.",
    "refinement": "Keep the element set unchanged. Only correct positions and sizes.",
    "content_aware": "",
    "text_to_layout": "",
}

_PLACEHOLDER_RE = re.compile(r"\{\{([A-Z0-9_]+)\}\}")


# --- constraints ------------------------------------------------------------

def _require(payload: Mapping[str, Any], key: str, kind: str) -> Any:
    if key not in payload:
        raise InvalidPayload(f"{kind} constraint requires payload key {key!r}")
    return payload[key]


def _check_categories(value: Any, kind: str) -> None:
    if not isinstance(value, Mapping) or not value:
        raise InvalidPayload(f"{kind} categories must be a non-empty mapping")
    for label, count in value.items():
        if not isinstance(label, str) or int(count) < 1:
            raise InvalidPayload(f"{kind} category counts must be positive, got {label}={count}")


def _check_layout_payload(value: Any, kind: str) -> None:
    if not isinstance(value, Mapping) or "canvas" not in value or "elements" not in value:
        raise InvalidPayload(f"{kind} constraint needs a layout record with canvas and elements")


@dataclass(frozen=True)
class ConstraintSpec:
    """Typed user constraint; payload shape is checked against the kind."""

    kind: str
    payload: Mapping[str, Any]

    def __post_init__(self):
        kind, payload = self.kind, self.payload
        if kind not in CONSTRAINT_KINDS:
            raise InvalidPayload(f"unknown constraint kind {kind!r}")
        if kind == "gen_t":
            _check_categories(_require(payload, "categories", kind), kind)
        elif kind == "gen_ts":
            elements = _require(payload, "elements", kind)
            if not isinstance(elements, Sequence) or not elements:
                raise InvalidPayload("gen_ts needs a non-empty element list")
            for item in elements:
                if not all(k in item for k in ("label", "width", "height")):
                    raise InvalidPayload("gen_ts elements need label, width, height")
        elif kind == "gen_r":
            elements = _require(payload, "elements", kind)
            if not isinstance(elements, Sequence) or not elements:
                raise InvalidPayload("gen_r needs a non-empty element label list")
            for triple in payload.get("relations", []):
                si, rel, oi = triple
                if rel not in RELATIONS:
                    raise InvalidPayload(f"unknown relation {rel!r}")
                if not (0 <= int(si) < len(elements) and 0 <= int(oi) < len(elements)):
                    raise InvalidPayload(f"relation {triple!r} references a missing element")
        elif kind in ("completion", "refinement"):
            _check_layout_payload(_require(payload, "layout", kind), kind)
        elif kind == "content_aware":
            canvas = _require(payload, "canvas", kind)
            if len(canvas) != 2 or int(canvas[0]) <= 0 or int(canvas[1]) <= 0:
                raise InvalidPayload("content_aware canvas must be [width, height] > 0")
            _check_categories(_require(payload, "categories", kind), kind)
        elif kind == "text_to_layout":
            text = _require(payload, "text", kind)
            if not isinstance(text, str) or not text.strip():
                raise InvalidPayload("text_to_layout needs a non-empty description")

    @property
    def family(self) -> str:
        return KIND_TO_FAMILY[self.kind]

    def categories(self) -> dict[str, int]:
        """Required category counts, derived for kinds that imply them.

        Counts come in label order, so the order of a payload's keys or
        elements never changes a prompt, a digest or a retrieval query.
        """
        payload = self.payload
        if self.kind in ("gen_t", "content_aware", "text_to_layout"):
            counts = {str(k): int(v) for k, v in (payload.get("categories") or {}).items()}
        elif self.kind == "gen_ts":
            counts = Counter(item["label"] for item in payload["elements"])
        elif self.kind == "gen_r":
            counts = Counter(payload["elements"])
        else:
            return {}
        return dict(sorted(counts.items()))


def _layout_from_payload(payload_layout: Mapping[str, Any]) -> Layout:
    record = dict(payload_layout)
    record.setdefault("id", "")
    return record_to_layout(record)


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
                lines.append(
                    f"relation {idx}: element {int(si) + 1} ({labels[int(si)]}) {rel} "
                    f"element {int(oi) + 1} ({labels[int(oi)]})"
                )
    elif kind == "completion":
        snippet = to_html(_layout_from_payload(payload["layout"]))
        lines.append("fixed partial layout (keep these elements unchanged):")
        lines.append(snippet)
    elif kind == "refinement":
        snippet = to_html(_layout_from_payload(payload["layout"]))
        lines.append("noisy layout to refine:")
        lines.append(snippet)
    elif kind == "content_aware":
        w, h = payload["canvas"]
        lines.append(f"canvas size: {int(w)} x {int(h)} pixels")
        lines.append("required element types:")
        for label, count in constraint.categories().items():
            lines.append(f"{label}: {count}")
    elif kind == "text_to_layout":
        canvas = payload.get("canvas")
        if canvas:
            lines.append(f"canvas size: {int(canvas[0])} x {int(canvas[1])} pixels")
        lines.append("layout description:")
        lines.append(payload["text"])
    return "\n".join(lines)


def constraint_digest(constraint: ConstraintSpec) -> str:
    """Stable hash of (kind, canonical rendering); keys replay transcripts."""
    body = json.dumps([constraint.kind, render_constraint(constraint)],
                      ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# --- template catalog -------------------------------------------------------

@dataclass(frozen=True)
class PromptTemplate:
    family: str
    stage: str
    system_text: str
    user_text: str


class TemplateCatalog:
    """Immutable lookup of (family, stage) -> PromptTemplate."""

    def __init__(self, templates: Mapping[tuple[str, str], PromptTemplate]):
        self._templates = dict(templates)

    def get(self, family: str, stage: str) -> PromptTemplate:
        key = (family, str(stage))
        if key not in self._templates:
            raise UnknownTemplate(f"no template for family={family!r} stage={stage!r}")
        return self._templates[key]

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._templates)

    @classmethod
    def load(cls, root: str | Path | None = None) -> "TemplateCatalog":
        if root is None:
            root = Path(str(resources.files("layoutloom"))) / "templates"
        root = Path(root)
        templates = {}
        for family in TASK_KINDS:
            for stage in STAGE_NAMES:
                sys_path = root / family / f"{stage}.sys.txt"
                usr_path = root / family / f"{stage}.usr.txt"
                if not sys_path.exists() or not usr_path.exists():
                    raise UnknownTemplate(f"missing template assets for {family}/{stage}")
                templates[(family, stage)] = PromptTemplate(
                    family=family,
                    stage=stage,
                    system_text=sys_path.read_text(encoding="utf-8").rstrip("\n"),
                    user_text=usr_path.read_text(encoding="utf-8").rstrip("\n"),
                )
        return cls(templates)


_default_catalog: TemplateCatalog | None = None


def default_catalog() -> TemplateCatalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = TemplateCatalog.load()
    return _default_catalog


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
class Provenance:
    template_id: tuple[str, str]
    exemplar_ids: tuple[str, ...]
    constraint_digest: str


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str
    provenance: Provenance


def exemplar_block(exemplars: Sequence[Layout]) -> str:
    return "\n\n".join(to_html(layout) for layout in exemplars)


def _vocabulary_text(vocabulary: Sequence[str] | None,
                     exemplars: Sequence[Layout],
                     constraint: ConstraintSpec) -> tuple[str, list[str]]:
    if vocabulary is None:
        ordered: list[str] = []
        for label in list(constraint.categories()) + [
            e.label for lay in exemplars for e in lay.elements
        ]:
            if label not in ordered:
                ordered.append(label)
    else:
        ordered = list(vocabulary)
    text = ", ".join(f"{i + 1}) {label}" for i, label in enumerate(ordered))
    return text or "(unspecified)", ordered


def _common_bindings(exemplars: Sequence[Layout], constraint: ConstraintSpec,
                     vocabulary: Sequence[str] | None) -> dict[str, str]:
    vocab_text, ordered = _vocabulary_text(vocabulary, exemplars, constraint)
    primary = ordered[:2]
    secondary = ordered[2:]
    bindings = {
        "LEN_TOPK": str(len(exemplars)),
        "TOPK_HTML_STR": exemplar_block(exemplars),
        "CONSTRAINT_STR": render_constraint(constraint),
        "VOCABULARY": vocab_text,
        "PRIMARY_TYPES": ", ".join(primary) or "(none)",
        "SECONDARY_TYPES": ", ".join(secondary) or "(none)",
        "LOCK_RULES": LOCK_RULES[constraint.kind],
    }
    text = constraint.payload.get("text")
    if isinstance(text, str):
        bindings["TEXT_DESCRIPTION"] = text
    return bindings


def build_coarse_prompt(exemplars: Sequence[Layout], constraint: ConstraintSpec,
                        vocabulary: Sequence[str] | None = None,
                        catalog: TemplateCatalog | None = None) -> PromptBundle:
    """Render the coarse-generation prompt from ranked exemplars and a constraint."""
    if not exemplars:
        raise EmptyExemplars("coarse prompt needs at least one exemplar")
    catalog = catalog or default_catalog()
    template = catalog.get(constraint.family, "coarse")
    bindings = _common_bindings(exemplars, constraint, vocabulary)
    return PromptBundle(
        system=_render_text(template.system_text, bindings),
        user=_render_text(template.user_text, bindings),
        provenance=Provenance(
            template_id=(template.family, template.stage),
            exemplar_ids=tuple(lay.id for lay in exemplars),
            constraint_digest=constraint_digest(constraint),
        ),
    )


def build_stage_prompt(stage: int, task_family: str, exemplars: Sequence[Layout],
                       current: Layout, constraint: ConstraintSpec,
                       vocabulary: Sequence[str] | None = None,
                       catalog: TemplateCatalog | None = None) -> PromptBundle:
    """Render the refinement prompt for stage 1, 2, or 3.

    Stage 1 binds the working layout to {{CURRENT_HTML}}; later stages bind
    it to {{STAGE_{t-1}_HTML}} so the template can name its predecessor.
    """
    if stage not in (1, 2, 3):
        raise UnknownTemplate(f"stage must be 1, 2, or 3, got {stage}")
    if task_family not in TASK_KINDS:
        raise UnknownTemplate(f"unknown task family {task_family!r}")
    if not exemplars:
        raise EmptyExemplars("stage prompt needs at least one exemplar")
    catalog = catalog or default_catalog()
    template = catalog.get(task_family, str(stage))
    bindings = _common_bindings(exemplars, constraint, vocabulary)
    current_html = to_html(current)
    if stage == 1:
        bindings["CURRENT_HTML"] = current_html
    else:
        bindings[f"STAGE_{stage - 1}_HTML"] = current_html
    return PromptBundle(
        system=_render_text(template.system_text, bindings),
        user=_render_text(template.user_text, bindings),
        provenance=Provenance(
            template_id=(template.family, template.stage),
            exemplar_ids=tuple(lay.id for lay in exemplars),
            constraint_digest=constraint_digest(constraint),
        ),
    )
