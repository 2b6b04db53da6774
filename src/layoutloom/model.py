"""Canonical layout types, unit coordinates, and HTML serialization.

A Layout is an ordered set of labeled rectangles on a fixed canvas, and its
bbox fields are always in that canvas's coordinates: pixels of a W x H
canvas, or fractions of the 1x1 unit canvas. A unit-canvas layout remembers
no pixel size; :func:`denormalize` is told the canvas to scale it to.
:func:`unit_boxes` is the one conversion from a canvas to unit coordinates,
each value ``x / W``: the metrics, the ranker and retrieval read its arrays.

The HTML snippet grammar emitted by :func:`to_html` is canonical and
byte-stable:

    <html><body>
    <div class="canvas" style="width:{W}px; height:{H}px"></div>
    <div class="{label}" style="left:{x}px; top:{y}px; width:{w}px; height:{h}px"></div>
    </body></html>

One div per line, a single space after each ``;``, integer pixel coordinates
rounded half-up. :func:`parse_html` is deliberately tolerant of everything a
language model may wrap around that grammar (prose, code fences, reordered
style properties, missing wrapper tags).

Element order is significant and preserved through every operation; the
layout ``id`` is not representable in the snippet grammar, so callers that
need round-trip identity pass the id explicitly.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NegativeDimension, ParseFailure, ZeroCanvas

# The snippet grammar is plain text; an alias keeps signatures readable.
HtmlSnippet = str

# The largest magnitude of a pixel value read from a record, a response or a
# constraint: far above any real canvas, and small enough that every metric's
# sums of unit-canvas areas and anchors stay finite. A float, because box
# values are floats and a float compares with a float fastest.
MAX_PIXEL = 1e7


def round_half_up(value: float) -> int:
    """Round to the nearest integer with halves going up (2.5 -> 3, -2.5 -> -2)."""
    return math.floor(value + 0.5)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle, left-top origin, width/height extents."""

    left: float
    top: float
    width: float
    height: float

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Element:
    """One labeled rectangle."""

    label: str
    bbox: BBox


@dataclass(frozen=True)
class Canvas:
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ZeroCanvas(f"canvas dimensions must be positive, got {self.width}x{self.height}")


@dataclass(frozen=True)
class Layout:
    """Ordered labeled boxes on a canvas; the currency of every module."""

    id: str
    canvas: Canvas
    elements: tuple[Element, ...] = ()

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def is_normalized(self) -> bool:
        return self.canvas.width == 1 and self.canvas.height == 1

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.elements)


class UnitBoxes(NamedTuple):
    """Layouts' elements on the unit canvas, padded to the longest layout.

    ``ltwh`` (L, n, 4) holds each element's left, top, width and height,
    each ``x / W`` of its layout's canvas, and NaN past a layout's last
    element; ``counts`` the element counts and ``labels`` every element's
    label, layout after layout.
    """

    ltwh: np.ndarray
    counts: list[int]
    labels: tuple[str, ...]


_LTWH = operator.attrgetter("left", "top", "width", "height")
_PAD = [(math.nan,) * 4]


def unit_boxes(layouts: Sequence[Layout]) -> UnitBoxes:
    """The elements of ``layouts`` as :class:`UnitBoxes`. Dividing a unit
    layout's values by 1 changes no bit, so every layout is divided."""
    counts = [len(layout.elements) for layout in layouts]
    n = max(counts, default=0)
    ltwh = np.array([[_LTWH(e.bbox) for e in layout.elements] + _PAD * (n - count)
                     for layout, count in zip(layouts, counts)],
                    dtype=np.float64).reshape(len(layouts), n, 4)
    ltwh /= np.array([(layout.canvas.width, layout.canvas.height) * 2 for layout in layouts],
                     dtype=np.float64).reshape(-1, 1, 4)
    return UnitBoxes(ltwh, counts, tuple(e.label for layout in layouts for e in layout.elements))


def denormalize(layout: Layout, width: int, height: int) -> Layout:
    """Scale a unit-canvas layout to a ``width`` x ``height`` canvas; a
    layout on any other canvas is returned unchanged."""
    if not layout.is_normalized:
        return layout
    w = float(width)
    h = float(height)
    elements = tuple(
        Element(e.label, BBox(e.bbox.left * w, e.bbox.top * h,
                              e.bbox.width * w, e.bbox.height * h))
        for e in layout.elements
    )
    return Layout(id=layout.id, canvas=Canvas(int(width), int(height)), elements=elements)


_ELEMENT_DIV = '<div class="%s" style="left:%dpx; top:%dpx; width:%dpx; height:%dpx"></div>\n'


def html_snippet(width: int, height: int,
                 elements: Iterable[tuple[str, float, float, float, float]]) -> HtmlSnippet:
    """The canonical snippet of a ``width`` x ``height`` canvas and its
    ``(label, x, y, w, h)`` elements, each coordinate a whole number."""
    return (f'<html><body>\n<div class="canvas" style="width:{width}px; height:{height}px">'
            f'</div>\n{"".join(_ELEMENT_DIV % element for element in elements)}</body></html>')


def to_html(layout: Layout) -> HtmlSnippet:
    """Serialize a layout to the canonical snippet grammar.

    Coordinates are emitted as integer pixels of the layout's own canvas
    (round half-up).
    """
    return html_snippet(layout.canvas.width, layout.canvas.height, (
        (e.label, round_half_up(e.bbox.left), round_half_up(e.bbox.top),
         round_half_up(e.bbox.width), round_half_up(e.bbox.height))
        for e in layout.elements))


_DIV_RE = re.compile(r"<div\b([^>]*?)/?>", re.IGNORECASE | re.DOTALL)
# An attribute's value is double-quoted, single-quoted or bare; exactly one of
# the three groups matches, and findall gives the other two as "".
_ATTR_RE = re.compile(r"""([\w-]+)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>'"]+))""")
# A property's number in the forms float() reads: an optional sign, digits with
# an optional fraction or a fraction alone, and an optional signed exponent.
_PROP_RE = re.compile(
    r"([a-zA-Z-]+)\s*:\s*([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:e[+-]?\d+)?)\s*(?:px)?", re.IGNORECASE)


def _attrs(fragment: str) -> dict[str, str]:
    return {name.lower(): double + single + bare
            for name, double, single, bare in _ATTR_RE.findall(fragment)}


def _style_props(style: str) -> dict[str, float]:
    """A style's numeric properties, or ParseFailure naming the first whose
    number is too large for a float, such as ``left:1e999px``, or past
    ``MAX_PIXEL`` pixels from 0."""
    props = {name.lower(): float(value) for name, value in _PROP_RE.findall(style)}
    for name, value in props.items():
        if not math.isfinite(value):
            raise ParseFailure(f"style property {name!r} is not a finite number")
        if abs(value) > MAX_PIXEL:
            raise ParseFailure(f"style property {name!r} is past {MAX_PIXEL:.0f} pixels")
    return props


def parse_html(
    snippet: HtmlSnippet,
    vocabulary: Iterable[str],
    *,
    layout_id: str = "",
    fallback_canvas: Canvas | None = None,
) -> Layout:
    """Extract a Layout from a snippet, tolerating LLM chatter around it.

    Accepts whitespace variation, missing wrapper tags, reordered style
    properties, code fences, and surrounding prose; divs with unknown
    classes are skipped.
    Without a canvas div the canvas is ``fallback_canvas``, or else the
    smallest one that holds every element.

    Raises ParseFailure when neither canvas dimensions nor a recognizable
    element div can be found or a style number is not finite or is past
    ``MAX_PIXEL``, and
    NegativeDimension when a parsed width or height is negative.
    """
    vocab = set(vocabulary)
    canvas_size: tuple[int, int] | None = None
    elements: list[Element] = []

    for fragment in _DIV_RE.findall(snippet):
        attrs = _attrs(fragment)
        classes = attrs.get("class", "").split()
        if not classes:
            continue
        if "canvas" in classes:
            if canvas_size is None:
                props = _style_props(attrs.get("style", ""))
                w = round_half_up(props.get("width", 0.0))
                h = round_half_up(props.get("height", 0.0))
                if w > 0 and h > 0:
                    canvas_size = (w, h)
            continue
        label = next((c for c in classes if c in vocab), None)
        if label is None:
            continue
        props = _style_props(attrs.get("style", ""))
        width = props.get("width", 0.0)
        height = props.get("height", 0.0)
        if width < 0 or height < 0:
            raise NegativeDimension(f"element {label!r} has negative size {width}x{height}")
        elements.append(Element(label, BBox(props.get("left", 0.0), props.get("top", 0.0),
                                            width, height)))

    if canvas_size is None:
        if fallback_canvas is not None:
            canvas_size = (fallback_canvas.width, fallback_canvas.height)
        elif elements:
            w = max(1, math.ceil(max(e.bbox.right for e in elements)))
            h = max(1, math.ceil(max(e.bbox.bottom for e in elements)))
            canvas_size = (w, h)
        else:
            raise ParseFailure("no canvas dimensions and no recognizable element divs found")

    return Layout(id=layout_id, canvas=Canvas(*canvas_size), elements=tuple(elements))


def label_counts(layout: Layout) -> dict[str, int]:
    counts: dict[str, int] = {}
    for e in layout.elements:
        counts[e.label] = counts.get(e.label, 0) + 1
    return counts

