"""Deterministic SVG rendering of layouts for qualitative inspection."""

from __future__ import annotations

import base64
import hashlib
from xml.sax.saxutils import escape, quoteattr

from .dataset import SaliencyRaster, pgm_bytes
from .model import Layout, denormalize

# Fixed palette; labels hash into it so colors are stable across runs.
PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#fabebe", "#008080", "#9a6324", "#808000",
)

# The pixel canvas a unit-canvas layout is drawn on.
FALLBACK_SIZE = (1000, 1000)

FILL_OPACITY = 0.45
STROKE_WIDTH = 2.0


def label_color(label: str) -> str:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return PALETTE[digest[0] % len(PALETTE)]


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def render_svg(layout: Layout, background: SaliencyRaster | None = None) -> str:
    """One labeled rect per element in element order; later elements draw
    on top. A unit-canvas layout is drawn on a ``FALLBACK_SIZE`` canvas.

    Output is byte-deterministic and well-formed XML. A grayscale background
    raster, when given, is embedded as a base64 PGM image.
    """
    lay = denormalize(layout, *FALLBACK_SIZE)
    width, height = lay.canvas.width, lay.canvas.height

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect class="canvas" x="0" y="0" width="{width}" height="{height}" '
        f'fill="#ffffff" stroke="#000000" stroke-width="1"/>',
    ]
    if background is not None:
        data = base64.b64encode(pgm_bytes(background)).decode("ascii")
        parts.append(
            f'<image x="0" y="0" width="{width}" height="{height}" '
            f'href="data:image/x-portable-graymap;base64,{data}"/>'
        )
    for e in lay.elements:
        color = label_color(e.label)
        parts.append(
            f'<rect class={quoteattr(e.label)} x="{_fmt(e.bbox.left)}" y="{_fmt(e.bbox.top)}" '
            f'width="{_fmt(max(0.0, e.bbox.width))}" height="{_fmt(max(0.0, e.bbox.height))}" '
            f'fill="{color}" fill-opacity="{_fmt(FILL_OPACITY)}" '
            f'stroke="{color}" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
        )
        parts.append(
            f'<text x="{_fmt(e.bbox.left + 3)}" y="{_fmt(e.bbox.top + 14)}" '
            f'font-family="monospace" font-size="12" fill="#000000">'
            f'{escape(e.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
