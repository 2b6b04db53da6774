"""Layout types, unit coordinates, and snippet serialization."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutloom import model
from layoutloom.errors import NegativeDimension, ParseFailure, ZeroCanvas
from layoutloom.model import (
    MAX_PIXEL,
    BBox,
    Canvas,
    denormalize,
    parse_html,
    round_half_up,
    to_html,
    unit_boxes,
)

from conftest import make_layout, random_pixel_layout

VOCAB = ["text", "logo", "underlay"]


class TestUnitBoxes:
    def test_divides_by_canvas_dimensions(self):
        lay = make_layout("a", (200, 100), [(50, 25, 100, 50)])
        assert unit_boxes([lay]).ltwh.tolist() == [[[0.25, 0.25, 0.5, 0.5]]]

    def test_unit_canvas_is_identity(self):
        lay = make_layout("a", (1, 1), [(0.2, 0.3, 0.4, 0.1)])
        assert unit_boxes([lay]).ltwh.tolist() == [[[0.2, 0.3, 0.4, 0.1]]]

    def test_full_canvas_box(self):
        lay = make_layout("a", (513, 750), [(0, 0, 513, 750)])
        assert unit_boxes([lay]).ltwh.tolist() == [[[0.0, 0.0, 1.0, 1.0]]]

    def test_pads_to_the_longest_layout(self):
        a = make_layout("a", (10, 20), [(1, 2, 3, 4), (5, 6, 7, 8)], ["text", "logo"])
        b = make_layout("b", (1, 1), [])
        boxes = unit_boxes([a, b])
        assert boxes.ltwh.shape == (2, 2, 4)
        assert np.isnan(boxes.ltwh[1]).all()
        assert boxes.counts == [2, 0]
        assert boxes.labels == ("text", "logo")

    def test_zero_canvas_rejected(self):
        with pytest.raises(ZeroCanvas):
            Canvas(0, 100)
        with pytest.raises(ZeroCanvas):
            Canvas(100, 0)

    def test_denormalize_inverts(self):
        lay = make_layout("a", (1, 1), [(0.25, 0.25, 0.5, 0.5)])
        assert denormalize(lay, 200, 100) == make_layout("a", (200, 100), [(50, 25, 100, 50)])

    def test_denormalize_leaves_a_pixel_layout(self):
        lay = make_layout("a", (200, 100), [(50, 25, 100, 50)])
        assert denormalize(lay, 400, 300) is lay


class TestToHtml:
    def test_empty_layout_has_canvas_only(self):
        html = to_html(make_layout("a", (100, 200), []))
        assert html == (
            "<html><body>\n"
            '<div class="canvas" style="width:100px; height:200px"></div>\n'
            "</body></html>"
        )

    def test_single_element_transcription(self):
        lay = make_layout("a", (100, 200), [(10, 20, 30, 40)])
        html = to_html(lay)
        assert '<div class="text" style="left:10px; top:20px; width:30px; height:40px"></div>' in html
        assert html.count("<div") == 2

    def test_deterministic(self):
        lay = make_layout("a", (123, 456), [(1, 2, 3, 4), (5, 6, 7, 8)], ["text", "logo"])
        assert to_html(lay) == to_html(lay)

    def test_unit_canvas_layout_is_written_on_its_own_canvas(self):
        unit = make_layout("a", (1, 1), [(0.25, 0.25, 0.5, 0.5)])
        assert to_html(unit) == (
            "<html><body>\n"
            '<div class="canvas" style="width:1px; height:1px"></div>\n'
            '<div class="text" style="left:0px; top:0px; width:1px; height:1px"></div>\n'
            "</body></html>"
        )
        assert to_html(denormalize(unit, 200, 100)) == \
            to_html(make_layout("a", (200, 100), [(50, 25, 100, 50)]))

    def test_rounding_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(-2.5) == -2
        assert round_half_up(2.4999) == 2


class TestParseHtml:
    def test_roundtrip_canonical(self):
        lay = make_layout("a", (300, 400), [(10, 20, 30, 40), (50, 60, 70, 80)],
                          ["text", "underlay"])
        assert parse_html(to_html(lay), VOCAB, layout_id="a") == lay

    def test_prose_around_snippet(self):
        lay = make_layout("a", (300, 400), [(10, 20, 30, 40)], ["logo"])
        noisy = "Here is the final layout:\n" + to_html(lay) + "\nLet me know!"
        assert parse_html(noisy, VOCAB, layout_id="a") == lay

    def test_code_fences(self):
        lay = make_layout("a", (120, 90), [(5, 6, 7, 8)])
        fenced = "```html\n" + to_html(lay) + "\n```"
        assert parse_html(fenced, VOCAB, layout_id="a") == lay

    def test_reordered_style_properties(self):
        snippet = (
            '<div class="canvas" style="height:200px; width:100px"></div>'
            '<div class="text" style="width:30px; left:10px; height:40px; top:20px"></div>'
        )
        lay = parse_html(snippet, VOCAB)
        assert lay.canvas == Canvas(100, 200)
        assert lay.elements[0].bbox == BBox(10.0, 20.0, 30.0, 40.0)

    def test_whitespace_and_quotes_variation(self):
        snippet = (
            "<div class='canvas' style='width: 100px ; height: 50px'></div>\n"
            "<div class='text' style='left: 1px; top: 2px; width: 3px; height: 4px'></div>"
        )
        lay = parse_html(snippet, VOCAB)
        assert lay.canvas == Canvas(100, 50)
        assert lay.elements[0].bbox == BBox(1.0, 2.0, 3.0, 4.0)

    def test_unknown_class_is_skipped(self):
        snippet = (
            '<div class="canvas" style="width:100px; height:100px"></div>'
            '<div class="banner" style="left:0px; top:0px; width:10px; height:10px"></div>'
            '<div class="text" style="left:1px; top:1px; width:5px; height:5px"></div>'
        )
        lay = parse_html(snippet, VOCAB)
        assert [e.label for e in lay.elements] == ["text"]

    def test_parse_failure_on_garbage(self):
        with pytest.raises(ParseFailure):
            parse_html("I cannot help with that request.", VOCAB)

    def test_negative_dimension(self):
        snippet = (
            '<div class="canvas" style="width:100px; height:100px"></div>'
            '<div class="text" style="left:0px; top:0px; width:-5px; height:10px"></div>'
        )
        with pytest.raises(NegativeDimension):
            parse_html(snippet, VOCAB)

    @pytest.mark.parametrize("canvas, element, prop", [
        ("100", "left:1e999px; top:0px; width:5px; height:5px", "left"),
        ("100", "left:0px; top:0px; width:5px; height:-1e400px", "height"),
        ("100", "left:0px; top:0px; width:5px; height:5px; z-index:1E+999", "z-index"),
        ("1e999", "left:0px; top:0px; width:5px; height:5px", "width"),
    ], ids=["left", "negative-height", "unread-property", "canvas-width"])
    def test_non_finite_style_number_is_a_parse_failure(self, canvas, element, prop):
        snippet = (f'<div class="canvas" style="width:{canvas}px; height:100px"></div>'
                   f'<div class="text" style="{element}"></div>')
        with pytest.raises(ParseFailure, match=f"style property '{prop}'"):
            parse_html(snippet, VOCAB)

    @pytest.mark.parametrize("canvas, element, prop", [
        # Two of these used to reach layout_samples, whose overlap sum
        # overflowed: "OverflowError: intermediate overflow in fsum".
        ("100", "left:0px; top:0px; width:1.7e308px; height:10000px", "width"),
        ("100", "left:-2e7px; top:0px; width:5px; height:5px", "left"),
        ("1e300", "left:0px; top:0px; width:5px; height:5px", "width"),
        ("100", f"left:0px; top:{MAX_PIXEL + 1}px; width:5px; height:5px", "top"),
    ], ids=["huge-width", "far-left", "huge-canvas", "just-past"])
    def test_style_number_past_the_pixel_bound_is_a_parse_failure(self, canvas, element, prop):
        snippet = (f'<div class="canvas" style="width:{canvas}px; height:100px"></div>'
                   f'<div class="text" style="{element}"></div>' * 2)
        with pytest.raises(ParseFailure, match=f"style property '{prop}' is past"):
            parse_html(snippet, VOCAB)

    def test_style_number_at_the_pixel_bound_is_read(self):
        snippet = ('<div class="canvas" style="width:100px; height:100px"></div>'
                   f'<div class="text" style="left:-{MAX_PIXEL}px; top:0px; '
                   f'width:{MAX_PIXEL}px; height:5px"></div>')
        [element] = parse_html(snippet, VOCAB).elements
        assert element.bbox == BBox(-MAX_PIXEL, 0.0, MAX_PIXEL, 5.0)

    def test_missing_canvas_uses_fallback(self):
        snippet = '<div class="text" style="left:10px; top:10px; width:20px; height:20px"></div>'
        lay = parse_html(snippet, VOCAB, fallback_canvas=Canvas(64, 48))
        assert lay.canvas == Canvas(64, 48)

    def test_missing_canvas_uses_element_extent(self):
        snippet = '<div class="text" style="left:10px; top:10px; width:20px; height:25px"></div>'
        lay = parse_html(snippet, VOCAB)
        assert lay.canvas == Canvas(30, 35)

    def test_float_coordinates_accepted(self):
        snippet = (
            '<div class="canvas" style="width:100.0px; height:100.4px"></div>'
            '<div class="text" style="left:1.5px; top:2.25px; width:3.75px; height:4px"></div>'
        )
        lay = parse_html(snippet, VOCAB)
        assert lay.canvas == Canvas(100, 100)
        assert lay.elements[0].bbox == BBox(1.5, 2.25, 3.75, 4.0)

    @pytest.mark.parametrize("written, value", [
        ("1e+2", 100.0), ("1E+2", 100.0), ("2.5e-1", 0.25), ("+5", 5.0), ("+5.5", 5.5),
        (".5", 0.5), ("-.5", -0.5), ("+.5e+1", 5.0), ("7.", 7.0), ("-3", -3.0),
    ])
    def test_number_forms_read_as_float_reads_them(self, written, value):
        snippet = (
            '<div class="canvas" style="width:100px; height:100px"></div>'
            f'<div class="text" style="left:{written}px; top:{written}px; '
            f'width:4px; height:4px"></div>'
        )
        bbox = parse_html(snippet, VOCAB).elements[0].bbox
        assert (bbox.left, bbox.top) == (value, value) == (float(written),) * 2

    def test_element_order_preserved(self):
        lay = make_layout("a", (500, 500),
                          [(0, 0, 10, 10), (20, 20, 10, 10), (40, 40, 10, 10)],
                          ["logo", "text", "underlay"])
        parsed = parse_html(to_html(lay), VOCAB, layout_id="a")
        assert parsed.labels() == ("logo", "text", "underlay")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    lay = random_pixel_layout(rng, layout_id="rt")
    assert parse_html(to_html(lay), VOCAB, layout_id="rt") == lay


# --- attribute and style scanning against the finditer loops they replaced ---

_OLD_ATTR_RE = re.compile(r"""([\w-]+)\s*=\s*("([^"]*)"|'([^']*)'|([^\s>'"]+))""")


def _attrs_oracle(fragment):
    out = {}
    for m in _OLD_ATTR_RE.finditer(fragment):
        value = m.group(3) if m.group(3) is not None else m.group(4)
        if value is None:
            value = m.group(5)
        out[m.group(1).lower()] = value or ""
    return out


def _style_props_oracle(style):
    props = {m.group(1).lower(): float(m.group(2)) for m in model._PROP_RE.finditer(style)}
    for name, value in props.items():
        if not math.isfinite(value) or abs(value) > MAX_PIXEL:
            raise ParseFailure(f"style property {name!r} is out of range")
    return props


def _style_props_outcome(function, style):
    """The properties ``function`` reads from ``style`` in order, or the
    property its ParseFailure names."""
    try:
        return list(function(style).items())
    except ParseFailure as exc:
        return str(exc).split(" is ")[0]


_MARKUP = st.text(alphabet="aClsty-_= \t\"':;.5+e0x/<>", max_size=60)
_ATTR_TOKENS = st.lists(st.sampled_from([
    "class", "CLASS", "style", "data-x", "=", " = ", '"', "'", '""', "''", '"a b"', "'c'",
    "text", "left:5px", ";", " ", "\t", ">", "/", "x=y", "=''", 'a="', "\n",
]), max_size=14).map("".join)
_STYLE_TOKENS = st.lists(st.sampled_from([
    "left", "TOP", "width", "height", "margin-top", ":", " : ", "5", "-5", "+5", ".5", "1.25",
    "1e3", "1E-2", "1e+2", "e", "px", "PX", ";", "; ", " ", "-", "abc", "0", "12.",
]), max_size=14).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_MARKUP, _ATTR_TOKENS))
def test_attrs_equal_the_finditer_loop(fragment):
    assert model._attrs(fragment) == _attrs_oracle(fragment)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_MARKUP, _STYLE_TOKENS))
def test_style_props_equal_the_finditer_loop(style):
    assert _style_props_outcome(model._style_props, style) == \
        _style_props_outcome(_style_props_oracle, style)
