"""SVG output: determinism, structure, well-formedness."""

import base64
import hashlib
import re
import xml.etree.ElementTree as ET

import numpy as np

from layoutloom.dataset import SaliencyRaster, save_raster
from layoutloom.render import FALLBACK_SIZE, label_color, render_svg

from conftest import make_layout


def _rects(svg):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [el for el in root.iter(f"{ns}rect")]


class TestRenderSvg:
    def test_empty_layout_canvas_only(self):
        svg = render_svg(make_layout("a", (100, 200), []))
        rects = _rects(svg)
        assert len(rects) == 1
        assert rects[0].get("class") == "canvas"

    def test_one_rect_per_element_in_order(self):
        lay = make_layout("a", (300, 300),
                          [(0, 0, 50, 50), (60, 60, 50, 50), (120, 120, 50, 50)],
                          ["text", "logo", "underlay"])
        svg = render_svg(lay)
        rects = _rects(svg)
        assert [r.get("class") for r in rects] == ["canvas", "text", "logo", "underlay"]

    def test_deterministic_bytes(self):
        lay = make_layout("a", (300, 300), [(1, 2, 3, 4)], ["text"])
        assert render_svg(lay) == render_svg(lay)

    def test_well_formed_xml(self):
        lay = make_layout("a", (300, 300), [(1, 2, 3, 4)], ["text"])
        ET.fromstring(render_svg(lay))  # raises on malformed output

    def test_unit_canvas_layout_is_drawn_at_the_fallback_size(self):
        lay = make_layout("a", (1, 1), [(0.25, 0.25, 0.5, 0.5)])
        root = ET.fromstring(render_svg(lay))
        assert root.get("viewBox") == "0 0 {} {}".format(*FALLBACK_SIZE)
        box = _rects(render_svg(lay))[1]
        assert [box.get(k) for k in ("x", "y", "width", "height")] == \
            ["250", "250", "500", "500"]

    def test_stable_label_colors(self):
        assert label_color("text") == label_color("text")

    def test_every_element_is_labeled(self):
        lay = make_layout("a", (300, 300), [(0, 0, 50, 50), (60, 60, 50, 50)],
                          ["text", "logo"])
        texts = ET.fromstring(render_svg(lay)).iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ["text", "logo"]

    def test_background_embedding(self):
        raster = SaliencyRaster(4, 4, np.zeros((4, 4)))
        lay = make_layout("a", (40, 40), [(0, 0, 10, 10)])
        plain = render_svg(lay)
        with_bg = render_svg(lay, raster)
        assert "data:image/x-portable-graymap;base64," not in plain
        assert "data:image/x-portable-graymap;base64," in with_bg
        ET.fromstring(with_bg)

    def test_background_bytes_are_pinned(self, tmp_path):
        # Intensities k/510 put every other pixel on a rounding half. The
        # digest is of the SVG that per-pixel round() wrote before the
        # embedded image came from the raster writer.
        raster = SaliencyRaster(30, 17, (np.arange(510) / 510.0).reshape(17, 30))
        svg = render_svg(make_layout("a", (40, 40), [(0, 0, 10, 10)]), raster)
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == \
            "941f0259a2bdaf6635229d2f74f497ff8ffd11208363d6cc3015433932376801"
        save_raster(raster, tmp_path / "bg.pgm")
        embedded = re.search(r"base64,([^\"]*)\"", svg).group(1)
        assert base64.b64decode(embedded) == (tmp_path / "bg.pgm").read_bytes()

    def test_label_text_escaping(self):
        lay = make_layout("a", (100, 100), [(0, 0, 10, 10)], ["a<b&c"])
        svg = render_svg(lay)
        ET.fromstring(svg)
        assert "a<b&c" not in svg.split("</rect>")[-1] or "&lt;" in svg
