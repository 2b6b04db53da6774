"""Metric hand cases, permutation oracles, and invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutloom import metrics, retrieval
from layoutloom.dataset import AreaStats, SaliencyRaster, layout_to_record
from layoutloom.errors import (
    EmptyLayout,
    InvalidPayload,
    MissingLabelStats,
    ZeroTrainingArea,
)
from layoutloom.metrics import (
    CONTENT_AWARE_COLUMNS,
    MetricReport,
    alignments,
    layout_samples,
    max_iou,
    occlusion_utilization,
    overlaps,
    population_report,
    readability,
    size_reasonableness,
    underlay_effectiveness,
    validities,
)
from layoutloom.model import BBox, Canvas, Element, Layout, unit_boxes
from layoutloom.pipeline import constraint_satisfaction
from layoutloom.prompts import ConstraintSpec

from conftest import (
    VOCAB,
    intersection_area,
    make_layout,
    messy_layouts,
    normalize,
    object_path_constraint_satisfaction,
    object_path_features,
    object_path_max_iou,
    object_path_samples,
    object_path_size_reasonableness,
    object_path_validity,
    random_normalized_layout,
    random_pixel_layout,
    scalar_alignment,
    scalar_overlap,
)


def unit_layout(boxes, labels=None, layout_id="m"):
    labels = labels or ["text"] * len(boxes)
    return Layout(layout_id, Canvas(1, 1),
                  tuple(Element(lab, BBox(*b)) for lab, b in zip(labels, boxes)))


def miou(generated, reference):
    return max_iou(unit_boxes([generated]), unit_boxes([reference]))


class TestAlignment:
    def test_single_element(self):
        assert alignments(unit_boxes([unit_layout([(0.1, 0.1, 0.3, 0.3)])])) == [0.0]

    def test_shared_left_edge(self):
        lay = unit_layout([(0.2, 0.1, 0.3, 0.1), (0.2, 0.4, 0.5, 0.2), (0.2, 0.7, 0.1, 0.1)])
        assert alignments(unit_boxes([lay])) == [0.0]

    def test_two_elements_hand_enumeration(self):
        a = (0.10, 0.10, 0.20, 0.20)
        b = (0.12, 0.50, 0.24, 0.20)
        lay = unit_layout([a, b])

        def anchors(box):
            l, t, w, h = box
            return (l, l + w / 2, l + w, t, t + h / 2, t + h)

        gaps = [abs(x - y) for x, y in zip(anchors(a), anchors(b))]
        expected = min(gaps)  # both elements see the same nearest anchor gap
        assert alignments(unit_boxes([lay])) == [pytest.approx(expected, abs=1e-12)]
        assert expected == pytest.approx(0.02, abs=1e-12)

    def test_empty_layout(self):
        with pytest.raises(EmptyLayout):
            alignments(unit_boxes([unit_layout([])]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        lay = random_normalized_layout(rng, max_elements=5)
        flipped = Layout(lay.id, lay.canvas, tuple(reversed(lay.elements)))
        forward, backward = alignments(unit_boxes([lay, flipped]))
        assert forward == pytest.approx(backward, abs=1e-12)


class TestOverlap:
    def test_disjoint(self):
        lay = unit_layout([(0.0, 0.0, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)])
        assert overlaps(unit_boxes([lay])) == [0.0]

    def test_identical_boxes(self):
        lay = unit_layout([(0.1, 0.1, 0.3, 0.2), (0.1, 0.1, 0.3, 0.2)])
        assert overlaps(unit_boxes([lay])) == [pytest.approx(0.5, abs=1e-12)]

    def test_hand_geometry(self):
        lay = unit_layout([(0.0, 0.0, 0.5, 0.5), (0.25, 0.25, 0.5, 0.5)])
        assert overlaps(unit_boxes([lay])) == [pytest.approx(0.125, abs=1e-12)]

    def test_exclusion(self):
        lay = unit_layout([(0.0, 0.0, 0.5, 0.5), (0.25, 0.25, 0.5, 0.5)],
                          ["text", "underlay"])
        assert overlaps(unit_boxes([lay]), exclude_labels={"underlay"}) == [0.0]

    def test_zero_or_one_element(self):
        assert overlaps(unit_boxes([unit_layout([])])) == [0.0]
        assert overlaps(unit_boxes([unit_layout([(0.1, 0.1, 0.5, 0.5)])])) == [0.0]

    def test_scale_invariance(self):
        px = make_layout("p", (200, 400), [(0, 0, 100, 200), (50, 100, 100, 200)])
        pixels, unit = overlaps(unit_boxes([px, normalize(px)]))
        assert pixels == pytest.approx(unit, abs=1e-15)


class TestValidity:
    def test_all_valid(self):
        lay = make_layout("a", (100, 100), [(10, 10, 40, 40), (60, 60, 30, 30)])
        assert validities(unit_boxes([lay])) == [1.0]

    def test_zero_width_element(self):
        lay = make_layout("a", (100, 100), [(10, 10, 40, 40), (60, 60, 0, 30)])
        assert validities(unit_boxes([lay])) == [0.5]

    def test_fully_outside_canvas(self):
        lay = unit_layout([(1.5, 0.2, 0.3, 0.3)])
        assert validities(unit_boxes([lay])) == [0.0]

    def test_area_at_the_threshold_is_valid(self):
        lay = make_layout("a", (1000, 1000), [(0, 0, 1000, 1), (0, 10, 999, 1)])
        assert validities(unit_boxes([lay])) == [0.5]

    def test_empty_layout_is_vacuously_valid(self):
        assert validities(unit_boxes([unit_layout([]), unit_layout([(0.0, 0.0, 0.5, 0.5)])])) \
            == [1.0, 1.0]

    def test_fraction_bounds(self):
        rng = np.random.default_rng(3)
        layouts = [random_pixel_layout(rng) for _ in range(50)]
        assert all(0.0 <= v <= 1.0 for v in validities(unit_boxes(layouts)))


class TestMaxIoU:
    def test_identity(self):
        lay = unit_layout([(0.1, 0.1, 0.3, 0.3), (0.5, 0.5, 0.2, 0.2)], ["text", "logo"])
        assert miou(lay, lay) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_same_label(self):
        a = unit_layout([(0.0, 0.0, 0.2, 0.2)])
        b = unit_layout([(0.6, 0.6, 0.2, 0.2)])
        assert miou(a, b) == 0.0

    def test_hand_geometry(self):
        a = unit_layout([(0.0, 0.0, 0.5, 0.5)])
        b = unit_layout([(0.25, 0.25, 0.5, 0.5)])
        assert miou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_label_preserving(self):
        a = unit_layout([(0.1, 0.1, 0.3, 0.3)], ["text"])
        b = unit_layout([(0.1, 0.1, 0.3, 0.3)], ["logo"])
        assert miou(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = random_normalized_layout(rng, max_elements=4)
            b = random_normalized_layout(rng, max_elements=4)
            assert miou(a, b) == pytest.approx(miou(b, a), abs=1e-12)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(19)

        def oracle(a, b):
            # brute force over per-label permutations
            def iou(x, y):
                inter = intersection_area(x, y)
                union = x.area + y.area - inter
                return inter / union if union > 0 else 0.0

            labels = sorted({e.label for e in a.elements} | {e.label for e in b.elements})
            total, slots = 0.0, 0
            for label in labels:
                ga = [e.bbox for e in a.elements if e.label == label]
                gb = [e.bbox for e in b.elements if e.label == label]
                slots += max(len(ga), len(gb))
                if not ga or not gb:
                    continue
                short, long_ = (ga, gb) if len(ga) <= len(gb) else (gb, ga)
                best = 0.0
                for perm in itertools.permutations(range(len(long_)), len(short)):
                    best = max(best, math.fsum(iou(short[i], long_[perm[i]])
                                               for i in range(len(short))))
                total += best
            return total / slots

        for _ in range(30):
            a = random_normalized_layout(rng, max_elements=4)
            b = random_normalized_layout(rng, max_elements=4)
            assert miou(a, b) == pytest.approx(oracle(a, b), abs=1e-9)


class TestUnderlay:
    def test_full_containment(self):
        lay = unit_layout([(0.1, 0.1, 0.4, 0.4), (0.2, 0.2, 0.1, 0.1)],
                          ["underlay", "text"])
        assert underlay_effectiveness(unit_boxes([lay])) == (pytest.approx(1.0, abs=1e-12), 1.0)

    def test_disjoint_underlay(self):
        lay = unit_layout([(0.6, 0.6, 0.3, 0.3), (0.0, 0.0, 0.1, 0.1)],
                          ["underlay", "text"])
        assert underlay_effectiveness(unit_boxes([lay])) == (0.0, 0.0)

    def test_half_contained(self):
        # text box 0.2 wide, half inside the underlay
        lay = unit_layout([(0.0, 0.0, 0.5, 0.5), (0.4, 0.1, 0.2, 0.2)],
                          ["underlay", "text"])
        assert underlay_effectiveness(unit_boxes([lay])) == (pytest.approx(0.5, abs=1e-12), 0.0)

    def test_no_underlay_skipped(self):
        lay = unit_layout([(0.1, 0.1, 0.2, 0.2)], ["text"])
        assert underlay_effectiveness(unit_boxes([lay])) is None


class TestContentMetrics:
    def test_zero_saliency(self):
        raster = SaliencyRaster(4, 4, np.zeros((4, 4)))
        lay = unit_layout([(0.0, 0.0, 0.5, 0.5)])
        assert occlusion_utilization(unit_boxes([lay]), raster)[0] == 0.0

    def test_constant_saliency(self):
        raster = SaliencyRaster(8, 8, np.full((8, 8), 0.3))
        lay = unit_layout([(0.25, 0.25, 0.5, 0.5)])
        assert occlusion_utilization(unit_boxes([lay]), raster)[0] == \
            pytest.approx(0.3, abs=1e-12)

    def test_full_coverage_utilization(self):
        rng = np.random.default_rng(20)
        raster = SaliencyRaster(6, 6, rng.random((6, 6)) * 0.9)
        lay = unit_layout([(0.0, 0.0, 1.0, 1.0)])
        assert occlusion_utilization(unit_boxes([lay]), raster)[1] == \
            pytest.approx(1.0, abs=1e-12)

    def test_empty_coverage(self):
        raster = SaliencyRaster(4, 4, np.full((4, 4), 0.5))
        lay = unit_layout([(0.0, 0.0, 0.0, 0.0)])
        assert occlusion_utilization(unit_boxes([lay]), raster) == (0.0, 0.0)

    def test_known_pixel_window(self):
        values = np.arange(16, dtype=np.float64).reshape(4, 4) / 16.0
        raster = SaliencyRaster(4, 4, values)
        # box covering only the left half: pixel columns 0..1
        lay = unit_layout([(0.0, 0.0, 0.5, 1.0)])
        expected = values[:, :2].mean()
        assert occlusion_utilization(unit_boxes([lay]), raster)[0] == \
            pytest.approx(expected, abs=1e-12)

    def test_readability_text_only(self):
        values = np.zeros((4, 4))
        values[:, 2:] = 1.0
        raster = SaliencyRaster(4, 4, values)
        lay = unit_layout([(0.5, 0.0, 0.5, 1.0), (0.0, 0.0, 0.5, 1.0)],
                          ["text", "logo"])
        assert readability(unit_boxes([lay]), raster) == pytest.approx(1.0, abs=1e-12)

    def test_readability_skipped_without_text(self):
        raster = SaliencyRaster(4, 4, np.zeros((4, 4)))
        lay = unit_layout([(0.0, 0.0, 0.5, 0.5)], ["logo"])
        assert readability(unit_boxes([lay]), raster) is None

    @pytest.mark.parametrize("box, covered", [
        # The right edge, 2e306 of the canvas, is past the largest float in
        # raster pixels.
        ((1e308, 0.0, 1e308, 50.0), 0.0),
        # The top edge is -inf in raster pixels and the bottom is past it.
        ((0.0, -1.7e308, 100.0, 1.79e308), 1.0),
    ])
    def test_boxes_beyond_the_largest_float_in_pixels(self, box, covered):
        layout = Layout("", Canvas(100, 100), (Element("text", BBox(*box)),))
        raster = SaliencyRaster(103, 150, np.full((150, 103), 0.5))
        samples = layout_samples(layout, saliency=raster, gradient=raster)
        assert (samples["occ"], samples["uti"], samples["rea"]) == \
            (0.5 * covered, covered, 0.5 * covered)


class TestLayoutSamples:
    def test_one_conversion_per_layout_and_one_mask_per_raster(self, monkeypatch):
        calls = {"unit_boxes": 0, "_coverage_mask": 0}

        def counted(name):
            function = getattr(metrics, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(metrics, name, counted(name))
        labels = ["text", "logo", "underlay", "text", "logo", "text", "underlay", "logo"]
        layout = make_layout("a", (400, 300), [(40 * i, 30 * i, 120, 60) for i in range(8)],
                             labels)
        reference = make_layout("a", (400, 300), [(35 * i, 25 * i, 90, 80) for i in range(5)],
                                labels[:5])
        raster = SaliencyRaster(103, 150, np.full((150, 103), 0.5))
        samples = layout_samples(layout, reference, raster, raster, ("underlay",))
        assert sorted(samples) == sorted(CONTENT_AWARE_COLUMNS[:-1] + ("miou",))
        # The layout and its reference once each; the saliency mask and the
        # text-only gradient mask.
        assert calls == {"unit_boxes": 2, "_coverage_mask": 2}


class TestSizeReasonableness:
    def test_perfect_ratios(self):
        stats = AreaStats(means={"text": 0.04})
        population = [unit_layout([(0.1, 0.1, 0.2, 0.2)])]
        score = size_reasonableness(population, stats)
        assert score.value == pytest.approx(1.0, abs=1e-12)
        assert score.scores["text"] == 1.0

    def test_ratio_r12(self):
        # one label with population mean area = 1.2 * training mean
        stats = AreaStats(means={"text": 0.05})
        population = [unit_layout([(0.0, 0.0, 0.3, 0.2)])]  # area 0.06
        score = size_reasonableness(population, stats)
        expected = math.exp(-(math.log(1.2) - math.log(1.1)))
        assert score.value == pytest.approx(expected, abs=1e-12)
        assert score.ratios["text"] == pytest.approx(1.2, abs=1e-12)

    def test_band_edge_scores_one(self):
        stats = AreaStats(means={"text": 0.1})
        population = [unit_layout([(0.0, 0.0, 0.55, 0.2)])]  # area 0.11, r = 1.1
        score = size_reasonableness(population, stats)
        assert score.deviations["text"] == pytest.approx(math.log(1.1), abs=1e-12)
        assert score.scores["text"] == 1.0
        assert score.value == 1.0

    def test_depends_on_absolute_log_ratio(self):
        stats = AreaStats(means={"text": 0.05})
        bigger = [unit_layout([(0.0, 0.0, 0.25, 0.4)])]   # r = 2
        smaller = [unit_layout([(0.0, 0.0, 0.25, 0.1)])]  # r = 1/2
        up = size_reasonableness(bigger, stats)
        down = size_reasonableness(smaller, stats)
        assert up.value == pytest.approx(down.value, abs=1e-12)

    def test_missing_label(self):
        stats = AreaStats(means={"text": 0.05})
        population = [unit_layout([(0.0, 0.0, 0.2, 0.2)], ["logo"])]
        with pytest.raises(MissingLabelStats):
            size_reasonableness(population, stats)

    def test_zero_training_area(self):
        stats = AreaStats(means={"text": 0.0})
        population = [unit_layout([(0.0, 0.0, 0.2, 0.2)])]
        with pytest.raises(ZeroTrainingArea):
            size_reasonableness(population, stats)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1.12, max_value=50.0),
           st.floats(min_value=0.001, max_value=0.05))
    def test_monotone_beyond_band(self, ratio, step):
        # pushing the ratio further from the band strictly lowers the score
        stats = AreaStats(means={"text": 0.01})
        def population(r):
            side = math.sqrt(0.01 * r)
            return [unit_layout([(0.0, 0.0, side, side)])]
        near = size_reasonableness(population(ratio), stats).value
        far = size_reasonableness(population(ratio * (1 + step)), stats).value
        assert far < near


class TestPopulationReport:
    def test_applicability_flags(self):
        population = [unit_layout([(0.1, 0.1, 0.2, 0.2)], ["text"], layout_id="x")]
        report = population_report(population, [layout_samples(lay) for lay in population])
        assert report.applicability["und_l"] == "skipped(no_underlay)"
        assert report.applicability["miou"] == "skipped(no_references)"
        assert report.applicability["r_e"] == "skipped(no_area_stats)"
        assert report.values["align"] == 0.0
        assert report.population_size == 1

    def test_means_over_applicable_only(self):
        with_u = unit_layout([(0.1, 0.1, 0.4, 0.4), (0.2, 0.2, 0.1, 0.1)],
                             ["underlay", "text"], layout_id="a")
        without = unit_layout([(0.1, 0.1, 0.2, 0.2)], ["text"], layout_id="b")
        report = population_report([with_u, without],
                                   [layout_samples(with_u), layout_samples(without)])
        assert report.values["und_l"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("means, reason", [
        ({"text": 0.05}, "missing_label_stats"),
        ({"text": 0.05, "logo": 0.0}, "zero_training_area"),
    ])
    def test_r_e_without_a_usable_training_area_is_skipped(self, means, reason):
        population = [unit_layout([(0.1, 0.1, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)],
                                  ["text", "logo"])]
        report = population_report(population, [layout_samples(lay) for lay in population],
                                   AreaStats(means=means))
        assert report.applicability["r_e"] == f"skipped({reason})"
        assert "r_e" not in report.values
        assert report.values["val"] == 1.0

    def test_miou_identity_population(self):
        lays = [unit_layout([(0.1, 0.1, 0.2, 0.2)], ["text"], layout_id=f"l{i}")
                for i in range(3)]
        report = population_report(lays, [layout_samples(lay, reference=lay) for lay in lays])
        assert report.values["miou"] == pytest.approx(1.0, abs=1e-12)


def _reference_population_report(generated, references=None, stats=None, saliency=None,
                                 gradient=None, exclude_overlap_labels=(),
                                 min_area_ratio=0.001):
    """The population report as it was computed over id-keyed maps of
    references and rasters; parity reference for layout_samples plus
    population_report."""
    values, notes = {}, {}

    def mean(samples):
        return math.fsum(samples) / len(samples)

    def put(name, samples, why_empty):
        if samples:
            values[name] = mean(samples)
            notes[name] = "computed"
        else:
            notes[name] = f"skipped({why_empty})"

    non_empty = [lay for lay in generated if lay.elements]
    put("align", [alignments(unit_boxes([lay]))[0] for lay in non_empty], "no_elements")
    values["overlap"] = mean([overlaps(unit_boxes([lay]), exclude_overlap_labels)[0]
                              for lay in generated]) if generated else 0.0
    notes["overlap"] = "computed" if generated else "skipped(empty_population)"
    put("val", [object_path_validity(lay, min_area_ratio) for lay in generated],
        "empty_population")
    underlays = [v for lay in generated
                 if (v := underlay_effectiveness(unit_boxes([lay]))) is not None]
    put("und_l", [loose for loose, _ in underlays], "no_underlay")
    put("und_s", [strict for _, strict in underlays], "no_underlay")
    pairs = []
    if references:
        for lay in non_empty:
            ref = references.get(lay.id)
            if ref is not None and ref.elements:
                pairs.append(miou(lay, ref))
    put("miou", pairs, "no_references")
    occ_samples, uti_samples = [], []
    if saliency:
        for lay in generated:
            raster = saliency.get(lay.id)
            if raster is not None:
                occ, uti = occlusion_utilization(unit_boxes([lay]), raster)
                occ_samples.append(occ)
                uti_samples.append(uti)
    put("occ", occ_samples, "no_saliency")
    put("uti", uti_samples, "no_saliency")
    rea_samples = []
    if gradient:
        for lay in generated:
            raster = gradient.get(lay.id)
            if raster is not None:
                value = readability(unit_boxes([lay]), raster)
                if value is not None:
                    rea_samples.append(value)
    put("rea", rea_samples, "no_gradient")
    if stats is not None and non_empty:
        values["r_e"] = size_reasonableness(non_empty, stats).value
        notes["r_e"] = "computed"
    else:
        notes["r_e"] = "skipped(no_area_stats)" if stats is None else "skipped(no_elements)"
    return MetricReport(values=values, applicability=notes, population_size=len(generated))


_corner = st.floats(min_value=0.0, max_value=1.0)
_extent = st.floats(min_value=0.0, max_value=0.7)


@st.composite
def _layouts(draw, layout_id):
    boxes = draw(st.lists(st.tuples(st.sampled_from(("text", "logo", "underlay")),
                                    _corner, _corner, _extent, _extent), max_size=4))
    return Layout(layout_id, Canvas(1, 1),
                  tuple(Element(label, BBox(x, y, w, h)) for label, x, y, w, h in boxes))


@st.composite
def _rasters(draw):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SaliencyRaster(width, height, rng.random((height, width)))


@st.composite
def _populations(draw):
    """Layouts, and the references and rasters of some of their ids."""
    ids = [f"l{i}" for i in range(draw(st.integers(0, 5)))]
    generated = [draw(_layouts(i)) for i in ids]
    references = {i: draw(_layouts(i)) for i in ids if draw(st.booleans())}
    saliency = {i: draw(_rasters()) for i in ids if draw(st.booleans())}
    gradient = {i: draw(_rasters()) for i in ids if draw(st.booleans())}
    return generated, references, saliency, gradient


class TestSampleParity:
    """layout_samples plus population_report against the map-based reference."""

    @settings(max_examples=300, deadline=None)
    @given(_populations(),
           st.sampled_from(((), ("underlay",))),
           st.sampled_from((None, AreaStats(means={"text": 0.05, "logo": 0.02,
                                                   "underlay": 0.1}))))
    def test_same_report_as_the_reference(self, population, exclude, stats):
        generated, references, saliency, gradient = population
        expected = _reference_population_report(
            generated, references, stats, saliency, gradient, exclude)
        samples = [layout_samples(lay, references.get(lay.id), saliency.get(lay.id),
                                  gradient.get(lay.id), exclude) for lay in generated]
        report = population_report(generated, samples, stats)
        expected_values = dict(expected.values)
        if not generated:
            # The reference wrote 0.0 for an empty population's overlap.
            assert expected_values.pop("overlap", 0.0) == 0.0
        assert {k: float(v).hex() for k, v in report.values.items()} == \
            {k: float(v).hex() for k, v in expected_values.items()}
        assert report.applicability == expected.applicability
        assert report.population_size == expected.population_size


# --- batched alignment and overlap against the scalar loops they replaced ---

def _bits(values):
    return [float(v).hex() for v in values]


def _outcome(metric, *args):
    try:
        return float(metric(*args)).hex()
    except (ValueError, OverflowError, EmptyLayout) as exc:
        return type(exc).__name__


@settings(max_examples=80, deadline=None)
@given(st.lists(messy_layouts(), min_size=1, max_size=8),
       st.sampled_from(((), ("underlay",), ("text", "logo"))))
def test_batched_metrics_equal_the_scalar_loops(layouts, exclude):
    boxes = unit_boxes(layouts)
    assert _bits(alignments(boxes)) == _bits(scalar_alignment(lay) for lay in layouts)
    assert _bits(overlaps(boxes)) == _bits(scalar_overlap(lay) for lay in layouts)
    assert _bits(overlaps(boxes, exclude)) == \
        _bits(scalar_overlap(lay, exclude) for lay in layouts)


_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, 1e308]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("text", "underlay")),
                          st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)),
                max_size=5),
       st.sampled_from(((1, 1), (400, 300))))
def test_metrics_of_non_finite_boxes_equal_the_scalar_loops(elements, canvas):
    layout = Layout("", Canvas(*canvas), tuple(Element(lab, BBox(*b)) for lab, b in elements))
    assert _outcome(lambda lay: alignments(unit_boxes([lay]))[0], layout) == \
        _outcome(scalar_alignment, layout)
    for exclude in ((), ("underlay",)):
        assert _outcome(lambda lay: overlaps(unit_boxes([lay]), exclude)[0], layout) == \
            _outcome(scalar_overlap, layout, exclude)


# --- unit_boxes readers against the normalized-copy object path ---------------

# Values past which box edges overflow in pixels, and the smallest subnormal.
_EXTREMES = (1e300, 1.7e308, 5e-324)


@st.composite
def _layouts_with_extremes(draw):
    """``messy_layouts`` with some box values replaced by extremes: a left or
    top of either sign, a width or height of the positive ones."""
    layout = draw(messy_layouts(max_elements=8))
    elements = []
    for e in layout.elements:
        box = []
        for k, value in enumerate((e.bbox.left, e.bbox.top, e.bbox.width, e.bbox.height)):
            if draw(st.integers(0, 5)) == 0:
                value = draw(st.sampled_from(_EXTREMES))
                if k < 2 and draw(st.booleans()):
                    value = -value
            box.append(value)
        elements.append(Element(e.label, BBox(*box)))
    return Layout(layout.id, layout.canvas, tuple(elements))


_PARITY_RNG = np.random.default_rng(41)
_PARITY_RASTERS = [None] + [SaliencyRaster(w, h, _PARITY_RNG.random((h, w)))
                            for w, h in ((1, 1), (103, 150), (5, 3))]
_PARITY_STATS = AreaStats(means={"text": 0.05, "logo": 0.02, "underlay": 0.1})
_PARITY_CONSTRAINTS = [
    ConstraintSpec("gen_t", {"categories": {"text": 2, "logo": 1}}),
    ConstraintSpec("gen_ts", {"canvas": [400, 300], "elements": [
        {"label": "text", "width": 150, "height": 40},
        {"label": "logo", "width": 200.5, "height": 60},
        {"label": "text", "width": 40, "height": 30}]}),
    ConstraintSpec("gen_ts", {"elements": [{"label": "underlay", "width": 0.5,
                                            "height": 0.25}]}),
    ConstraintSpec("gen_r", {"elements": ["text", "logo", "text", "underlay"], "relations": [
        [0, "above", 1], [1, "below", 0], [0, "left-of", 2], [2, "right-of", 0],
        [1, "larger", 3], [3, "smaller", 1], [0, "equal", 2]]}),
    ConstraintSpec("content_aware", {"canvas": [400, 300],
                                     "categories": {"text": 1, "underlay": 1}}),
]


def _repr_or_error(function, *args):
    try:
        return repr(function(*args))
    except (ValueError, OverflowError, EmptyLayout, MissingLabelStats,
            ZeroTrainingArea) as exc:
        return type(exc).__name__


def _features_bits(layout):
    labels, feats = retrieval._features(layout, VOCAB)
    want_labels, want_feats = object_path_features(layout, VOCAB)
    return ((labels.dtype, labels.shape, labels.tobytes()),
            (feats.dtype, feats.shape, feats.tobytes())), \
        ((want_labels.dtype, want_labels.shape, want_labels.tobytes()),
         (want_feats.dtype, want_feats.shape, want_feats.tobytes()))


@settings(max_examples=400, deadline=None)
@given(_layouts_with_extremes(), _layouts_with_extremes(),
       st.sampled_from(_PARITY_RASTERS), st.sampled_from(_PARITY_RASTERS),
       st.sampled_from(((), ("underlay",))))
def test_unit_boxes_readers_equal_the_object_path(layout, reference, saliency, gradient,
                                                  exclude):
    """Every reader of ``unit_boxes`` gives the object path's value, bit for
    bit, or raises what it raised; where the object path overflowed only in
    the coverage mask, the samples now have values."""
    want = _repr_or_error(object_path_samples, layout, reference, saliency, gradient, exclude)
    got = _repr_or_error(layout_samples, layout, reference, saliency, gradient, exclude)
    if want == "OverflowError" and not _repr_or_error(
            object_path_samples, layout, reference, None, None, exclude) == "OverflowError":
        assert got.startswith("{")
    else:
        assert got == want
    assert _repr_or_error(miou, layout, reference) == \
        _repr_or_error(object_path_max_iou, layout, reference)
    for population in ([layout], [layout, reference]):
        assert _repr_or_error(size_reasonableness, population, _PARITY_STATS) == \
            _repr_or_error(object_path_size_reasonableness, population, _PARITY_STATS)
    got_features, want_features = _features_bits(layout)
    assert got_features == want_features
    constraints = list(_PARITY_CONSTRAINTS)
    try:
        constraints.append(ConstraintSpec("completion",
                                          {"layout": layout_to_record(reference)}))
    except InvalidPayload:
        pass
    for constraint in constraints:
        assert repr(constraint_satisfaction(layout, constraint)) == \
            repr(object_path_constraint_satisfaction(layout, constraint))
