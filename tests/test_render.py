"""Text and SVG renderers: layout, geometry, and byte-for-byte determinism."""

import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from proofcalc import (
    DegenerateEvidence,
    Scenario,
    build_tree,
    compute_posterior,
    render_proportion_bars_svg,
    render_tree_svg,
    render_tree_text,
)

from cases import BARS_POSTERIOR, BARS_SCENARIO, CASE_IDS, CASES
from conftest import check_golden


def _texts(svg: bytes):
    root = ET.fromstring(svg)
    return [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]


def _rect(svg: bytes, rect_id: str) -> dict:
    root = ET.fromstring(svg)
    for node in root.iter("{http://www.w3.org/2000/svg}rect"):
        if node.get("id") == rect_id:
            return {key: float(node.get(key)) for key in ("x", "y", "width", "height")}
    raise AssertionError(f"no rect with id {rect_id!r}")


def _connector(svg: bytes) -> dict:
    root = ET.fromstring(svg)
    for node in root.iter("{http://www.w3.org/2000/svg}line"):
        if node.get("id") == "split-connector":
            return {key: float(node.get(key)) for key in ("x1", "y1", "x2", "y2")}
    raise AssertionError("no split-connector line")


# ---------------------------------------------------------------- text trees


def test_text_tree_rows_in_reading_order():
    lines = render_tree_text(build_tree(CASES[0].scenario, 100)).splitlines()
    assert lines[0].split() == ["100"]
    assert lines[2].split() == ["40", "60"]
    assert lines[3].split() == ["runs", "on", "Main", "Street", "not", "(runs", "on", "Main", "Street)"]
    assert lines[5].split() == ["32", "8", "6", "54"]
    assert lines[6].split() == ["hits", "quiet", "hypothesis", "false", "alarms", "quiet", "complement"]


def test_text_tree_minimal_population():
    lines = render_tree_text(build_tree(Scenario(1, 1, 0), 1)).splitlines()
    assert lines[0].split() == ["1"]
    assert lines[2].split() == ["1", "0"]
    assert lines[5].split() == ["1", "0", "0", "0"]


def test_text_tree_leaf_counts_for_heavy_false_alarms():
    text = render_tree_text(build_tree(CASES[6].scenario, 100))
    assert text.splitlines()[5].split() == ["32", "8", "48", "12"]


def test_text_tree_residual_footer_only_when_rounded():
    exact = render_tree_text(build_tree(CASES[0].scenario, 100))
    assert "rounding residuals" not in exact

    rounded = render_tree_text(build_tree(Scenario(0.4, 0.95, 0.1), 10))
    assert "rounding residuals (count - expected): +1/5, -1/5, +2/5, -2/5" in rounded


def test_text_tree_is_line_feed_terminated_with_no_trailing_spaces():
    text = render_tree_text(build_tree(CASES[0].scenario, 100))
    assert text.endswith("\n") and "\r" not in text
    assert all(line == line.rstrip() for line in text.splitlines())


def test_text_tree_respects_labels():
    tree = build_tree(
        Scenario(0.4, 0.8, 0.1, hypothesis_label="owns a dog", evidence_label="barks"), 100
    )
    text = render_tree_text(tree)
    assert "owns a dog" in text and "not (owns a dog)" in text


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_text_tree_matches_golden(case):
    text = render_tree_text(build_tree(case.scenario, 100))
    check_golden(f"tree_{case.label}.txt", text.encode("utf-8"))


# ----------------------------------------------------------------- SVG trees


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_svg_tree_matches_golden(case):
    svg = render_tree_svg(build_tree(case.scenario, 100))
    assert svg == render_tree_svg(build_tree(case.scenario, 100))  # two runs, same bytes
    check_golden(f"tree_{case.label}.svg", svg)


def test_svg_tree_is_well_formed_with_counts_as_text():
    svg = render_tree_svg(build_tree(CASES[2].scenario, 100))
    texts = _texts(svg)
    assert "64" in texts and "2" in texts and "100" in texts


def test_svg_tree_residual_annotations_are_opt_in():
    tree = build_tree(Scenario(0.4, 0.95, 0.1), 10)
    plain = render_tree_svg(tree)
    assert "+1/5" not in plain.decode()


# ------------------------------------------------------------------ bar SVGs


def test_bars_golden():
    svg = render_proportion_bars_svg(BARS_SCENARIO)
    assert svg == render_proportion_bars_svg(BARS_SCENARIO)
    check_golden("bars_b33-h60-f20.svg", svg)
    check_golden("bars_b40-h80-f10.svg", render_proportion_bars_svg(CASES[0].scenario))


def test_bars_split_positions_encode_the_probabilities():
    svg = render_proportion_bars_svg(CASES[0].scenario)
    top_h = _rect(svg, "top-hypothesis")
    top_c = _rect(svg, "top-complement")
    bottom_h = _rect(svg, "bottom-hit")
    bottom_f = _rect(svg, "bottom-false-alarm")

    top_width = top_h["width"] + top_c["width"]
    bottom_width = bottom_h["width"] + bottom_f["width"]
    breakdown = compute_posterior(CASES[0].scenario)

    assert abs(top_h["width"] / top_width - float(CASES[0].scenario.base_rate)) < 0.5 / top_width
    assert abs(bottom_width / top_width - float(breakdown.evidence_marginal)) < 0.5 / top_width
    assert abs(bottom_h["width"] / bottom_width - float(breakdown.posterior)) < 0.5 / bottom_width
    # segments are adjacent
    assert top_h["x"] + top_h["width"] == pytest.approx(top_c["x"])
    assert bottom_h["x"] + bottom_h["width"] == pytest.approx(bottom_f["x"])


def test_bars_walkthrough_split_lands_near_point_596():
    svg = render_proportion_bars_svg(BARS_SCENARIO)
    bottom_h = _rect(svg, "bottom-hit")
    bottom_f = _rect(svg, "bottom-false-alarm")
    split_fraction = bottom_h["width"] / (bottom_h["width"] + bottom_f["width"])
    assert abs(split_fraction - 0.5964) <= 0.002
    assert abs(split_fraction - float(BARS_POSTERIOR)) < 0.001


def test_bars_connector_joins_the_two_split_points():
    svg = render_proportion_bars_svg(BARS_SCENARIO)
    top_h = _rect(svg, "top-hypothesis")
    bottom_h = _rect(svg, "bottom-hit")
    line = _connector(svg)
    assert line["x1"] == pytest.approx(top_h["x"] + top_h["width"])
    assert line["x2"] == pytest.approx(bottom_h["x"] + bottom_h["width"])
    assert line["y1"] == pytest.approx(top_h["y"] + top_h["height"])
    assert line["y2"] == pytest.approx(bottom_h["y"])


def test_bars_slant_direction_tracks_the_rate_gap():
    lean_right = _connector(render_proportion_bars_svg(Scenario(0.4, 0.8, 0.1)))
    assert lean_right["x2"] > lean_right["x1"]  # hit rate above false-alarm rate

    lean_left = _connector(render_proportion_bars_svg(Scenario(0.4, 0.3, 0.6)))
    assert lean_left["x2"] < lean_left["x1"]

    # high prior but weaker evidence still slants by sign(hit - false alarm)
    lean = _connector(render_proportion_bars_svg(Scenario(0.9, 0.2, 0.1)))
    assert lean["x2"] > lean["x1"]


def test_bars_equal_rates_from_half_prior_are_vertical_and_centered():
    svg = render_proportion_bars_svg(Scenario(0.5, 0.3, 0.3))
    top_h = _rect(svg, "top-hypothesis")
    top_c = _rect(svg, "top-complement")
    line = _connector(svg)
    assert top_h["width"] == top_c["width"]
    assert line["x1"] == line["x2"]


def test_bars_degenerate_evidence_raises():
    with pytest.raises(DegenerateEvidence):
        render_proportion_bars_svg(Scenario(0.4, 0, 0))


# ---------------------------------------------------------------- well-formed


def test_all_fixture_svgs_parse_as_single_rooted_xml():
    for case in CASES:
        root = ET.fromstring(render_tree_svg(build_tree(case.scenario, 100)))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
    root = ET.fromstring(render_proportion_bars_svg(BARS_SCENARIO))
    assert root.tag == "{http://www.w3.org/2000/svg}svg"

