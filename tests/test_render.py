"""Text and SVG renderers: layout, geometry, and byte-for-byte determinism."""

import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofcalc import (
    EXACT_RATIONAL,
    LARGEST_REMAINDER,
    ROUNDING_POLICIES,
    DegenerateEvidence,
    FrequencyTree,
    Scenario,
    build_tree,
    compute_posterior,
    render_proportion_bars_svg,
    render_tree_svg,
    render_tree_text,
)
import proofcalc.render as render

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


@pytest.mark.parametrize("residuals", [(0, 0, 0, 0), (1, -1, 0, 0), (2, 0, -3, 1)])
def test_text_tree_writes_int_residuals_as_their_fractions(residuals):
    # A tree built by hand may hold int residuals; they render as the equal Fractions do, footer and all.
    counts = (100, 40, 60, 32, 8, 6, 54, True)
    as_ints = render_tree_text(FrequencyTree(*counts, residuals))
    assert as_ints == render_tree_text(FrequencyTree(*counts, tuple(map(Fraction, residuals))))
    assert ("rounding residuals" in as_ints) is any(residuals)
    mixed = (Fraction(1, 5), 0, -1, Fraction(4, 5))
    assert render_tree_text(FrequencyTree(*counts, mixed)).endswith(
        "rounding residuals (count - expected): +1/5, 0, -1, +4/5\n")


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


def test_text_tree_row_cache_is_bounded():
    # The column width grows with the label, and a scenario file's label may be about 1 MB long.
    for width in range(300):
        render_tree_text(build_tree(Scenario(0.4, 0.8, 0.1, hypothesis_label="x" * width), 100))
    info = render._fixed_rows.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 150


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


# --------------------------------------------- bar SVGs against a frozen reference


def _reference_bars_svg(scenario: Scenario) -> bytes:
    """The bars renderer as it was before its template: Fraction geometry, quantized per coordinate.

    Frozen here as the reference for the template renderer's bytes; it shares no helper with `render`, and
    writes its numbers itself rather than with `scenario_io.format_fixed`, which writes every decimal of `render`.
    """

    def fixed(value, places):
        """`value` rounded to `places` decimals, ties to even, written without trailing zeros."""
        whole, frac = divmod(round(value * 10**places), 10**places)
        return f"{whole}.{frac:0{places}}".rstrip("0").rstrip(".")

    def coord(value):
        return fixed(value, 2)

    def text(x, y, content, fill, anchor="middle"):
        content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return (
            f'<text x="{coord(x)}" y="{coord(y)}" font-family="Helvetica, Arial, sans-serif" '
            f'font-size="10" text-anchor="{anchor}" fill="{fill}">{content}</text>'
        )

    breakdown = compute_posterior(scenario)
    base, marginal, posterior = scenario.base_rate, breakdown.evidence_marginal, breakdown.posterior
    w, h = Fraction(640), Fraction(400)
    x0, bar_w, bar_h, top_y, bottom_y = w / 16, w * 7 / 8, h / 8, h * 3 / 16, h * 11 / 16
    blue, orange = "#1f77b4", "#d97706"

    top_split = x0 + base * bar_w
    bottom_split = x0 + posterior * bar_w
    bottom_left = bottom_split - posterior * marginal * bar_w
    bottom_right = bottom_split + (1 - posterior) * marginal * bar_w

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">',
        '<rect x="0" y="0" width="640" height="400" fill="#ffffff"/>',
    ]
    rects = (
        ("top-hypothesis", x0, top_y, top_split - x0, blue),
        ("top-complement", top_split, top_y, x0 + bar_w - top_split, orange),
        ("bottom-hit", bottom_left, bottom_y, bottom_split - bottom_left, blue),
        ("bottom-false-alarm", bottom_split, bottom_y, bottom_right - bottom_split, orange),
    )
    for elem_id, x, y, width, fill in rects:
        parts.append(
            f'<rect id="{elem_id}" x="{coord(x)}" y="{coord(y)}" width="{coord(width)}" '
            f'height="{coord(bar_h)}" fill="{fill}"/>'
        )
    parts.append(
        f'<line id="split-connector" x1="{coord(top_split)}" y1="{coord(top_y + bar_h)}" '
        f'x2="{coord(bottom_split)}" y2="{coord(bottom_y)}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(text(x0, h * 2 / 16, scenario.hypothesis_label, blue, "start"))
    parts.append(text(x0 + bar_w, h * 2 / 16, f"not ({scenario.hypothesis_label})", orange, "end"))
    for x, y, share in ((top_split, top_y + bar_h + h / 32, base), (bottom_split, bottom_y - h / 32, posterior)):
        parts.append(text(x, y, fixed(share * 100, 1) + "%", "#000000"))
    parts.append(text(x0, h * 29 / 32, f"hits ({scenario.evidence_label})", blue, "start"))
    parts.append(text(x0 + bar_w, h * 29 / 32, "false alarms", orange, "end"))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _rates_over(denominators):
    return denominators.flatmap(lambda d: st.builds(Fraction, st.integers(0, d), st.just(d)))


#: Rates 0 and 1, denominators up to 10^12, denominators of about 1,000 digits, and denominators
#: that make ties: an odd numerator over 112000 puts a split half a hundredth of a pixel off the grid.
BAR_RATES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    _rates_over(st.integers(1, 10**12)),
    _rates_over(st.sampled_from([3**2095, 7**1183, 10**999, 2**3300, 10**999 + 7])),
    _rates_over(st.sampled_from([112000, 224000, 2000, 560, 280])),
)
#: Split, width and percentage ties: 1/112000 of the bar is half a hundredth of a pixel, 1/2000 half a tenth of a percent.
TIES = [Fraction(1, 112000), Fraction(3, 112000), Fraction(1, 2000), Fraction(3, 2000), Fraction(1, 224000)]


def _assert_bars_match_reference(scenario: Scenario) -> None:
    try:
        want = _reference_bars_svg(scenario)
    except DegenerateEvidence as exc:
        with pytest.raises(DegenerateEvidence) as raised:
            render_proportion_bars_svg(scenario)
        assert str(raised.value) == str(exc)
        return
    assert render_proportion_bars_svg(scenario) == want


@settings(deadline=None)
@given(BAR_RATES, BAR_RATES, BAR_RATES, st.text("ab &<>{}", max_size=6), st.text("ab &<>{}", max_size=6))
@example(Fraction(2, 5), Fraction(0), Fraction(0), "a", "b")  # degenerate: zero evidence marginal
@example(Fraction(1, 112000), Fraction(4, 5), Fraction(1, 10), "&<>", "{}")  # top split 4000.5 rounds to 4000
@example(Fraction(0), Fraction(4, 5), Fraction(1, 10), "a", "b")  # top split at the left edge
@example(Fraction(1), Fraction(4, 5), Fraction(1, 10), "a", "b")  # top split at the right edge
@example(Fraction(4 * 10**998 + 1, 10**999 + 7), Fraction(4, 5), Fraction(1, 10), "a", "b")  # a 1,000-digit base rate
def test_bars_bytes_equal_the_reference(base, hit, alarm, hypothesis_label, evidence_label):
    _assert_bars_match_reference(Scenario(base, hit, alarm, hypothesis_label, evidence_label))


@pytest.mark.parametrize("tie", TIES, ids=str)
def test_bars_ties_round_to_even_as_the_reference(tie):
    # The tie as the base rate (top split and its widths, base percentage), then as the
    # posterior: a half prior with hit rate tie and false-alarm rate 1 - tie gives posterior tie.
    for scenario in (Scenario(tie, Fraction(4, 5), Fraction(1, 10)), Scenario(Fraction(1, 2), tie, 1 - tie)):
        _assert_bars_match_reference(scenario)
    assert compute_posterior(Scenario(Fraction(1, 2), tie, 1 - tie)).posterior == tie


# -------------------------------------------- text trees against a frozen reference


def _reference_tree_text(tree) -> str:
    """The text tree as it was drawn before it was built line by line: a 7 x width character grid.

    Frozen here as the reference for `render_tree_text`'s bytes; it shares no helper with `render`.
    """
    role_labels = ("hits", "quiet hypothesis", "false alarms", "quiet complement")
    pop = str(tree.population)
    row2 = (str(tree.hypothesis_count), str(tree.complement_count))
    row2_labels = (tree.hypothesis_label, f"not ({tree.hypothesis_label})")
    leaf_cells = tuple(str(leaf) for leaf in tree.leaves)

    def ceil_div(a, b):
        return -(-a // b)

    colw = max(
        10,
        max(len(s) for s in leaf_cells + role_labels) + 2,
        ceil_div(max(len(s) for s in row2 + row2_labels) + 2, 2),
        ceil_div(len(pop) + 2, 4),
    )
    width = 4 * colw
    leaf_centers = tuple(i * colw + colw // 2 for i in range(4))
    left_center, mid_center, right_center = colw, 2 * colw, 3 * colw

    def place(line, start, text):
        for offset, char in enumerate(text):
            line[start + offset] = char

    def centered(line, span_start, span_width, text):
        place(line, span_start + max(0, (span_width - len(text)) // 2), text)

    def draw_connector(line, points):
        for col in range(points[0], points[-1] + 1):
            line[col] = "-"
        for col in points:
            line[col] = "+"

    lines = [[" "] * width for _ in range(7)]
    centered(lines[0], 0, width, pop)
    draw_connector(lines[1], (left_center, mid_center, right_center))
    centered(lines[2], 0, 2 * colw, row2[0])
    centered(lines[2], 2 * colw, 2 * colw, row2[1])
    centered(lines[3], 0, 2 * colw, row2_labels[0])
    centered(lines[3], 2 * colw, 2 * colw, row2_labels[1])
    draw_connector(lines[4], (leaf_centers[0], left_center, leaf_centers[1]))
    draw_connector(lines[4], (leaf_centers[2], right_center, leaf_centers[3]))
    for i in range(4):
        centered(lines[5], i * colw, colw, leaf_cells[i])
        centered(lines[6], i * colw, colw, role_labels[i])

    text_lines = ["".join(line).rstrip() for line in lines]
    if any(tree.rounding_residuals):
        residuals = ", ".join(f"+{r}" if r > 0 else str(r) for r in tree.rounding_residuals)
        text_lines.append(f"rounding residuals (count - expected): {residuals}")
    return "\n".join(text_lines) + "\n"


TREE_RATES = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), _rates_over(st.integers(1, 10**12)))
#: Characters check_label accepts: any code point but the C0 controls other than tab, surrogates, U+FFFE and U+FFFF.
LABEL_CHARS = st.characters(
    exclude_categories=("Cs",), exclude_characters="".join(map(chr, range(32))).replace("\t", "") + "\ufffe\uffff"
)
#: Labels of 0-120 such characters, with tab, non-ASCII, CJK and markup characters made common.
TREE_LABELS = st.text(st.one_of(st.sampled_from("\t é中文字&<> a"), LABEL_CHARS), max_size=120)
#: TREE_LABELS, and labels built from `{`, `}`, `{0}` and `{label}`, which a template fill or a format
#: string must copy as they are.
BRACE_LABELS = st.one_of(
    TREE_LABELS, st.lists(st.sampled_from(["{", "}", "{0}", "{label}", "&", "<x>", " "]), max_size=8).map("".join)
)
TREE_POPULATIONS = st.one_of(st.integers(1, 10**6), st.integers(1, 10**1000 - 1))


@settings(deadline=None)
@given(TREE_RATES, TREE_RATES, TREE_RATES, BRACE_LABELS, TREE_POPULATIONS, st.sampled_from(ROUNDING_POLICIES))
# The reference's column width is the largest of four terms; render_tree_text keeps only the two that
# can decide it. The floor of 10 and the population term never do: "quiet complement" alone needs 18
# columns, and one of the two row-2 counts has at least all but one of the population's digits, in
# half the population's field.
@example(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10), "", 1, LARGEST_REMAINDER)  # a role label, 18 columns
@example(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), "a", 4 * 10**40, LARGEST_REMAINDER)  # a 41-digit leaf
@example(Fraction(1, 3), Fraction(1, 7), Fraction(1, 10**12 - 1), "b", 10, EXACT_RATIONAL)  # a leaf fraction
@example(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10), "é中&<>\t" * 20, 100, LARGEST_REMAINDER)  # a row-2 label
@example(Fraction(1, 10**12), Fraction(1), Fraction(0), "c", 10**1000 - 1, EXACT_RATIONAL)  # a row-2 count
@example(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), "d", 10**999, LARGEST_REMAINDER)  # the population at its cap
@example(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10), "{0} & <x>", 100, LARGEST_REMAINDER)  # str.format fields
@example(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10), "{label}", 10, EXACT_RATIONAL)
def test_text_tree_bytes_equal_the_reference(base, hit, alarm, label, population, rounding):
    tree = build_tree(Scenario(base, hit, alarm, hypothesis_label=label), population, rounding)
    assert render_tree_text(tree) == _reference_tree_text(tree)


# --------------------------------------------- SVG trees against a frozen reference


def _reference_tree_svg(tree) -> bytes:
    """The SVG tree as `str.format` fills one template, in pixels, with its nine counts and labels.

    Frozen here as the reference for `render_tree_svg`'s bytes; it shares no helper with `render`.
    """

    def line(x1, y1, x2, y2):
        return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#666666" stroke-width="1"/>'

    def text(x, y, size, fill, content="{}"):
        return (
            f'<text x="{x}" y="{y}" font-family="Helvetica, Arial, sans-serif" '
            f'font-size="{size}" text-anchor="middle" fill="{fill}">{content}</text>'
        )

    blue, orange, grey = "#1f77b4", "#d97706", "#444444"
    roles = ("hits", "quiet hypothesis", "false alarms", "quiet complement")
    template = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">',
        '<rect x="0" y="0" width="640" height="400" fill="#ffffff"/>',
        line(320, 62.5, 160, 137.5),
        line(320, 62.5, 480, 137.5),
        *(line(160 if x < 320 else 480, 162.5, x, 262.5) for x in (80, 240, 400, 560)),
        text(320, 50, 14, "#000000"),
        text(160, 150, 14, blue),
        text(160, 175, 10, grey),
        text(480, 150, 14, orange),
        text(480, 175, 10, grey),
        *(part for i, x in enumerate((80, 240, 400, 560))
          for part in (text(x, 275, 14, (blue, orange)[i // 2]), text(x, 312.5, 10, grey, roles[i]))),
        "</svg>\n",
    ])
    label = tree.hypothesis_label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    counts = (tree.population, tree.hypothesis_count, label, tree.complement_count, f"not ({label})", *tree.leaves)
    return template.format(*counts).encode("utf-8")


@settings(deadline=None)
@given(TREE_RATES, TREE_RATES, TREE_RATES, BRACE_LABELS, TREE_POPULATIONS, st.sampled_from(ROUNDING_POLICIES))
@example(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10), "{0} & <x>", 100, LARGEST_REMAINDER)
@example(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10), "{label}", 10, EXACT_RATIONAL)
@example(Fraction(1, 3), Fraction(1, 7), Fraction(1, 10**12 - 1), "}{", 10, EXACT_RATIONAL)  # p/q leaf counts
@example(Fraction(1, 10**12), Fraction(1), Fraction(0), "{}", 10**1000 - 1, EXACT_RATIONAL)  # 1,000-digit counts
def test_svg_tree_bytes_equal_the_reference(base, hit, alarm, label, population, rounding):
    tree = build_tree(Scenario(base, hit, alarm, hypothesis_label=label), population, rounding)
    assert render_tree_svg(tree) == _reference_tree_svg(tree)


# ---------------------------------------------------------------- well-formed


@pytest.mark.parametrize("char", ["\x01", "\n", "\ufffe", "\udcff"])
def test_svg_renderers_refuse_a_label_check_label_refuses(char):
    label = f"a{char}b"
    tree = build_tree(Scenario("0.4", "0.8", "0.1", hypothesis_label=label), 100)
    for render in (render_tree_svg, render_tree_text):
        with pytest.raises(ValueError, match="^hypothesis_label may not contain "):
            render(tree)
    for key in ("hypothesis_label", "evidence_label"):
        with pytest.raises(ValueError, match=f"^{key} may not contain "):
            render_proportion_bars_svg(Scenario("0.4", "0.8", "0.1", **{key: label}))


def test_all_fixture_svgs_parse_as_single_rooted_xml():
    for case in CASES:
        root = ET.fromstring(render_tree_svg(build_tree(case.scenario, 100)))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
    root = ET.fromstring(render_proportion_bars_svg(BARS_SCENARIO))
    assert root.tag == "{http://www.w3.org/2000/svg}svg"

