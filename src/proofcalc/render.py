"""Deterministic renderers: text trees, SVG trees, SVG proportion bars.

Every renderer is a pure function of its inputs and emits byte-identical
output across runs and platforms. Geometry is computed in exact fractions
of the fixed canvas width and height and only quantized (2 decimal places,
ties to even) at serialization, which keeps golden files stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence
from xml.sax.saxutils import escape

from .core import Scenario, compute_posterior
from .freqtree import FrequencyTree
from .scenario_io import format_fixed

ROLE_LABELS = ("hits", "quiet hypothesis", "false alarms", "quiet complement")

#: SVG canvas in pixels, count and label font sizes, and the hypothesis and complement colours.
WIDTH, HEIGHT = 640, 400
FONT_SIZE = 14
LABEL_SIZE = 10
HYPOTHESIS_COLOR = "#1f77b4"
COMPLEMENT_COLOR = "#d97706"


def _coord(value: Fraction) -> str:
    """Quantize a coordinate to 2 decimal places (ties to even), trimming trailing zeros."""
    return format_fixed(round(value * 100), 2)


def _signed(value: Fraction) -> str:
    return f"+{value}" if value > 0 else str(value)


# --- text tree -------------------------------------------------------------


def _place(line: List[str], start: int, text: str) -> None:
    for offset, char in enumerate(text):
        line[start + offset] = char


def _centered(line: List[str], span_start: int, span_width: int, text: str) -> None:
    _place(line, span_start + max(0, (span_width - len(text)) // 2), text)


def render_tree_text(tree: FrequencyTree) -> str:
    """Fixed-width, three-row drawing of a frequency tree.

    Row 1 is the population, row 2 the labeled hypothesis/complement
    counts, row 3 the four leaves with their role labels. When counts were
    rounded, a footer reports the per-leaf residuals.
    """
    pop = str(tree.population)
    row2 = (str(tree.hypothesis_count), str(tree.complement_count))
    row2_labels = (tree.hypothesis_label, f"not ({tree.hypothesis_label})")
    leaf_cells = tuple(str(leaf) for leaf in tree.leaves)

    def ceil_div(a: int, b: int) -> int:
        return -(-a // b)

    colw = max(
        10,
        max(len(s) for s in leaf_cells + ROLE_LABELS) + 2,
        ceil_div(max(len(s) for s in row2 + row2_labels) + 2, 2),
        ceil_div(len(pop) + 2, 4),
    )
    width = 4 * colw
    leaf_centers = tuple(i * colw + colw // 2 for i in range(4))
    left_center, mid_center, right_center = colw, 2 * colw, 3 * colw

    def draw_connector(line: List[str], points: Sequence[int]) -> None:
        for col in range(points[0], points[-1] + 1):
            line[col] = "-"
        for col in points:
            line[col] = "+"

    lines = [[" "] * width for _ in range(7)]
    _centered(lines[0], 0, width, pop)
    draw_connector(lines[1], (left_center, mid_center, right_center))
    _centered(lines[2], 0, 2 * colw, row2[0])
    _centered(lines[2], 2 * colw, 2 * colw, row2[1])
    _centered(lines[3], 0, 2 * colw, row2_labels[0])
    _centered(lines[3], 2 * colw, 2 * colw, row2_labels[1])
    draw_connector(lines[4], (leaf_centers[0], left_center, leaf_centers[1]))
    draw_connector(lines[4], (leaf_centers[2], right_center, leaf_centers[3]))
    for i in range(4):
        _centered(lines[5], i * colw, colw, leaf_cells[i])
        _centered(lines[6], i * colw, colw, ROLE_LABELS[i])

    text_lines = ["".join(line).rstrip() for line in lines]
    if any(tree.rounding_residuals):
        residuals = ", ".join(_signed(r) for r in tree.rounding_residuals)
        text_lines.append(f"rounding residuals (count - expected): {residuals}")
    return "\n".join(text_lines) + "\n"


# --- SVG helpers -----------------------------------------------------------

_FONT = "Helvetica, Arial, sans-serif"


def _svg_open() -> List[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]


def _svg_line(x1, y1, x2, y2, stroke: str, width: str = "1") -> str:
    return (
        f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _svg_text(x, y, content: str, size: int, fill: str, anchor: str = "middle") -> str:
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}" font-family="{_FONT}" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{escape(content)}</text>'
    )


def _svg_rect(elem_id: str, x, y, w, h, fill: str) -> str:
    return (
        f'<rect id="{elem_id}" x="{_coord(x)}" y="{_coord(y)}" width="{_coord(w)}" '
        f'height="{_coord(h)}" fill="{fill}"/>'
    )


# --- SVG tree --------------------------------------------------------------


def render_tree_svg(tree: FrequencyTree) -> bytes:
    """SVG drawing of a frequency tree on the fixed canvas."""
    w = Fraction(WIDTH)
    h = Fraction(HEIGHT)

    pop_xy = (w / 2, h * 2 / 16)
    row2_x = (w * 2 / 8, w * 6 / 8)
    row2_y = h * 6 / 16
    leaf_x = tuple(w * (2 * i + 1) / 8 for i in range(4))
    leaf_y = h * 11 / 16
    pad = h / 32

    side_colors = (HYPOTHESIS_COLOR, COMPLEMENT_COLOR)
    leaf_colors = (side_colors[0], side_colors[0], side_colors[1], side_colors[1])

    parts = _svg_open()
    for x in row2_x:
        parts.append(_svg_line(pop_xy[0], pop_xy[1] + pad, x, row2_y - pad, "#666666"))
    for i, x in enumerate(leaf_x):
        parts.append(_svg_line(row2_x[i // 2], row2_y + pad, x, leaf_y - pad, "#666666"))

    parts.append(_svg_text(pop_xy[0], pop_xy[1], str(tree.population), FONT_SIZE, "#000000"))
    row2_counts = (tree.hypothesis_count, tree.complement_count)
    row2_labels = (tree.hypothesis_label, f"not ({tree.hypothesis_label})")
    for i, x in enumerate(row2_x):
        parts.append(_svg_text(x, row2_y, str(row2_counts[i]), FONT_SIZE, side_colors[i]))
        parts.append(_svg_text(x, h * 7 / 16, row2_labels[i], LABEL_SIZE, "#444444"))
    for i, x in enumerate(leaf_x):
        parts.append(_svg_text(x, leaf_y, str(tree.leaves[i]), FONT_SIZE, leaf_colors[i]))
        parts.append(_svg_text(x, h * 25 / 32, ROLE_LABELS[i], LABEL_SIZE, "#444444"))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


# --- SVG proportion bars ---------------------------------------------------


def render_proportion_bars_svg(scenario: Scenario) -> bytes:
    """Two-bar diagram of one Bayesian update.

    The top bar spans the whole population and is split at the base rate.
    The bottom bar covers only the evidence (its width is the evidence
    marginal times the top bar's width) and is split at the posterior. The
    connector joins the two split points; each split sits at its
    probability's fraction of the top bar's width, so the connector leans
    right exactly when the hit rate exceeds the false-alarm rate, is
    vertical when they are equal, and leans left otherwise.

    Raises DegenerateEvidence when the evidence marginal is zero (there is
    no bottom bar to draw).
    """
    breakdown = compute_posterior(scenario)
    base = scenario.base_rate
    marginal = breakdown.evidence_marginal
    posterior = breakdown.posterior

    w = Fraction(WIDTH)
    h = Fraction(HEIGHT)
    x0 = w / 16
    bar_w = w * 7 / 8
    bar_h = h / 8
    top_y = h * 3 / 16
    bottom_y = h * 11 / 16

    top_split = x0 + base * bar_w
    bottom_split = x0 + posterior * bar_w
    bottom_left = bottom_split - posterior * marginal * bar_w
    bottom_right = bottom_split + (1 - posterior) * marginal * bar_w

    parts = _svg_open()
    parts.append(_svg_rect("top-hypothesis", x0, top_y, top_split - x0, bar_h, HYPOTHESIS_COLOR))
    parts.append(
        _svg_rect("top-complement", top_split, top_y, x0 + bar_w - top_split, bar_h, COMPLEMENT_COLOR)
    )
    parts.append(
        _svg_rect("bottom-hit", bottom_left, bottom_y, bottom_split - bottom_left, bar_h, HYPOTHESIS_COLOR)
    )
    parts.append(
        _svg_rect(
            "bottom-false-alarm",
            bottom_split,
            bottom_y,
            bottom_right - bottom_split,
            bar_h,
            COMPLEMENT_COLOR,
        )
    )
    parts.append(
        f'<line id="split-connector" x1="{_coord(top_split)}" y1="{_coord(top_y + bar_h)}" '
        f'x2="{_coord(bottom_split)}" y2="{_coord(bottom_y)}" stroke="#333333" stroke-width="1.5"/>'
    )

    parts.append(_svg_text(x0, h * 2 / 16, scenario.hypothesis_label, LABEL_SIZE, HYPOTHESIS_COLOR, "start"))
    parts.append(
        _svg_text(x0 + bar_w, h * 2 / 16, f"not ({scenario.hypothesis_label})", LABEL_SIZE, COMPLEMENT_COLOR, "end")
    )
    for x, y, share in ((top_split, top_y + bar_h + h / 32, base), (bottom_split, bottom_y - h / 32, posterior)):
        parts.append(_svg_text(x, y, format_fixed(round(share * 1000), 1) + "%", LABEL_SIZE, "#000000"))
    parts.append(
        _svg_text(x0, h * 29 / 32, f"hits ({scenario.evidence_label})", LABEL_SIZE, HYPOTHESIS_COLOR, "start")
    )
    parts.append(_svg_text(x0 + bar_w, h * 29 / 32, "false alarms", LABEL_SIZE, COMPLEMENT_COLOR, "end"))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
