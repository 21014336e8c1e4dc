"""Deterministic renderers: text trees, SVG trees, SVG proportion bars.

Every renderer is a pure function of its inputs and emits byte-identical
output across runs and platforms. The text tree is built line by line, each
count and label padded into its field. Each SVG fills a template built once
from exact fractions of the canvas; bar positions and percentages are exact
integer ratios of the rates. All are quantized ties to even, which keeps
goldens stable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, List

from .core import Scenario, compute_posterior, leaf_joints
from .scenario_io import check_label, format_fixed

if TYPE_CHECKING:
    from .freqtree import FrequencyTree

ROLE_LABELS = ("hits", "quiet hypothesis", "false alarms", "quiet complement")

#: SVG canvas in pixels, count and label font sizes, and the hypothesis and complement colours.
WIDTH, HEIGHT = 640, 400
FONT_SIZE = 14
LABEL_SIZE = 10
HYPOTHESIS_COLOR = "#1f77b4"
COMPLEMENT_COLOR = "#d97706"


def _coord(value: Fraction | str) -> str:
    """Quantize a coordinate to 2 decimal places (ties to even), trimming trailing zeros; a template field stays."""
    return value if isinstance(value, str) else format_fixed(round(value * 100), 2)


def _escape(text: str) -> str:
    """`text` as XML character data: `&`, `<` and `>` become entities, `&` first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _signed(value: Fraction) -> str:
    return f"+{value}" if value > 0 else str(value)


# --- text tree -------------------------------------------------------------


def render_tree_text(tree: FrequencyTree) -> str:
    """Fixed-width, three-row drawing of a frequency tree.

    Row 1 is the population, row 2 the labeled hypothesis/complement
    counts, row 3 the four leaves with their role labels. When counts were
    rounded, a footer reports the per-leaf residuals. Raises ValueError for
    a label check_label refuses, such as one that would break its line.
    """
    pop = str(tree.population)
    row2 = (str(tree.hypothesis_count), str(tree.complement_count))
    label = check_label("hypothesis_label", tree.hypothesis_label)
    row2_labels = (label, f"not ({label})")
    leaf_cells = tuple(str(leaf) for leaf in tree.leaves)
    # Every text gets at least two spare columns in its field (colw, 2·colw or 4·colw wide), so none overflows it.
    # The population needs no term of its own: a row-2 count has all but one of its digits, in half its field.
    colw = max(
        max(len(s) for s in leaf_cells + ROLE_LABELS) + 2,
        -(-(max(len(s) for s in row2 + row2_labels) + 2) // 2),
    )

    def fields(width: int, *texts: str) -> str:
        """Each text in a field `width` wide, the smaller half of its spare columns on the left."""
        return "".join((" " * ((width - len(text)) // 2) + text).ljust(width) for text in texts)

    half = colw // 2
    fork = "+" + "-" * (colw - half - 1) + "+" + "-" * (half - 1) + "+"  # a leaf pair's centers and their parent's
    lines = [
        fields(4 * colw, pop),
        " " * colw + ("+" + "-" * (colw - 1)) * 2 + "+",
        fields(2 * colw, *row2),
        fields(2 * colw, *row2_labels),
        " " * half + fork + " " * (colw - 1) + fork,
        fields(colw, *leaf_cells),
        fields(colw, *ROLE_LABELS),
    ]
    text_lines = [line.rstrip() for line in lines]
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
        f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{_escape(content)}</text>'
    )


# --- SVG tree --------------------------------------------------------------


@cache
def _tree_svg_template() -> str:
    """The SVG tree with a `{}` for each count and label, built once: its geometry is the canvas's."""
    w, h = Fraction(WIDTH), Fraction(HEIGHT)
    pop_x, pop_y = w / 2, h * 2 / 16
    row2_x = (w * 2 / 8, w * 6 / 8)
    leaf_x = tuple(w * (2 * i + 1) / 8 for i in range(4))
    row2_y, leaf_y, pad = h * 6 / 16, h * 11 / 16, h / 32
    colors = (HYPOTHESIS_COLOR, COMPLEMENT_COLOR)

    parts = _svg_open()
    for x in row2_x:
        parts.append(_svg_line(pop_x, pop_y + pad, x, row2_y - pad, "#666666"))
    for i, x in enumerate(leaf_x):
        parts.append(_svg_line(row2_x[i // 2], row2_y + pad, x, leaf_y - pad, "#666666"))

    parts.append(_svg_text(pop_x, pop_y, "{}", FONT_SIZE, "#000000"))
    for x, color in zip(row2_x, colors):
        parts.append(_svg_text(x, row2_y, "{}", FONT_SIZE, color))
        parts.append(_svg_text(x, h * 7 / 16, "{}", LABEL_SIZE, "#444444"))
    for i, x in enumerate(leaf_x):
        parts.append(_svg_text(x, leaf_y, "{}", FONT_SIZE, colors[i // 2]))
        parts.append(_svg_text(x, h * 25 / 32, ROLE_LABELS[i], LABEL_SIZE, "#444444"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_tree_svg(tree: FrequencyTree) -> bytes:
    """SVG drawing of a frequency tree on the fixed canvas; raises ValueError for a label check_label refuses."""
    label = _escape(check_label("hypothesis_label", tree.hypothesis_label))
    counts = (tree.population, tree.hypothesis_count, label, tree.complement_count, f"not ({label})")
    return _tree_svg_template().format(*map(str, counts + tree.leaves)).encode("utf-8")


# --- SVG proportion bars ---------------------------------------------------

#: The bars' left edge and the top bar's width, in hundredths of a pixel.
_X0, _BAR = WIDTH * 100 // 16, WIDTH * 100 * 7 // 8


def _fixed(numerator: int, denominator: int, places: int) -> str:
    """numerator/denominator rounded to an integer, ties to even as `round` does, then / 10**places as text."""
    quotient, remainder = divmod(numerator, denominator)
    return format_fixed(quotient + (2 * remainder + (quotient & 1) > denominator), places)


@cache
def _bars_svg_template() -> str:
    """The bars SVG with a named field for each split, width, share and label, built once."""
    w, h = Fraction(WIDTH), Fraction(HEIGHT)
    left, right, bar_h, top_y, bottom_y = w / 16, w * 15 / 16, h / 8, h * 3 / 16, h * 11 / 16
    parts = _svg_open() + [
        f'<rect id="{elem_id}" x="{_coord(x)}" y="{_coord(y)}" width="{{{width}}}" '
        f'height="{_coord(bar_h)}" fill="{fill}"/>'
        for elem_id, x, y, width, fill in (
            ("top-hypothesis", left, top_y, "top_hit", HYPOTHESIS_COLOR),
            ("top-complement", "{top}", top_y, "top_rest", COMPLEMENT_COLOR),
            ("bottom-hit", "{left}", bottom_y, "hit", HYPOTHESIS_COLOR),
            ("bottom-false-alarm", "{split}", bottom_y, "alarm", COMPLEMENT_COLOR),
        )
    ] + [
        f'<line id="split-connector" x1="{{top}}" y1="{_coord(top_y + bar_h)}" '
        f'x2="{{split}}" y2="{_coord(bottom_y)}" stroke="#333333" stroke-width="1.5"/>',
        _svg_text(left, h * 2 / 16, "{label}", LABEL_SIZE, HYPOTHESIS_COLOR, "start"),
        _svg_text(right, h * 2 / 16, "not ({label})", LABEL_SIZE, COMPLEMENT_COLOR, "end"),
        _svg_text("{top}", top_y + bar_h + h / 32, "{base}%", LABEL_SIZE, "#000000"),
        _svg_text("{split}", bottom_y - h / 32, "{posterior}%", LABEL_SIZE, "#000000"),
        _svg_text(left, h * 29 / 32, "hits ({evidence})", LABEL_SIZE, HYPOTHESIS_COLOR, "start"),
        _svg_text(right, h * 29 / 32, "false alarms", LABEL_SIZE, COMPLEMENT_COLOR, "end"),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


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
    no bottom bar to draw), and ValueError for a label check_label refuses.
    """
    b, d = scenario.base_rate._numerator, scenario.base_rate._denominator
    hit, _, alarm, _, total = leaf_joints(scenario)
    marginal = hit + alarm
    if not marginal:
        compute_posterior(scenario)  # raises DegenerateEvidence with the kernel's message
    # Hundredths of a pixel: the hit bar, hit/total wide, ends at the split, _X0 + _BAR·hit/marginal.
    return _bars_svg_template().format(
        top=_fixed(_X0 * d + _BAR * b, d, 2), top_hit=_fixed(_BAR * b, d, 2), top_rest=_fixed(_BAR * (d - b), d, 2),
        split=_fixed(_X0 * marginal + _BAR * hit, marginal, 2), hit=_fixed(_BAR * hit, total, 2),
        left=_fixed(_X0 * marginal * total + _BAR * hit * (total - marginal), marginal * total, 2),
        alarm=_fixed(_BAR * alarm, total, 2), base=_fixed(1000 * b, d, 1), posterior=_fixed(1000 * hit, marginal, 1),
        label=_escape(check_label("hypothesis_label", scenario.hypothesis_label)),
        evidence=_escape(check_label("evidence_label", scenario.evidence_label)),
    ).encode("utf-8")
