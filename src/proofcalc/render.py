"""Deterministic renderers: text trees, SVG trees, SVG proportion bars.

Every renderer is a pure function of its inputs and emits byte-identical
output across runs and platforms. The text tree is built line by line, each
row's fields centred by `str.format` with the counts and labels passed as
arguments, never into the format string; a bounded cache keeps, per column
width, its fixed rows and its row formats. Each SVG template is built once,
as literal pieces with a slot for each value that a call fills and joins
once. All geometry is integers in hundredths of a pixel, the canvas divides
exactly into the template's coordinates, and bar positions and percentages
are exact integer ratios of the leaf joints, each rounded once, ties to
even, and written by `scenario_io.format_fixed`, which keeps goldens stable.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .core import Scenario, compute_posterior, leaf_joints
from .scenario_io import check_label, format_fixed

ROLE_LABELS = ("hits", "quiet hypothesis", "false alarms", "quiet complement")
#: The widest role label: no leaf column is narrower than this plus two.
_ROLE_WIDTH = max(map(len, ROLE_LABELS))

#: SVG canvas in pixels, count and label font sizes, and the hypothesis and complement colours.
WIDTH, HEIGHT = 640, 400
FONT_SIZE = 14
LABEL_SIZE = 10
HYPOTHESIS_COLOR = "#1f77b4"
COMPLEMENT_COLOR = "#d97706"


def _coord(value: int | str) -> str:
    """A coordinate in hundredths of a pixel as pixels, trimming trailing zeros; a template field stays."""
    return value if isinstance(value, str) else format_fixed(value, 1, 2)


def _escape(text: str) -> str:
    """`text` as XML character data: `&`, `<` and `>` become entities, `&` first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _signed(value: Fraction | int) -> str:
    """`value`, a Fraction or an int, as `str` writes it, `+` first when positive."""
    numerator, denominator = value.as_integer_ratio()
    return ("+" if numerator > 0 else "") + (f"{numerator}/{denominator}" if denominator != 1 else str(numerator))


# --- text tree -------------------------------------------------------------


@lru_cache(maxsize=64)  # bounded: a long label widens the columns, and each width would keep its rows
def _fixed_rows(colw: int) -> tuple[str, ...]:
    """What depends only on the column width: the formats of a row of one, two and four fields (`^` centres
    a text with the smaller half of its spare columns on the left), the row-2 connector, the leaf connectors
    and the role labels."""
    one, two, four = ("{:^%d}" % (4 * colw), "{:^%d}" % (2 * colw) * 2, "{:^%d}" % colw * 4)
    half = colw // 2
    fork = "+" + "-" * (colw - half - 1) + "+" + "-" * (half - 1) + "+"  # a leaf pair's centers and their parent's
    links = " " * colw + ("+" + "-" * (colw - 1)) * 2 + "+"  # the population's center and row 2's
    return one, two, four, links, " " * half + fork + " " * (colw - 1) + fork, four.format(*ROLE_LABELS).rstrip()


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
    leaf_cells = tuple(map(str, tree[3:7]))  # hits, quiet hypothesis, false alarms, quiet complement
    # Every text gets at least two spare columns in its field (colw, 2·colw or 4·colw wide), so none overflows it.
    # The population needs no term of its own: a row-2 count has all but one of its digits, in half its field.
    colw = max(max(_ROLE_WIDTH, *map(len, leaf_cells)) + 2, -(-(max(map(len, row2 + row2_labels)) + 2) // 2))

    one, two, four, links, forks, roles = _fixed_rows(colw)
    text = "\n".join([
        one.format(pop).rstrip(), links, two.format(*row2).rstrip(), two.format(*row2_labels).rstrip(), forks,
        four.format(*leaf_cells).rstrip(), roles, "",
    ])
    if any(tree.rounding_residuals):
        text += f"rounding residuals (count - expected): {', '.join(map(_signed, tree.rounding_residuals))}\n"
    return text


# --- SVG helpers -----------------------------------------------------------

_FONT = "Helvetica, Arial, sans-serif"

#: SVG geometry in hundredths of a pixel: the bars' left edge (a 16th of the width), the top bar's
#: width, and a 32nd of the height. Each divides the canvas exactly.
_X0, _BAR, _Y = WIDTH * 100 // 16, WIDTH * 100 * 7 // 8, HEIGHT * 100 // 32


def _svg(parts: list[str]) -> str:
    """An SVG document: the XML header, the canvas and its white background, then `parts`."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        *parts,
        "</svg>\n",
    ])


def _svg_line(x1, y1, x2, y2) -> str:
    return (
        f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
        f'stroke="#666666" stroke-width="1"/>'
    )


def _svg_text(x, y, content: str, size: int, fill: str, anchor: str = "middle") -> str:
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}" font-family="{_FONT}" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{_escape(content)}</text>'
    )


# --- SVG tree --------------------------------------------------------------


@cache
def _tree_svg_template() -> tuple[str, ...]:
    """The SVG tree as literal text (even indices) and a slot per count and label: x in _X0, y in _Y steps."""
    pop_x, pop_y, row2_y, leaf_y = 8 * _X0, 4 * _Y, 12 * _Y, 22 * _Y
    row2_x = (4 * _X0, 12 * _X0)
    leaf_x = tuple((4 * i + 2) * _X0 for i in range(4))
    colors = (HYPOTHESIS_COLOR, COMPLEMENT_COLOR)

    parts = [_svg_line(pop_x, pop_y + _Y, x, row2_y - _Y) for x in row2_x]
    parts += [_svg_line(row2_x[i // 2], row2_y + _Y, x, leaf_y - _Y) for i, x in enumerate(leaf_x)]
    parts.append(_svg_text(pop_x, pop_y, "{}", FONT_SIZE, "#000000"))
    for x, color in zip(row2_x, colors):
        parts.append(_svg_text(x, row2_y, "{}", FONT_SIZE, color))
        parts.append(_svg_text(x, 14 * _Y, "{}", LABEL_SIZE, "#444444"))
    for i, x in enumerate(leaf_x):
        parts.append(_svg_text(x, leaf_y, "{}", FONT_SIZE, colors[i // 2]))
        parts.append(_svg_text(x, 25 * _Y, ROLE_LABELS[i], LABEL_SIZE, "#444444"))
    return tuple(_svg(parts).replace("}", "{").split("{"))


def render_tree_svg(tree: FrequencyTree) -> bytes:
    """SVG drawing of a frequency tree on the fixed canvas; raises ValueError for a label check_label refuses."""
    label = _escape(check_label("hypothesis_label", tree.hypothesis_label))
    counts = (tree.population, tree.hypothesis_count, label, tree.complement_count, f"not ({label})", *tree.leaves)
    parts = list(_tree_svg_template())
    parts[1::2] = map(str, counts)
    return "".join(parts).encode("utf-8")


# --- SVG proportion bars ---------------------------------------------------


@cache
def _bars_svg_template() -> tuple[str, ...]:
    """The bars SVG as literal text (even indices) and the name of each split, width, share and label."""
    right, bar_h, top_y, bottom_y = _X0 + _BAR, 4 * _Y, 6 * _Y, 22 * _Y
    return tuple(_svg([
        f'<rect id="{elem_id}" x="{_coord(x)}" y="{_coord(y)}" width="{{{width}}}" '
        f'height="{_coord(bar_h)}" fill="{fill}"/>'
        for elem_id, x, y, width, fill in (
            ("top-hypothesis", _X0, top_y, "top_hit", HYPOTHESIS_COLOR),
            ("top-complement", "{top}", top_y, "top_rest", COMPLEMENT_COLOR),
            ("bottom-hit", "{left}", bottom_y, "hit", HYPOTHESIS_COLOR),
            ("bottom-false-alarm", "{split}", bottom_y, "alarm", COMPLEMENT_COLOR),
        )
    ] + [
        f'<line id="split-connector" x1="{{top}}" y1="{_coord(top_y + bar_h)}" '
        f'x2="{{split}}" y2="{_coord(bottom_y)}" stroke="#333333" stroke-width="1.5"/>',
        _svg_text(_X0, 4 * _Y, "{label}", LABEL_SIZE, HYPOTHESIS_COLOR, "start"),
        _svg_text(right, 4 * _Y, "not ({label})", LABEL_SIZE, COMPLEMENT_COLOR, "end"),
        _svg_text("{top}", top_y + bar_h + _Y, "{base}%", LABEL_SIZE, "#000000"),
        _svg_text("{split}", bottom_y - _Y, "{posterior}%", LABEL_SIZE, "#000000"),
        _svg_text(_X0, 29 * _Y, "hits ({evidence})", LABEL_SIZE, HYPOTHESIS_COLOR, "start"),
        _svg_text(right, 29 * _Y, "false alarms", LABEL_SIZE, COMPLEMENT_COLOR, "end"),
    ]).replace("}", "{").split("{"))


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
    hit, quiet, alarm, _, total = leaf_joints(scenario)
    hypothesis, marginal = hit + quiet, hit + alarm
    if not marginal:
        compute_posterior(scenario)  # raises DegenerateEvidence with the kernel's message
    # Hundredths of a pixel: the top split is _X0 + _BAR·hypothesis/total, and the hit bar,
    # hit/total wide, ends at the bottom split, _X0 + _BAR·hit/marginal.
    fields = {
        "top": format_fixed(_X0 * total + _BAR * hypothesis, total, 2),
        "top_hit": format_fixed(_BAR * hypothesis, total, 2), "base": format_fixed(1000 * hypothesis, total, 1),
        "top_rest": format_fixed(_BAR * (total - hypothesis), total, 2), "alarm": format_fixed(_BAR * alarm, total, 2),
        "split": format_fixed(_X0 * marginal + _BAR * hit, marginal, 2), "hit": format_fixed(_BAR * hit, total, 2),
        "left": format_fixed(_X0 * marginal * total + _BAR * hit * (total - marginal), marginal * total, 2),
        "posterior": format_fixed(1000 * hit, marginal, 1),
        "label": _escape(check_label("hypothesis_label", scenario.hypothesis_label)),
        "evidence": _escape(check_label("evidence_label", scenario.evidence_label)),
    }
    parts = list(_bars_svg_template())
    parts[1::2] = map(fields.__getitem__, parts[1::2])
    return "".join(parts).encode("utf-8")
