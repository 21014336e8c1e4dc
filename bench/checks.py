"""Output checks that share no code with proofcalc.

Each expectation is recomputed here from the generated rates with plain
integer arithmetic (cross-multiplication, gcd, lcm) or with the standard
library's XML and CSV parsers. Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

SVG_ROOT = "{http://www.w3.org/2000/svg}svg"
DEGENERATE_MARKER = "degenerate"
FOR_MOVING_PARTY = "for-moving-party"
FOR_DEFENDANT = "for-defendant"

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def exact_posterior(base: Fraction, hit: Fraction, alarm: Fraction) -> Optional[Fraction]:
    """p(H|E) by cross-multiplying the three rates; None when p(E) = 0."""
    bn, bd = base.numerator, base.denominator
    hn, hd = hit.numerator, hit.denominator
    an, ad = alarm.numerator, alarm.denominator
    num = bn * hn * ad
    den = num + (bd - bn) * an * hd
    if den == 0:
        return None
    return Fraction(num, den)


def leaf_joints(base: Fraction, hit: Fraction, alarm: Fraction) -> Tuple[Fraction, ...]:
    """The four leaf probabilities in branch order, each as an exact ratio of integers."""
    bn, bd = base.numerator, base.denominator
    hn, hd = hit.numerator, hit.denominator
    an, ad = alarm.numerator, alarm.denominator
    return (
        Fraction(bn * hn, bd * hd),
        Fraction(bn * (hd - hn), bd * hd),
        Fraction((bd - bn) * an, bd * ad),
        Fraction((bd - bn) * (ad - an), bd * ad),
    )


def min_integral_population(base: Fraction, hit: Fraction, alarm: Fraction, cap: int) -> Optional[int]:
    needed = math.lcm(*(joint.denominator for joint in leaf_joints(base, hit, alarm)))
    return needed if needed <= cap else None


def exceeds(posterior: Fraction, threshold: Fraction) -> bool:
    return posterior.numerator * threshold.denominator > threshold.numerator * posterior.denominator


def expected_verdict(posterior: Fraction, threshold: Fraction) -> str:
    return FOR_MOVING_PARTY if exceeds(posterior, threshold) else FOR_DEFENDANT


def check_tree(counts: Sequence, population: int, joints: Sequence[Fraction], exact: bool) -> List[str]:
    """Row conservation, plus leaves equal to N x joint wherever that is integral.

    `counts` is (population, hypothesis, complement, four leaves). With
    `exact` the leaves must equal N x joint even when that is fractional;
    otherwise non-integral leaves must be whole and within 2 of it.
    """
    n, hyp, comp, *leaves = counts
    problems = []
    if n != population:
        problems.append(f"tree population {n} != {population}")
    if hyp + comp != n or leaves[0] + leaves[1] != hyp or leaves[2] + leaves[3] != comp:
        problems.append(f"tree rows do not conserve: {counts}")
    expected = [population * joint for joint in joints]
    integral = all(e.denominator == 1 for e in expected)
    for leaf, e in zip(leaves, expected):
        if leaf < 0:
            problems.append(f"negative leaf {leaf}")
        if exact or integral:
            if leaf != e:
                problems.append(f"leaf {leaf} != N x joint {e}")
        elif Fraction(leaf).denominator != 1 or abs(leaf - e) >= 2:
            problems.append(f"rounded leaf {leaf} is not a whole number near {e}")
    return problems


def parse_tree_text(text: str) -> Tuple[Fraction, ...]:
    """The seven counts of a text tree: lines 1, 3 and 6 hold them."""
    lines = text.splitlines()
    return tuple(Fraction(token) for i in (0, 2, 5) for token in lines[i].split())


def check_svg(payload: bytes) -> List[str]:
    try:
        root = ET.fromstring(payload)
    except ET.ParseError as exc:
        return [f"SVG does not parse as XML: {exc}"]
    if root.tag != SVG_ROOT:
        return [f"SVG root element is {root.tag!r}"]
    return []


def expected_sweep(base: Fraction, hit: Fraction, alarm: Fraction, parameter: str, grid: Sequence[Fraction]):
    """Per grid point, the exact posterior of the variant, or None where p(E) = 0."""
    rates = {"base_rate": base, "hit_rate": hit, "false_alarm_rate": alarm}
    out = []
    for value in grid:
        rates[parameter] = value
        out.append(exact_posterior(rates["base_rate"], rates["hit_rate"], rates["false_alarm_rate"]))
    return out


def check_sweep_csv(
    text: str, parameter: str, grid: Sequence[Fraction], posteriors: Sequence[Optional[Fraction]], threshold: Fraction
) -> List[str]:
    """Header, one row per grid point, degenerate rows exactly where p(E) = 0, verdicts and decimals."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["param", "value", "posterior", "verdict"]]:
        return [f"bad CSV header {rows[:1]}"]
    rows = rows[1:]
    if len(rows) != len(grid):
        return [f"CSV has {len(rows)} rows for {len(grid)} grid points"]
    degenerate = sum(1 for row in rows if row[2] == DEGENERATE_MARKER)
    expected_degenerate = sum(1 for p in posteriors if p is None)
    problems = []
    if degenerate != expected_degenerate:
        problems.append(f"CSV has {degenerate} degenerate rows, expected {expected_degenerate}")
    for row, value, posterior in zip(rows, grid, posteriors):
        if row[0] != parameter or Fraction(row[1]) != value:
            problems.append(f"CSV row {row} is not {parameter} = {value}")
        elif posterior is None:
            if row[2:] != [DEGENERATE_MARKER, "none"]:
                problems.append(f"CSV row {row} should be degenerate")
        elif row[2] == DEGENERATE_MARKER or abs(Fraction(row[2]) - posterior) > posterior / 10**5:
            problems.append(f"CSV row {row}: posterior should be about {float(posterior)}")
        elif row[3] != expected_verdict(posterior, threshold):
            problems.append(f"CSV row {row}: verdict should be {expected_verdict(posterior, threshold)}")
    return problems


def splitmix64(seed: int, index: int) -> int:
    """Output `index` of the SplitMix64 stream started at state `seed`."""
    z = (seed + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mc_counts(base: Fraction, hit: Fraction, alarm: Fraction, samples: int, seed: int) -> Tuple[int, int]:
    """(conditioned, hypothesis hits) of a seeded simulation, one scalar draw at a time.

    Sample j reads draws 2j (hypothesis) and 2j+1 (evidence); a draw's
    uniform is its top 53 bits times 2^-53, compared with the rate as an
    IEEE double. This is the documented stream contract, restated here.
    """
    b, h, a = float(base), float(hit), float(alarm)
    conditioned = hits = 0
    for j in range(samples):
        has_hypothesis = (splitmix64(seed, 2 * j) >> 11) * 2.0**-53 < b
        if (splitmix64(seed, 2 * j + 1) >> 11) * 2.0**-53 < (h if has_hypothesis else a):
            conditioned += 1
            hits += has_hypothesis
    return conditioned, hits


def within_se(estimate: Fraction, standard_error: float, exact: Fraction, k: float = 5.0) -> bool:
    return abs(float(estimate) - float(exact)) <= k * standard_error
