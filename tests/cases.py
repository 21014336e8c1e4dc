"""Worked bus scenarios shared by every suite.

Seven standard cases pin down the posterior as an exact fraction, its
display rounding, the tree leaves at population 100 in branch order
(hits, quiet hypothesis, false alarms, quiet complement), and the
verdict at the preponderance threshold. The bars scenario is the
prior-33%-to-59.6% walkthrough used by the proportion-bar diagram.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from proofcalc import Outcome, Scenario


@dataclass(frozen=True)
class Case:
    label: str
    scenario: Scenario
    posterior: Fraction
    decimal: float  # posterior as displayed after rounding
    leaves: Tuple[int, int, int, int]  # at population 100
    outcome: Outcome


_FMP = Outcome.FOR_MOVING_PARTY
_FD = Outcome.FOR_DEFENDANT

CASES = (
    Case("b40-h80-f10", Scenario("0.4", "0.8", "0.1"), Fraction(32, 38), 0.842, (32, 8, 6, 54), _FMP),
    Case("b10-h80-f10", Scenario("0.1", "0.8", "0.1"), Fraction(8, 17), 0.47, (8, 2, 9, 81), _FD),
    Case("b80-h80-f10", Scenario("0.8", "0.8", "0.1"), Fraction(64, 66), 0.96, (64, 16, 2, 18), _FMP),
    Case("b40-h95-f10", Scenario("0.4", "0.95", "0.1"), Fraction(38, 44), 0.86, (38, 2, 6, 54), _FMP),
    Case("b40-h95-f80", Scenario("0.4", "0.95", "0.8"), Fraction(38, 86), 0.44, (38, 2, 48, 12), _FD),
    Case("b40-h30-f60", Scenario("0.4", "0.3", "0.6"), Fraction(12, 48), 0.25, (12, 28, 36, 24), _FD),
    Case("b40-h80-f80", Scenario("0.4", "0.8", "0.8"), Fraction(32, 80), 0.40, (32, 8, 48, 12), _FD),
)

CASE_IDS = [case.label for case in CASES]

#: Three rates whose numerators and denominators have 1,000 digits each, the cap.
LONG = (Fraction(10**999 + 7, 10**1000 - 3), Fraction(8 * 10**999 + 1, 10**1000 - 1), Fraction(10**999 - 1, 10**1000 - 7))

BARS_SCENARIO = Scenario("0.33", "0.6", "0.2")
BARS_POSTERIOR = Fraction(99, 166)  # 0.198 / 0.332, about 0.5964


def display_matches(posterior: Fraction, displayed: float) -> bool:
    """True when `displayed` is `posterior` shown at its own precision.

    Quoted figures use both conventional rounding and plain truncation
    (64/66 = 0.9697 is displayed as 0.96), so accept either: within half
    a unit in the last displayed place, or an exact digit-for-digit
    truncation.
    """
    text = format(displayed, "g")
    places = len(text.partition(".")[2])
    shown = Fraction(text)
    if abs(posterior - shown) <= Fraction(1, 2 * 10**places):
        return True
    truncated = (posterior.numerator * 10**places) // posterior.denominator
    return truncated == shown * 10**places
