"""Natural-frequency trees: the three-rate model over a concrete population.

A tree restates the scenario as absolute counts ("32 of 100 buses...") in
three rows: the population, the hypothesis/complement split, and the four
evidence leaves. Its defining property is conservation: every row sums
exactly to its parent, whatever rounding was applied. The expected counts
are population x the leaf joints of `core.leaf_joints`. Largest-remainder
rounding splits each parent between its two children by rounding the first
child's expected count half up, so ties go to the first branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    EXACT_RATIONAL, LARGEST_REMAINDER, ROUNDING_POLICIES,
    DegenerateEvidence, Probability, Scenario, _built, _check_population, _reduced, _sums_to, leaf_joints,
)

Count = int | Fraction

_NO_RESIDUALS = (Fraction(0),) * 4


@dataclass(frozen=True)
class FrequencyTree:
    """Three-row natural-frequency decomposition of a reference population.

    Row 1 is the population; row 2 splits it by the hypothesis; row 3
    splits each side by the evidence into hits, quiet_hypothesis,
    false_alarms and quiet_complement (branch order left to right).

    counts_exact is True when all six counts came out integral without any
    rounding. rounding_residuals holds (actual - expected) per leaf in
    branch order, where expected = population x the leaf's joint
    probability; all zero unless largest-remainder rounding moved counts.
    """

    population: int
    hypothesis_count: Count
    complement_count: Count
    hits: Count
    quiet_hypothesis: Count
    false_alarms: Count
    quiet_complement: Count
    counts_exact: bool
    rounding_residuals: tuple[Fraction, Fraction, Fraction, Fraction] = _NO_RESIDUALS
    hypothesis_label: str = "runs on Main Street"

    def __post_init__(self) -> None:
        _check_population(self.population)
        # Each count as (numerator, denominator > 0); the checks cross-multiply them in integers.
        hyp, comp, hits, quiet_hyp, alarms, quiet_comp = [
            count.as_integer_ratio() for count in (self.hypothesis_count, self.complement_count, *self.leaves)
        ]
        if not _sums_to(hyp, comp, (self.population, 1)):
            raise ValueError("row 2 does not sum to the population")
        if not _sums_to(hits, quiet_hyp, hyp):
            raise ValueError("hypothesis leaves do not sum to the hypothesis count")
        if not _sums_to(alarms, quiet_comp, comp):
            raise ValueError("complement leaves do not sum to the complement count")
        if any(numerator < 0 for numerator, _ in (hits, quiet_hyp, alarms, quiet_comp)):
            raise ValueError("counts must be nonnegative")

    @property
    def leaves(self) -> tuple[Count, Count, Count, Count]:
        return (self.hits, self.quiet_hypothesis, self.false_alarms, self.quiet_complement)


def _as_count(numerator: int, denominator: int) -> Count:
    whole, remainder = divmod(numerator, denominator)
    return _reduced(numerator, denominator, Fraction) if remainder else whole


def _half_up(numerator: int, denominator: int) -> int:
    """numerator/denominator rounded to the nearest integer, halves up."""
    return (2 * numerator + denominator) // (2 * denominator)


def build_tree(
    scenario: Scenario,
    population: int = 100,
    rounding: str = LARGEST_REMAINDER,
) -> FrequencyTree:
    """Materialize a scenario as counts over `population` individuals.

    Expected counts are population x the joint probabilities. When all six
    are integral the tree is exact under either policy. Otherwise
    largest-remainder rounds the first child of each parent half up and
    gives the second the rest (the largest-remainder rule for two children,
    so conservation never breaks), while exact-rational keeps fractions.
    The population must be a positive int of at most MAX_POPULATION_DIGITS digits.
    """
    _check_population(population)
    if rounding not in ROUNDING_POLICIES:
        raise ValueError(f"unknown rounding policy {rounding!r}; expected one of {ROUNDING_POLICIES}")

    *joints, denominator = leaf_joints(scenario)
    expected = [population * joint for joint in joints]
    exact = all(count % denominator == 0 for count in expected)
    if rounding == EXACT_RATIONAL:
        hits, quiet_hyp, alarms, quiet_comp = expected
        row2 = [_as_count(hits + quiet_hyp, denominator), _as_count(alarms + quiet_comp, denominator)]
        leaves = [_as_count(count, denominator) for count in expected]
        residuals = _NO_RESIDUALS
    else:
        base, hit, alarm = scenario.base_rate, scenario.hit_rate, scenario.false_alarm_rate
        hyp = _half_up(population * base.numerator, base.denominator)
        comp = population - hyp
        hits = _half_up(hyp * hit.numerator, hit.denominator)
        alarms = _half_up(comp * alarm.numerator, alarm.denominator)
        row2 = [hyp, comp]
        leaves = [hits, hyp - hits, alarms, comp - alarms]
        residuals = _NO_RESIDUALS if exact else tuple(
            _reduced(a * denominator - e, denominator, Fraction) for a, e in zip(leaves, expected)
        )
    return _built(FrequencyTree, population, *row2, *leaves, exact, residuals, scenario.hypothesis_label)


def posterior_from_tree(tree: FrequencyTree) -> Probability:
    """The two-number shortcut: hits / (hits + false alarms)."""
    total = tree.hits + tree.false_alarms
    if total == 0:
        raise DegenerateEvidence("tree has no hits and no false alarms")
    return Probability(tree.hits, total)


def minimal_integral_population(scenario: Scenario, cap: int) -> int | None:
    """Smallest population <= cap whose four leaf counts are all integral.

    Returns None when no such population exists within the cap. The answer
    is the least common multiple of the leaf probabilities' denominators,
    since N * (a/b) is integral exactly when b divides N.
    """
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    *joints, denominator = leaf_joints(scenario)
    needed = math.lcm(*(denominator // math.gcd(joint, denominator) for joint in joints))
    return needed if needed <= cap else None
