"""Natural-frequency trees: the three-rate model over a concrete population.

A tree restates the scenario as absolute counts ("32 of 100 buses...") in
three rows: the population, the hypothesis/complement split, and the four
evidence leaves. Its defining property is conservation: every row sums
exactly to its parent, whatever rounding was applied. The expected counts
are population x the leaf joints of `core.leaf_joints`, which caches them for
the last scenario derived, and a tree is exact when its population is a
multiple of the least integral population, D // gcd(j1, j2, j3, j4, D) over
the joints' common denominator D. Largest-remainder rounding splits each
parent between its two children by rounding the first child's expected
count half up, so ties go to the first branch.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .core import (
    EXACT_RATIONAL, LARGEST_REMAINDER, ROUNDING_POLICIES,
    DegenerateEvidence, Probability, Scenario, _Checked, _check_population, _reduced, _sums_to, leaf_joints,
)

Count = int | Fraction

_NO_RESIDUALS = (Fraction(0),) * 4


class FrequencyTree(_Checked, namedtuple("FrequencyTree", (
        "population", "hypothesis_count", "complement_count", "hits", "quiet_hypothesis", "false_alarms",
        "quiet_complement", "counts_exact", "rounding_residuals", "hypothesis_label"))):
    """Three-row natural-frequency decomposition of a reference population.

    Row 1 is the population; row 2 splits it by the hypothesis; row 3
    splits each side by the evidence into hits, quiet_hypothesis,
    false_alarms and quiet_complement (branch order left to right).

    counts_exact is True when all six counts came out integral without any
    rounding. rounding_residuals holds (actual - expected) per leaf in
    branch order, where expected = population x the leaf's joint
    probability; all zero unless largest-remainder rounding moved counts.
    """

    __slots__ = ()

    def __new__(cls, population: int, hypothesis_count: Count, complement_count: Count, hits: Count,
                quiet_hypothesis: Count, false_alarms: Count, quiet_complement: Count, counts_exact: bool,
                rounding_residuals: tuple[Fraction, Fraction, Fraction, Fraction] = _NO_RESIDUALS,
                hypothesis_label: str = "runs on Main Street"):
        _check_population(population)
        # Each count as (numerator, denominator > 0); the checks cross-multiply them in integers.
        hyp, comp, hit, quiet_hyp, alarm, quiet_comp = [count.as_integer_ratio() for count in (
            hypothesis_count, complement_count, hits, quiet_hypothesis, false_alarms, quiet_complement)]
        if not _sums_to(hyp, comp, (population, 1)):
            raise ValueError("row 2 does not sum to the population")
        if not _sums_to(hit, quiet_hyp, hyp):
            raise ValueError("hypothesis leaves do not sum to the hypothesis count")
        if not _sums_to(alarm, quiet_comp, comp):
            raise ValueError("complement leaves do not sum to the complement count")
        if any(numerator < 0 for numerator, _ in (hit, quiet_hyp, alarm, quiet_comp)):
            raise ValueError("counts must be nonnegative")
        return tuple.__new__(cls, (
            population, hypothesis_count, complement_count, hits, quiet_hypothesis, false_alarms, quiet_complement,
            counts_exact, rounding_residuals, hypothesis_label,
        ))

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

    joints = leaf_joints(scenario)
    denominator = joints[4]
    exact = population % (denominator // math.gcd(*joints)) == 0  # the denominator divides all four expected counts
    if rounding == EXACT_RATIONAL:
        if exact:  # whole counts, each by one floor division
            leaves = [population * joint // denominator for joint in joints[:4]]
            row2 = [leaves[0] + leaves[1], leaves[2] + leaves[3]]
        else:
            hits, quiet_hyp, alarms, quiet_comp = expected = [population * joint for joint in joints[:4]]
            row2 = [_as_count(hits + quiet_hyp, denominator), _as_count(alarms + quiet_comp, denominator)]
            leaves = [_as_count(count, denominator) for count in expected]
        residuals = _NO_RESIDUALS
    else:
        base, hit, alarm = scenario.base_rate, scenario.hit_rate, scenario.false_alarm_rate
        hyp = _half_up(population * base._numerator, base._denominator)
        comp = population - hyp
        hits = _half_up(hyp * hit._numerator, hit._denominator)
        alarms = _half_up(comp * alarm._numerator, alarm._denominator)
        row2 = [hyp, comp]
        leaves = [hits, hyp - hits, alarms, comp - alarms]
        residuals = _NO_RESIDUALS if exact else tuple(
            _reduced(a * denominator - population * j, denominator, Fraction) for a, j in zip(leaves, joints)
        )
    return tuple.__new__(FrequencyTree, (population, *row2, *leaves, exact, residuals, scenario.hypothesis_label))


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
    since N * (a/b) is integral exactly when b divides N. Over the common
    denominator D that is D / gcd(D, j1, ..., j4): D divides each N * j
    exactly when it divides N * gcd(j1, ..., j4).
    """
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    joints = leaf_joints(scenario)
    needed = joints[4] // math.gcd(*joints)
    return needed if needed <= cap else None
