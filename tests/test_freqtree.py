"""Frequency trees: exact counts, largest-remainder rounding, shortcut posterior."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofcalc import (
    EXACT_RATIONAL,
    ROUNDING_POLICIES,
    DegenerateEvidence,
    FrequencyTree,
    PosteriorBreakdown,
    Probability,
    Scenario,
    build_tree,
    compute_posterior,
    minimal_integral_population,
    posterior_from_tree,
)

import proofcalc.core as core
from proofcalc.core import leaf_joints_of
import proofcalc.freqtree as freqtree

from cases import CASE_IDS, CASES


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_population_100_rows_match_fixture(case):
    tree = build_tree(case.scenario, population=100)
    assert tree.population == 100
    assert tree.leaves == case.leaves
    assert tree.hypothesis_count == case.leaves[0] + case.leaves[1]
    assert tree.complement_count == case.leaves[2] + case.leaves[3]
    assert tree.counts_exact
    assert all(residual == 0 for residual in tree.rounding_residuals)


def test_standard_rows_read_top_to_bottom():
    tree = build_tree(CASES[0].scenario, population=100)
    assert (tree.population, tree.hypothesis_count, tree.complement_count) == (100, 40, 60)
    assert tree.leaves == (32, 8, 6, 54)


def test_perfect_classifier_at_minimum_population():
    tree = build_tree(Scenario(0.5, 1, 0), population=2)
    assert (tree.population, tree.hypothesis_count, tree.complement_count) == (2, 1, 1)
    assert tree.leaves == (1, 0, 0, 1)
    assert tree.counts_exact


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_tree_shortcut_equals_the_formula(case):
    tree = build_tree(case.scenario, population=100)
    assert posterior_from_tree(tree) == compute_posterior(case.scenario).posterior


def test_shortcut_with_no_evidence_rows_raises():
    tree = build_tree(Scenario(0.5, 0, 0), population=2)
    assert tree.leaves == (0, 1, 0, 1)
    with pytest.raises(DegenerateEvidence):
        posterior_from_tree(tree)


def test_symmetric_evidence_gives_one_half():
    tree = build_tree(Scenario(0.5, 0.3, 0.3), population=20)
    assert tree.hits == tree.false_alarms == 3
    assert posterior_from_tree(tree) == Fraction(1, 2)


def test_scaling_population_scales_every_count():
    small = build_tree(CASES[0].scenario, population=100)
    large = build_tree(CASES[0].scenario, population=700)
    assert large.leaves == tuple(7 * count for count in small.leaves)
    assert posterior_from_tree(large) == posterior_from_tree(small)


def test_largest_remainder_keeps_row_sums_exact():
    # 10 x (0.4, 0.95, 0.1): expected leaves 3.8, 0.2, 0.6, 5.4
    tree = build_tree(Scenario(0.4, 0.95, 0.1), population=10)
    assert not tree.counts_exact
    assert tree.leaves == (4, 0, 1, 5)
    assert (tree.hypothesis_count, tree.complement_count) == (4, 6)
    assert tree.rounding_residuals == (
        Fraction(1, 5),
        Fraction(-1, 5),
        Fraction(2, 5),
        Fraction(-2, 5),
    )


def test_rounding_tie_goes_to_the_first_listed_leaf():
    tree = build_tree(Scenario(0.5, 0.5, 0.5), population=2)
    assert tree.leaves == (1, 0, 1, 0)


def test_exact_rational_policy_keeps_fractional_counts():
    tree = build_tree(Scenario(0.4, 0.95, 0.1), population=10, rounding=EXACT_RATIONAL)
    assert not tree.counts_exact
    assert tree.hits == Fraction(19, 5)
    assert tree.quiet_hypothesis == Fraction(1, 5)
    assert (tree.hypothesis_count, tree.complement_count) == (4, 6)
    assert all(residual == 0 for residual in tree.rounding_residuals)
    assert posterior_from_tree(tree) == compute_posterior(Scenario(0.4, 0.95, 0.1)).posterior


def test_exact_scenarios_are_unaffected_by_the_policy_choice():
    for case in CASES:
        assert build_tree(case.scenario, 100) == build_tree(case.scenario, 100, EXACT_RATIONAL)


def test_build_tree_rejects_bad_arguments(monkeypatch):
    for rounding in ROUNDING_POLICIES:
        for population in (0, -5):
            with pytest.raises(ValueError, match="population must be a positive integer"):
                build_tree(CASES[0].scenario, population=population, rounding=rounding)
    with pytest.raises(ValueError):
        build_tree(CASES[0].scenario, population=100, rounding="stochastic")

    at_cap = 10**1000 - 1
    assert build_tree(CASES[0].scenario, population=at_cap).population == at_cap

    def never_count(*_):
        raise AssertionError("the population cap let a count be computed")

    # What build_tree derives through, and the kernel a cache miss runs.
    monkeypatch.setattr(freqtree, "leaf_joints", never_count)
    monkeypatch.setattr(core, "leaf_joints_of", never_count)
    for rounding in ROUNDING_POLICIES:
        with pytest.raises(ValueError, match="population may have at most 1000 digits"):
            build_tree(CASES[0].scenario, population=at_cap + 1, rounding=rounding)


@pytest.mark.parametrize("population", [10.0, Fraction(10), "10"], ids=repr)
def test_a_population_that_is_not_an_int_is_refused_by_name(population):
    message = f"^population must be an int, got {type(population).__name__}$"
    for rounding in ROUNDING_POLICIES:
        with pytest.raises(TypeError, match=message):
            build_tree(Scenario("0.4", "0.8", "0.1"), population, rounding)
    with pytest.raises(TypeError, match=message):
        FrequencyTree(population, 4, 6, 3, 1, 2, 4, counts_exact=True)


F = Fraction
ROW2 = "row 2 does not sum to the population"
HYPOTHESIS = "hypothesis leaves do not sum to the hypothesis count"
COMPLEMENT = "complement leaves do not sum to the complement count"
NEGATIVE = "counts must be nonnegative"


@pytest.mark.parametrize(
    "counts, message",
    [
        # population, hypothesis, complement, hits, quiet hypothesis, false alarms, quiet complement
        ((10, 5, 4, 3, 2, 2, 2), ROW2),
        ((10, 5, 5, 3, 1, 2, 3), HYPOTHESIS),
        ((10, 5, 5, 3, 2, 2, 2), COMPLEMENT),
        ((10, 5, 5, 6, -1, 2, 3), NEGATIVE),
        ((10, F(13, 2), F(10, 3), F(13, 4), F(13, 4), F(5, 3), F(5, 3)), ROW2),
        ((10, F(13, 2), F(7, 2), F(13, 4), F(13, 5), F(7, 4), F(7, 4)), HYPOTHESIS),
        ((10, F(13, 2), F(7, 2), F(13, 4), F(13, 4), F(7, 3), F(7, 4)), COMPLEMENT),
        ((10, F(13, 2), F(7, 2), F(15, 2), F(-1), F(7, 4), F(7, 4)), NEGATIVE),
        ((10, 5, 5, F(5, 2), F(5, 2), F(1, 3), F(13, 3)), COMPLEMENT),
    ],
    ids=["int-row2", "int-hypothesis", "int-complement", "int-negative", "fraction-row2",
         "fraction-hypothesis", "fraction-complement", "fraction-negative", "mixed-complement"],
)
def test_tree_invariants_are_enforced(counts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FrequencyTree(*counts, counts_exact=False)


def apportion_largest_remainder(total, quotas):
    """Reference: floor each quota, give the leftover units to the largest
    fractional parts, ties to the earlier position."""
    floors = [int(q) for q in quotas]
    leftover = total - sum(floors)
    by_remainder = sorted(range(len(quotas)), key=lambda i: (floors[i] - quotas[i], i))
    for i in by_remainder[:leftover]:
        floors[i] += 1
    return floors


def reference_tree(scenario, population):
    """Largest-remainder tree from Fraction quotas on the rates."""
    base, hit, alarm = scenario.base_rate, scenario.hit_rate, scenario.false_alarm_rate
    hyp, comp = apportion_largest_remainder(population, [population * base, population * (1 - base)])
    leaves = apportion_largest_remainder(hyp, [hyp * hit, hyp * (1 - hit)])
    leaves += apportion_largest_remainder(comp, [comp * alarm, comp * (1 - alarm)])
    return hyp, comp, leaves


# Rates 0, 1, small even denominators (their quotas often end in exactly
# .5, a tie), and denominators up to 10^12.
TREE_RATES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.integers(1, 50).flatmap(lambda m: st.builds(Fraction, st.integers(0, 2 * m), st.just(2 * m))),
    st.integers(1, 10**12).flatmap(lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))),
)


@settings(deadline=None)
@given(TREE_RATES, TREE_RATES, TREE_RATES, st.integers(1, 10**6))
@example(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 7)
@example(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), 6)
@example(Fraction(5, 6), Fraction(3, 10), Fraction(1, 2), 3)
def test_largest_remainder_matches_the_fraction_quota_apportioner(base, hit, alarm, population):
    scenario = Scenario(base, hit, alarm)
    hyp, comp, leaves = reference_tree(scenario, population)
    tree = build_tree(scenario, population)
    assert (tree.hypothesis_count, tree.complement_count) == (hyp, comp)
    assert tree.leaves == tuple(leaves)
    for count in (tree.hypothesis_count, tree.complement_count, *tree.leaves):
        assert type(count) is int


# Rates with 1,000-digit denominators, parse_rate's cap, over the largest population, 10^1000 - 1.
AT_CAP = (Fraction(10**999 + 7, 10**1000 - 1), Fraction(10**1000 - 3, 10**1000 - 1), Fraction(1, 10**1000 - 7))


def field_values(value):
    return [getattr(value, name) for name in value._fields]


@settings(deadline=None)
@given(TREE_RATES, TREE_RATES, TREE_RATES, st.integers(1, 10**6))
@example(*AT_CAP, 10**1000 - 1)
def test_kernel_values_pass_the_checks_of_their_constructors(base, hit, alarm, population):
    # build_tree and compute_posterior skip the constructor checks; building each value by hand runs them.
    scenario = Scenario(base, hit, alarm)
    for rounding in ROUNDING_POLICIES:
        tree = build_tree(scenario, population, rounding=rounding)
        assert type(tree) is FrequencyTree
        assert FrequencyTree(*field_values(tree)) == tree
        assert type(tree.counts_exact) is bool and len(tree.rounding_residuals) == 4
    try:
        breakdown = compute_posterior(scenario)
    except DegenerateEvidence:
        assert base * hit + (1 - base) * alarm == 0
        return
    assert type(breakdown) is PosteriorBreakdown
    assert PosteriorBreakdown(*field_values(breakdown)) == breakdown
    assert all(type(value) is Probability for value in field_values(breakdown))


def test_minimal_integral_population_frozen_values():
    # brute-force scan: smallest N with N*0.4*0.8, N*0.4*0.2, N*0.6*0.1,
    # N*0.6*0.9 all integral is 50 (N=25 leaves 25*0.06 = 1.5 false alarms)
    assert minimal_integral_population(CASES[0].scenario, cap=1000) == 50
    assert minimal_integral_population(Scenario(0.4, 0.95, 0.1), cap=1000) == 50
    assert minimal_integral_population(Scenario(0.5, 1, 0), cap=10) == 2
    assert minimal_integral_population(CASES[0].scenario, cap=49) is None


@pytest.mark.parametrize("cap", [0, -1])
def test_minimal_integral_population_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap must be a positive integer"):
        minimal_integral_population(CASES[0].scenario, cap)


def test_minimal_integral_population_matches_a_direct_scan():
    def scan(scenario, cap):
        joints = (
            scenario.base_rate * scenario.hit_rate,
            scenario.base_rate * (1 - scenario.hit_rate),
            (1 - scenario.base_rate) * scenario.false_alarm_rate,
            (1 - scenario.base_rate) * (1 - scenario.false_alarm_rate),
        )
        for population in range(1, cap + 1):
            if all((population * joint).denominator == 1 for joint in joints):
                return population
        return None

    rng = random.Random(909)
    for _ in range(40):
        scenario = Scenario(
            Fraction(rng.randint(0, 12), 12),
            Fraction(rng.randint(0, 8), 8),
            Fraction(rng.randint(0, 10), 10),
        )
        assert minimal_integral_population(scenario, cap=200) == scan(scenario, 200)


def gcd_rule(scenario, population):
    """counts_exact by its definition: D divides each expected numerator, population x joint, so their gcd."""
    (b, d_base), (h, d_hit), (a, d_alarm) = (rate.as_integer_ratio() for rate in scenario[:3])
    *joints, denominator = leaf_joints_of(b, d_base, h, d_hit, a, d_alarm)
    return math.gcd(*(population * joint for joint in joints), denominator) == denominator


@settings(deadline=None)
@given(TREE_RATES, TREE_RATES, TREE_RATES, st.integers(1, 10**6))
@example(*AT_CAP, 10**1000 - 1)
# Least populations of 1,000 digits, 10^999 and 2·10^999, at them, one below them, and at a multiple.
@example(Fraction(1, 10**999), Fraction(0), Fraction(1), 10**999)
@example(Fraction(1, 10**999), Fraction(0), Fraction(1), 10**999 - 1)
@example(Fraction(1, 10**999), Fraction(0), Fraction(1), 9 * 10**999)
@example(Fraction(10**999 - 1, 10**999), Fraction(1, 2), Fraction(1, 2), 2 * 10**999)
@example(Fraction(10**999 - 1, 10**999), Fraction(1, 2), Fraction(1, 2), 10**999)
def test_counts_exact_is_the_gcd_rule(base, hit, alarm, population):
    scenario = Scenario(base, hit, alarm)
    exact = gcd_rule(scenario, population)
    for rounding in ROUNDING_POLICIES:
        assert build_tree(scenario, population, rounding).counts_exact is exact
    # The same, on a scenario equal to this one but not it, after the cache has taken this one.
    twin = Scenario(base, hit, alarm)
    assert build_tree(twin, population, EXACT_RATIONAL).counts_exact is exact
    # The least integral population divides exactly the populations the rule calls exact.
    assert (population % minimal_integral_population(scenario, cap=10**4000) == 0) is exact
