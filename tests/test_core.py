"""Posterior arithmetic, threshold verdicts, and verdict error profiles."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofcalc import (
    EXACT_RATIONAL,
    DegenerateEvidence,
    ErrorKind,
    Outcome,
    PosteriorBreakdown,
    Probability,
    Scenario,
    build_tree,
    compute_posterior,
    decide,
    minimal_integral_population,
    verdict_error_profile,
)

from cases import CASE_IDS, CASES, display_matches


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_posterior_matches_fixture(case):
    breakdown = compute_posterior(case.scenario)
    assert breakdown.posterior == case.posterior
    assert display_matches(breakdown.posterior, case.decimal)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_breakdown_identities(case):
    scenario = case.scenario
    breakdown = compute_posterior(scenario)
    assert breakdown.joint_hit == scenario.base_rate * scenario.hit_rate
    assert breakdown.joint_false_alarm == (1 - scenario.base_rate) * scenario.false_alarm_rate
    assert breakdown.evidence_marginal == breakdown.joint_hit + breakdown.joint_false_alarm
    assert breakdown.posterior * breakdown.evidence_marginal == breakdown.joint_hit


def test_probability_reads_floats_through_their_decimal_form():
    assert Probability(0.4) == Fraction(2, 5)
    assert Probability(0.1) == Fraction(1, 10)
    assert Probability("0.95") == Fraction(19, 20)
    assert Probability("2/5") == Fraction(2, 5)
    assert Probability(3, 4) == Fraction(3, 4)


@pytest.mark.parametrize("bad", [-0.1, 1.5, "3/2", Fraction(-1, 2), 2])
def test_probability_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Probability(bad)


def test_probability_range_check_sees_the_normalised_sign():
    with pytest.raises(ValueError):
        Probability(1, -2)
    with pytest.raises(ValueError):
        Probability(3, 2)
    assert Probability(-1, -2) == Fraction(1, 2)
    assert Probability(0, -7) == 0
    assert Probability(-4, -4) == 1


def test_rewrapping_a_probability_keeps_its_value():
    value = Probability(2, 6)
    assert Probability(value) is value  # immutable and already checked, so not rebuilt
    assert Probability(value) == Fraction(1, 3)
    assert Probability(Fraction(1, 3)) == value


def test_a_plain_fraction_is_copied_into_a_probability_and_range_checked():
    value = Probability(Fraction(6, 8))
    assert type(value) is Probability
    assert (value.numerator, value.denominator) == (3, 4)
    assert value == Fraction(3, 4) and hash(value) == hash(Fraction(3, 4))
    for bad in (Fraction(-1, 2), Fraction(5, 4)):
        with pytest.raises(ValueError, match="probability must be in"):
            Probability(bad)
    assert Probability(Fraction(0)) == 0 and Probability(Fraction(1)) == 1


def test_scenario_coerces_rates_to_probabilities():
    scenario = Scenario(0.4, "0.8", Fraction(1, 10))
    assert isinstance(scenario.base_rate, Probability)
    assert scenario.base_rate == Fraction(2, 5)
    assert scenario.hit_rate == Fraction(4, 5)
    assert scenario.false_alarm_rate == Fraction(1, 10)


def test_equal_rates_return_the_base_rate():
    for base in (Fraction(1, 7), Fraction(2, 5), Fraction(9, 10)):
        for rate in (Fraction(1, 100), Fraction(1, 2), Fraction(1)):
            scenario = Scenario(base, rate, rate)
            assert compute_posterior(scenario).posterior == base


def test_prior_certainty_is_preserved():
    assert compute_posterior(Scenario(1, 0.5, 0.9)).posterior == 1
    assert compute_posterior(Scenario(0, 0.5, 0.9)).posterior == 0


@pytest.mark.parametrize(
    "scenario",
    [Scenario(0.4, 0, 0), Scenario(0, 0.5, 0), Scenario(1, 0, 0.7)],
    ids=["both-rates-zero", "empty-hypothesis-no-alarms", "certain-hypothesis-no-hits"],
)
def test_zero_evidence_mass_raises(scenario):
    with pytest.raises(DegenerateEvidence):
        compute_posterior(scenario)


def test_breakdown_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        PosteriorBreakdown(Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        PosteriorBreakdown(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 3))


def test_breakdown_checks_each_identity_on_its_own():
    with pytest.raises(ValueError, match="evidence_marginal must equal"):
        PosteriorBreakdown(Fraction(1, 4), Fraction(1, 8), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="posterior \\* evidence_marginal"):
        PosteriorBreakdown(Fraction(1, 4), Fraction(1, 8), Fraction(3, 8), Fraction(1, 2))
    assert PosteriorBreakdown(Fraction(1, 4), Fraction(1, 8), Fraction(3, 8), Fraction(2, 3)).posterior == Fraction(2, 3)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_preponderance_verdicts(case):
    verdict = decide(compute_posterior(case.scenario))
    assert verdict.outcome is case.outcome
    assert verdict.threshold == Fraction(1, 2)
    assert verdict.posterior == case.posterior


def test_tie_at_threshold_goes_to_the_defendant():
    breakdown = compute_posterior(Scenario(0.5, 0.3, 0.3))
    assert breakdown.posterior == Fraction(1, 2)
    assert decide(breakdown).outcome is Outcome.FOR_DEFENDANT
    assert decide(breakdown, Fraction(49, 100)).outcome is Outcome.FOR_MOVING_PARTY


def test_threshold_argument_is_coerced():
    breakdown = compute_posterior(Scenario(0.4, 0.8, 0.1))
    assert decide(breakdown, "0.9").outcome is Outcome.FOR_DEFENDANT
    assert decide(breakdown, 0.8).outcome is Outcome.FOR_MOVING_PARTY


def test_error_profile_for_moving_party_is_a_false_alarm():
    profile = verdict_error_profile(compute_posterior(Scenario(0.8, 0.8, 0.1)))
    assert profile.error_kind is ErrorKind.FALSE_ALARM_VERDICT
    assert profile.wrong_verdict_probability == 1 - Fraction(64, 66)


def test_error_profile_for_defendant_is_a_miss():
    profile = verdict_error_profile(compute_posterior(Scenario(0.4, 0.3, 0.6)))
    assert profile.error_kind is ErrorKind.MISS_VERDICT
    assert profile.wrong_verdict_probability == Fraction(12, 48)


def test_error_profile_certain_hypothesis_has_no_error_mass():
    profile = verdict_error_profile(compute_posterior(Scenario(1, 0.5, 0.9)))
    assert profile.wrong_verdict_probability == 0
    assert profile.error_kind is ErrorKind.FALSE_ALARM_VERDICT


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_swapping_hypothesis_and_complement_flips_the_posterior(case):
    scenario = case.scenario
    swapped = Scenario(1 - scenario.base_rate, scenario.false_alarm_rate, scenario.hit_rate)
    assert compute_posterior(swapped).posterior == 1 - case.posterior


def test_posterior_is_strictly_monotone_in_each_rate():
    grid = [Fraction(i, 10) for i in range(1, 10)]
    anchor = Scenario(0.4, 0.8, 0.1)

    rising = [compute_posterior(replace(anchor, base_rate=v)).posterior for v in grid]
    assert all(a < b for a, b in zip(rising, rising[1:]))

    rising = [compute_posterior(replace(anchor, hit_rate=v)).posterior for v in grid]
    assert all(a < b for a, b in zip(rising, rising[1:]))

    falling = [compute_posterior(replace(anchor, false_alarm_rate=v)).posterior for v in grid]
    assert all(a > b for a, b in zip(falling, falling[1:]))


def test_labels_never_affect_computation():
    plain = Scenario(0.4, 0.8, 0.1)
    labeled = Scenario(0.4, 0.8, 0.1, hypothesis_label="owns a dog", evidence_label="barks")
    assert compute_posterior(plain) == compute_posterior(labeled)


# Rates with denominators up to 10^12, and the endpoints 0 and 1.
RATES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(1, 10**12).flatmap(lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))),
)


def naive_leaf_joints(scenario):
    """p(H,E), p(H,not E), p(not H,E), p(not H,not E) by plain Fraction products."""
    base = Fraction(scenario.base_rate)
    hit = Fraction(scenario.hit_rate)
    alarm = Fraction(scenario.false_alarm_rate)
    return (base * hit, base * (1 - hit), (1 - base) * alarm, (1 - base) * (1 - alarm))


@settings(deadline=None)
@given(RATES, RATES, RATES)
def test_compute_posterior_matches_a_naive_derivation(base, hit, alarm):
    scenario = Scenario(base, hit, alarm)
    joint_hit, _, joint_false_alarm, _ = naive_leaf_joints(scenario)
    marginal = joint_hit + joint_false_alarm
    if marginal == 0:
        with pytest.raises(DegenerateEvidence):
            compute_posterior(scenario)
        return
    breakdown = compute_posterior(scenario)
    assert breakdown.joint_hit == joint_hit
    assert breakdown.joint_false_alarm == joint_false_alarm
    assert breakdown.evidence_marginal == marginal
    assert breakdown.posterior == joint_hit / marginal
    assert all(type(value) is Probability for value in vars(breakdown).values())


@settings(deadline=None)
@given(RATES, RATES, RATES, st.integers(1, 10**6))
def test_tree_counts_and_minimal_population_match_a_naive_derivation(base, hit, alarm, population):
    scenario = Scenario(base, hit, alarm)
    joints = naive_leaf_joints(scenario)
    expected = tuple(population * joint for joint in joints)

    tree = build_tree(scenario, population, rounding=EXACT_RATIONAL)
    assert tree.leaves == expected
    assert tree.hypothesis_count == population * base
    assert tree.complement_count == population * (1 - base)
    assert tree.counts_exact == all(count.denominator == 1 for count in expected)
    for count in (tree.hypothesis_count, tree.complement_count, *tree.leaves):
        assert isinstance(count, int) or count.denominator != 1

    rounded = build_tree(scenario, population)
    assert rounded.rounding_residuals == tuple(a - e for a, e in zip(rounded.leaves, expected))

    needed = math.lcm(*(joint.denominator for joint in joints))
    assert minimal_integral_population(scenario, cap=needed) == needed
    if needed > 1:
        assert minimal_integral_population(scenario, cap=needed - 1) is None
