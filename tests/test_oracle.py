"""Enumeration and Monte Carlo cross-checks of the analytic posterior."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofcalc import (
    DegenerateEvidence,
    NoConditionedSamples,
    NonIntegralCounts,
    Scenario,
    SimResult,
    compute_posterior,
    enumerate_posterior,
    monte_carlo_posterior,
)
from proofcalc.oracle import _threshold53, splitmix64, uniform53

from cases import CASE_IDS, CASES


def test_splitmix64_reference_values_for_seed_zero():
    # first three outputs of the widely published 64-bit reference stream
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F


def test_splitmix64_is_a_pure_counter_function():
    assert splitmix64(42, 7) == splitmix64(42, 7)
    assert splitmix64(42, 7) != splitmix64(42, 8)
    assert splitmix64(42, 7) != splitmix64(43, 7)
    assert splitmix64(2**64 + 5, 0) == splitmix64(5, 0)  # seed is taken mod 2^64


def test_uniforms_live_in_the_unit_interval():
    values = [uniform53(123, i) for i in range(1000)]
    assert all(0 <= v < 1 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


@settings(deadline=None)
@given(st.floats(0, 1))
@example(0.0)
@example(5e-324)
@example(2.0**-53)
@example(0.5)
@example(math.nextafter(1.0, 0.0))
@example(1.0)
def test_integer_threshold_selects_the_same_draws_as_the_uniform(rate):
    threshold = _threshold53(rate)
    assert 0 <= threshold <= 2**53
    for k in (threshold - 1, threshold, threshold + 1):
        if 0 <= k < 2**53:
            assert (k * 2.0**-53 < rate) == (k < threshold)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_enumeration_agrees_with_the_formula(case):
    assert enumerate_posterior(case.scenario, 100) == compute_posterior(case.scenario).posterior


def test_enumeration_counts_actual_individuals():
    # 8 hits and 9 false alarms among 17 evidence-bearing individuals
    assert enumerate_posterior(Scenario(0.1, 0.8, 0.1), 100) == Fraction(8, 17)


def test_enumeration_equal_rates_returns_the_base_rate():
    assert enumerate_posterior(Scenario(0.3, 0.5, 0.5), 20) == Fraction(3, 10)


def test_enumeration_rejects_fractional_individuals():
    with pytest.raises(NonIntegralCounts):
        enumerate_posterior(Scenario(0.4, 0.95, 0.1), 10)
    with pytest.raises(ValueError):
        enumerate_posterior(CASES[0].scenario, 0)


def test_enumeration_with_no_evidence_raises():
    with pytest.raises(DegenerateEvidence):
        enumerate_posterior(Scenario(0.5, 0, 0), 2)


def test_monte_carlo_is_reproducible_from_the_seed():
    scenario = CASES[0].scenario
    first = monte_carlo_posterior(scenario, 50_000, seed=7)
    second = monte_carlo_posterior(scenario, 50_000, seed=7)
    assert first == second
    assert first != monte_carlo_posterior(scenario, 50_000, seed=8)


def test_monte_carlo_matches_a_scalar_replay():
    scenario = CASES[0].scenario
    base, hit, alarm = (
        float(scenario.base_rate),
        float(scenario.hit_rate),
        float(scenario.false_alarm_rate),
    )
    conditioned = hypothesis_hits = 0
    for j in range(500):
        has_hypothesis = uniform53(9, 2 * j) < base
        has_evidence = uniform53(9, 2 * j + 1) < (hit if has_hypothesis else alarm)
        conditioned += has_evidence
        hypothesis_hits += has_evidence and has_hypothesis

    result = monte_carlo_posterior(scenario, 500, seed=9)
    assert result.samples_total == 500
    assert result.samples_conditioned == conditioned
    assert result.estimate == Fraction(hypothesis_hits, conditioned)


EDGE_RATES = [0.0, 1.0, 2.0**-53, 1 - 2.0**-53, 1e-300, 1 / 3]
EDGE_SEED = 11
EDGE_SAMPLES = (1 << 14) + 3


@pytest.fixture(scope="module")
def edge_uniforms():
    return [uniform53(EDGE_SEED, i) for i in range(2 * EDGE_SAMPLES)]


@pytest.mark.parametrize("block", [64, None], ids=["block-64", "default-block"])
@pytest.mark.parametrize("samples", [1, EDGE_SAMPLES])
@pytest.mark.parametrize("rate", EDGE_RATES, ids=[repr(rate) for rate in EDGE_RATES])
def test_monte_carlo_matches_a_scalar_replay_at_edge_rates(monkeypatch, edge_uniforms, rate, samples, block):
    import proofcalc.oracle as oracle

    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK_SAMPLES", block)
    for scenario in (Scenario(rate, rate, rate), Scenario(rate, 0.75, 0.25), Scenario(0.5, rate, 1 - rate)):
        base, hit, alarm = (
            float(scenario.base_rate),
            float(scenario.hit_rate),
            float(scenario.false_alarm_rate),
        )
        conditioned = hypothesis_hits = 0
        for j in range(samples):
            has_hypothesis = edge_uniforms[2 * j] < base
            has_evidence = edge_uniforms[2 * j + 1] < (hit if has_hypothesis else alarm)
            conditioned += has_evidence
            hypothesis_hits += has_evidence and has_hypothesis

        if conditioned == 0:
            with pytest.raises(NoConditionedSamples):
                monte_carlo_posterior(scenario, samples, seed=EDGE_SEED)
            continue
        result = monte_carlo_posterior(scenario, samples, seed=EDGE_SEED)
        assert result.samples_conditioned == conditioned
        assert result.estimate == Fraction(hypothesis_hits, conditioned)


def test_monte_carlo_spans_block_boundaries_consistently():
    import proofcalc.oracle as oracle

    scenario = CASES[1].scenario
    whole = monte_carlo_posterior(scenario, 3000, seed=5)
    original = oracle._BLOCK_SAMPLES
    try:
        oracle._BLOCK_SAMPLES = 64  # force many small blocks
        chunked = monte_carlo_posterior(scenario, 3000, seed=5)
    finally:
        oracle._BLOCK_SAMPLES = original
    assert whole == chunked


def test_monte_carlo_perfect_classifier_is_exact():
    result = monte_carlo_posterior(Scenario(0.5, 1, 0), 10_000, seed=3)
    assert result.estimate == 1
    assert result.standard_error == 0


def test_monte_carlo_close_to_the_exact_posterior():
    scenario = CASES[0].scenario
    exact = float(compute_posterior(scenario).posterior)
    result = monte_carlo_posterior(scenario, 1_000_000, seed=0)
    assert abs(float(result.estimate) - exact) <= 3 * result.standard_error
    assert result.standard_error == pytest.approx(
        math.sqrt(exact * (1 - exact) / result.samples_conditioned), rel=0.05
    )


def test_monte_carlo_without_conditioned_samples_raises():
    with pytest.raises(NoConditionedSamples):
        monte_carlo_posterior(Scenario(0, 0.5, 0), 1000, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_posterior(CASES[0].scenario, 0)


def test_no_conditioned_samples_is_degenerate_evidence():
    assert issubclass(NoConditionedSamples, DegenerateEvidence)


def test_sim_result_validates_its_counts():
    with pytest.raises(ValueError):
        SimResult(
            estimate=Fraction(1, 2),
            standard_error=0.1,
            samples_total=10,
            samples_conditioned=0,
            seed=0,
        )
    with pytest.raises(ValueError):
        SimResult(
            estimate=Fraction(1, 2),
            standard_error=-0.1,
            samples_total=10,
            samples_conditioned=5,
            seed=0,
        )
