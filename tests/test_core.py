"""Posterior arithmetic, and threshold verdicts with their error profiles."""

import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proofcalc import (
    EXACT_RATIONAL,
    ROUNDING_POLICIES,
    DegenerateEvidence,
    ErrorKind,
    Outcome,
    PosteriorBreakdown,
    Probability,
    Scenario,
    build_tree,
    compute_posterior,
    decide,
    enumerate_posterior,
    grid_points,
    minimal_integral_population,
    monte_carlo_posterior,
    parse_scenario,
    verdict_error_profile,
)
import proofcalc.core as core
from proofcalc.core import leaf_joints_of
from proofcalc.sweep import sweep

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


@given(st.lists(st.integers(1, 10**6).flatmap(lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))),
                min_size=3, max_size=3))
def test_a_scenario_of_probabilities_equals_one_of_their_spellings(rates):
    probabilities = [Probability(rate) for rate in rates]
    scenario = Scenario(*probabilities)
    assert scenario == Scenario(*map(str, rates))
    assert all(got is rate for got, rate in zip(scenario, probabilities))


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-1, 7), 1.5, -0.25, "5/4", "-0.1"], ids=repr)
@pytest.mark.parametrize("position", range(3))
def test_a_scenario_refuses_a_rate_outside_the_unit_interval_among_probabilities(bad, position):
    rates = [Probability(1, 2)] * 3
    rates[position] = bad
    with pytest.raises(ValueError, match="probability must be in"):
        Scenario(*rates)


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


def test_one_verdict_carries_its_error_profile_on_the_standard_scenario():
    assert verdict_error_profile is decide
    breakdown = compute_posterior(Scenario(0.4, 0.8, 0.1))
    tie = decide(breakdown, Fraction(16, 19))
    assert (tie.outcome, tie.error_kind) == (Outcome.FOR_DEFENDANT, ErrorKind.MISS_VERDICT)
    assert tie.wrong_verdict_probability == Fraction(16, 19)
    half = decide(breakdown, Fraction(1, 2))
    assert (half.outcome, half.error_kind) == (Outcome.FOR_MOVING_PARTY, ErrorKind.FALSE_ALARM_VERDICT)
    assert half.wrong_verdict_probability == Fraction(3, 19)


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "verdict.wrong_verdict_probability" in block
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_swapping_hypothesis_and_complement_flips_the_posterior(case):
    scenario = case.scenario
    swapped = Scenario(1 - scenario.base_rate, scenario.false_alarm_rate, scenario.hit_rate)
    assert compute_posterior(swapped).posterior == 1 - case.posterior


def test_posterior_is_strictly_monotone_in_each_rate():
    grid = [Fraction(i, 10) for i in range(1, 10)]
    anchor = Scenario(0.4, 0.8, 0.1)

    rising = [compute_posterior(anchor._replace(base_rate=v)).posterior for v in grid]
    assert all(a < b for a, b in zip(rising, rising[1:]))

    rising = [compute_posterior(anchor._replace(hit_rate=v)).posterior for v in grid]
    assert all(a < b for a, b in zip(rising, rising[1:]))

    falling = [compute_posterior(anchor._replace(false_alarm_rate=v)).posterior for v in grid]
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
    assert all(type(value) is Probability for value in breakdown)


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


@settings(deadline=None)
@given(RATES, RATES, RATES, RATES)
def test_a_verdict_is_wrong_with_the_mass_on_the_other_side_of_its_outcome(base, hit, alarm, threshold):
    assume(base * hit + (1 - base) * alarm > 0)
    breakdown = compute_posterior(Scenario(base, hit, alarm))
    verdict, posterior = decide(breakdown, threshold), breakdown.posterior
    moving = verdict.outcome is Outcome.FOR_MOVING_PARTY
    assert moving == (posterior > threshold)
    assert (verdict.error_kind is ErrorKind.FALSE_ALARM_VERDICT) == moving
    assert verdict.wrong_verdict_probability == (1 - posterior if moving else posterior)
    assert type(verdict.wrong_verdict_probability) is Probability


def _records():
    """One value of each public record type, by name, each made by the function that returns it."""
    scenario = Scenario("0.4", "0.8", "0.1")
    breakdown = compute_posterior(scenario)
    table = sweep(scenario, "base_rate", ["0", "1/2", "1"])
    return {
        "Scenario": scenario,
        "PosteriorBreakdown": breakdown,
        "Verdict": decide(breakdown),
        "ScenarioDocument": parse_scenario("base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\npopulation = 7\n"),
        "FrequencyTree": build_tree(scenario, 7),
        "SweepRow": table.rows[1],
        "SweepTable": table,
        "SimResult": monte_carlo_posterior(scenario, 1000, seed=1),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_pickles_and_refuses_assignment(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert type(record)(*record) == record  # a kernel's record passes the checks of a hand-built one
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record) and loaded == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.note = "a record has no attributes besides its fields"


def test_replace_runs_the_checks_of_the_constructor():
    with pytest.raises(ValueError) as by_hand:
        Scenario("3/2", "0.8", "0.1")
    tree = RECORDS["FrequencyTree"]
    refusals = [
        (RECORDS["Scenario"], {"base_rate": "3/2"}, str(by_hand.value)),
        (RECORDS["PosteriorBreakdown"], {"posterior": Fraction(1, 2)},
         "posterior * evidence_marginal must equal joint_hit"),
        (tree, {"hits": tree.hits + 1}, "hypothesis leaves do not sum to the hypothesis count"),
        (RECORDS["SimResult"], {"samples_conditioned": 0}, "need 0 < samples_conditioned <= samples_total"),
    ]
    replacers = [lambda record, **changes: record._replace(**changes)]
    if hasattr(copy, "replace"):  # Python 3.13 and later
        replacers.append(copy.replace)
    for replace in replacers:
        for record, changes, message in refusals:
            with pytest.raises(ValueError) as refused:
                replace(record, **changes)
            assert str(refused.value) == message
        # What passes is converted as the constructor converts it.
        assert replace(RECORDS["Scenario"], base_rate="1/2") == Scenario("1/2", "0.8", "0.1")
        assert type(replace(RECORDS["Scenario"], base_rate="1/2").base_rate) is Probability


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_count(flag):
    """True and False compare as 1 and 0, yet neither is a population, a sample count or a step count."""
    scenario = Scenario(1, 1, 0)
    for rounding in ROUNDING_POLICIES:
        with pytest.raises(TypeError, match="^population must be an int, got bool$"):
            build_tree(scenario, flag, rounding)
    with pytest.raises(TypeError, match="^population must be an int, got bool$"):
        enumerate_posterior(scenario, flag)
    with pytest.raises(TypeError, match="^samples must be an int, got bool$"):
        monte_carlo_posterior(scenario, flag)
    with pytest.raises(TypeError, match="^steps must be an int, got bool$"):
        grid_points(Fraction(0), Fraction(1), flag)


@pytest.mark.parametrize("count", [100.0, Fraction(100), "100", 1e300], ids=repr)
def test_a_count_that_is_not_an_integer_is_refused_by_name(count):
    scenario = Scenario("0.4", "0.8", "0.1")
    with pytest.raises(TypeError, match=f"^samples must be an int, got {type(count).__name__}$"):
        monte_carlo_posterior(scenario, count)
    with pytest.raises(TypeError, match=f"^steps must be an int, got {type(count).__name__}$"):
        grid_points(Fraction(0), Fraction(1), count)


def test_a_numpy_integer_count_is_taken_as_its_int():
    numpy = pytest.importorskip("numpy")
    scenario = Scenario("0.4", "0.8", "0.1")
    result = monte_carlo_posterior(scenario, numpy.int64(1000), seed=3)
    assert result == monte_carlo_posterior(scenario, 1000, seed=3)
    assert type(result.samples_total) is int
    assert list(grid_points(Fraction(0), Fraction(1), numpy.int32(3))) == [0, Fraction(1, 2), 1]
    assert type(core._check_count("steps", numpy.uint8(7), 10)) is int
    flag = numpy.bool_(True)  # no integer to operator.index
    with pytest.raises(TypeError, match=f"^samples must be an int, got {type(flag).__name__}$"):
        monte_carlo_posterior(scenario, flag)


@pytest.mark.parametrize("seed", [3.0, "3", None, True, False], ids=repr)
def test_a_seed_that_is_not_an_integer_is_refused_by_name(seed):
    with pytest.raises(TypeError, match=f"^seed must be an int, got {type(seed).__name__}$"):
        monte_carlo_posterior(Scenario("0.4", "0.8", "0.1"), 10, seed)


def test_every_int_is_a_seed_taken_mod_2_to_the_64():
    scenario = Scenario("0.4", "0.8", "0.1")
    assert monte_carlo_posterior(scenario, 100, -1) == monte_carlo_posterior(scenario, 100, 2**64 - 1)
    assert monte_carlo_posterior(scenario, 100, 2**70 + 3) == monte_carlo_posterior(scenario, 100, 3)


def test_a_numpy_integer_seed_is_taken_as_its_int():
    numpy = pytest.importorskip("numpy")  # loaded, so every call below takes the NumPy kernel
    scenario = Scenario("0.4", "0.8", "0.1")
    for seed in (numpy.int64(3), numpy.int8(-5), numpy.uint64(2**64 - 1)):
        for samples in (10, 10**4):
            assert monte_carlo_posterior(scenario, samples, seed) == monte_carlo_posterior(scenario, samples, int(seed))


def own_joints(scenario):
    """What `leaf_joints` must return for `scenario`: the kernel on its rates, with no cache in between."""
    (b, d_base), (h, d_hit), (a, d_alarm) = (rate.as_integer_ratio() for rate in scenario[:3])
    return leaf_joints_of(b, d_base, h, d_hit, a, d_alarm)


def assert_derived_afresh(scenario):
    joints = own_joints(scenario)
    least = joints[4] // math.gcd(*joints)
    assert core.leaf_joints(scenario) == joints
    assert minimal_integral_population(scenario, cap=10**4000) == least
    if joints[0] + joints[2]:
        assert compute_posterior(scenario).posterior == Fraction(joints[0], joints[0] + joints[2])
    for population in (least, least + 1):
        tree = build_tree(scenario, population, EXACT_RATIONAL)
        assert tree.leaves == tuple(Fraction(population * joint, joints[4]) for joint in joints[:4])
        assert tree.counts_exact is (population % least == 0)


def test_the_derivation_cache_answers_each_scenario_with_its_own_joints():
    first, twin = Scenario("0.4", "0.8", "0.1"), Scenario("0.4", "0.8", "0.1")
    assert first == twin and first is not twin
    replaced = first._replace(base_rate="0.3")
    others = [Scenario("1/3", "0.5", "0.25"), Scenario(0, 1, 1), Scenario(1, 0, 0), Scenario("0.4", "0.8", "0.2")]
    for scenario in [first, twin, first, replaced, first, replaced, replaced, twin, *others, first, *others[::-1],
                     replaced, others[0], replaced, twin]:
        assert_derived_afresh(scenario)


def test_the_derivation_cache_keeps_its_key_alive():
    # Each scenario is dropped as the next one is made, so the next may be allocated where it was; a cache keyed
    # by id alone would then answer it with the dropped scenario's joints.
    spellings = [("0.4", "0.8", "0.1"), ("1/3", "0.5", "0.25"), ("0.9", "0.2", "0.7")]
    for i in range(300):
        scenario = Scenario(*spellings[i % 3])
        assert core.leaf_joints(scenario) == own_joints(scenario)
        del scenario


def test_the_derivation_cache_is_one_entry_of_the_scenario_and_its_joints():
    for scenario in (Scenario("0.4", "0.8", "0.1"), Scenario("1/3", "0.5", "0.25"), Scenario("0.4", "0.8", "0.1")):
        joints = core.leaf_joints(scenario)
        assert core._last_derived == (scenario, joints)
        assert core._last_derived[0] is scenario


def test_threads_each_see_their_own_scenarios_joints():
    """Each thread gets its own scenarios' joints while others replace the entry. This checks results only: it
    does not reach into the window between two stores, so a cache kept in two globals can pass it, and the
    entry's layout is pinned by `test_the_derivation_cache_is_one_entry_of_the_scenario_and_its_joints`."""

    def work(worker, failures, barrier):
        rng = random.Random(worker)
        scenarios = [Scenario(*(Fraction(rng.randint(0, d), d) for d in (10, 97, 10**9 + 7))) for _ in range(8)]
        expected = [(own_joints(scenario), minimal_integral_population(Scenario(*scenario), 10**40))
                    for scenario in scenarios]
        barrier.wait()
        for _ in range(400):
            for scenario, (joints, least) in zip(scenarios, expected):
                got = (core.leaf_joints(scenario), minimal_integral_population(scenario, 10**40))
                if got != (joints, least):
                    failures.append((worker, scenario, got))
                    return

    failures, barrier = [], threading.Barrier(4, timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows, so their calls interleave
    try:
        threads = [threading.Thread(target=work, args=(worker, failures, barrier)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
