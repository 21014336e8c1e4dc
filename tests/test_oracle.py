"""Enumeration and Monte Carlo cross-checks of the analytic posterior."""

import math
import sys
import threading
import tracemalloc
import warnings
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
    minimal_integral_population,
    monte_carlo_posterior,
)
import proofcalc.oracle as oracle
from proofcalc.oracle import _counts_numpy, _counts_python, _threshold53, splitmix64

from cases import CASE_IDS, CASES
from conftest import run_strict


def uniform53(seed, index):
    """The index-th uniform double in [0, 1) of the stream for `seed`, carrying 53 random bits."""
    return (splitmix64(seed, index) >> 11) * 2.0**-53


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


@pytest.mark.parametrize("population", [100.0, Fraction(100), "100"], ids=repr)
def test_enumeration_refuses_a_population_that_is_not_an_int(population):
    with pytest.raises(TypeError, match=f"^population must be an int, got {type(population).__name__}$"):
        enumerate_posterior(Scenario("0.4", "0.8", "0.1"), population)


def test_enumeration_refuses_a_population_above_its_cap(monkeypatch):
    import proofcalc.core as core

    def never(*_):
        raise AssertionError("the oracle called the code it checks")

    monkeypatch.setattr(core, "leaf_joints", never)
    for population in (2 * 10**6, 10**999):
        assert enumerate_posterior(Scenario(0.5, 0.5, 0.5), population) == Fraction(1, 2)
    with pytest.raises(ValueError, match="population may have at most 1000 digits"):
        enumerate_posterior(Scenario(0.5, 0.5, 0.5), 10**1000)


ENUMERATION_RATES = st.integers(1, 40).flatmap(lambda d: st.builds(Fraction, st.integers(0, d), st.just(d)))


@settings(deadline=None)
@given(ENUMERATION_RATES, ENUMERATION_RATES, ENUMERATION_RATES, st.integers(1, 10**6), st.data())
def test_enumeration_matches_the_formula_exactly_at_whole_populations(base, hit, alarm, multiple, data):
    scenario = Scenario(base, hit, alarm)
    needed = minimal_integral_population(scenario, cap=10**12)
    population = multiple * needed
    try:
        expected = compute_posterior(scenario).posterior
    except DegenerateEvidence:
        with pytest.raises(DegenerateEvidence):
            enumerate_posterior(scenario, population)
    else:
        assert enumerate_posterior(scenario, population) == expected
    if needed > 1:
        # A population that needed does not divide splits some leaf into fractional individuals.
        with pytest.raises(NonIntegralCounts):
            enumerate_posterior(scenario, population + data.draw(st.integers(1, needed - 1)))


def test_enumeration_keeps_nothing_per_individual():
    # A list of 10^5 individuals alone takes about 800 kB; its four counts take a few hundred bytes.
    scenario = Scenario("0.4", "0.8", "0.1")
    tracemalloc.start()
    try:
        assert enumerate_posterior(scenario, 10**5) == Fraction(16, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"enumeration peaked at {peak} B"


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


@pytest.mark.parametrize(
    "kernel, block",
    [("numpy", 64), ("numpy", None), ("python", 1), ("python", None)],
    ids=["block-64", "default-block", "python-lanes-1", "python"],
)
@pytest.mark.parametrize("samples", [1, EDGE_SAMPLES])
@pytest.mark.parametrize("rate", EDGE_RATES, ids=[repr(rate) for rate in EDGE_RATES])
def test_monte_carlo_matches_a_scalar_replay_at_edge_rates(monkeypatch, edge_uniforms, rate, samples, kernel, block):
    # Each kernel is forced, so that whether an earlier test loaded NumPy does not decide which one runs.
    if kernel == "numpy":
        pytest.importorskip("numpy")
        monkeypatch.setattr(oracle, "_PYTHON_SAMPLE_BUDGET", 0)
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(oracle, "_PYTHON_SAMPLE_BUDGET", 3 * EDGE_SAMPLES)
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK_SAMPLES" if kernel == "numpy" else "_LANES", block)
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


KERNEL_RATES = st.sampled_from([0.0, 1.0, 2.0**-53, 1 - 2.0**-53]) | st.floats(0, 1)
HUGE_SEED = 10**4299 + 7  # 4,300 digits, the longest seed the CLI reads


LANES = oracle._LANES
EDGE_THRESHOLDS = (0.0, 1.0, 2.0**-53, 1 - 2.0**-53)


@settings(deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70) | st.sampled_from([HUGE_SEED, -HUGE_SEED]),
    samples=st.integers(1, 300),
    block=st.sampled_from([1, 3, 64, 1 << 14]),
    lanes=st.sampled_from([1, 3, 64, LANES]),
    rates=st.tuples(KERNEL_RATES, KERNEL_RATES, KERNEL_RATES),
)
@example(seed=HUGE_SEED, samples=(1 << 14) + 1, block=1 << 14, lanes=LANES, rates=(0.4, 0.8, 0.1))
@example(seed=-1, samples=(1 << 14) - 1, block=1 << 14, lanes=LANES, rates=(1 - 2.0**-53, 2.0**-53, 1.0))
@example(seed=0, samples=129, block=64, lanes=64, rates=(0.0, 1.0, 0.5))
@example(seed=7, samples=(1 << 14) + 1, block=1 << 14, lanes=LANES, rates=(0.4, 0.3, 0.6))  # hit below false alarm
@example(seed=-(2**70), samples=(1 << 14) + 1, block=1 << 14, lanes=3, rates=(0.5, 0.25, 0.25))  # hit equal to false alarm
# One sample past a block of lanes, and one short of two: the last block leaves most of its lanes unused, or one.
@example(seed=HUGE_SEED, samples=LANES + 1, block=1 << 14, lanes=LANES, rates=EDGE_THRESHOLDS[:3])
@example(seed=HUGE_SEED, samples=LANES + 1, block=1 << 14, lanes=LANES, rates=EDGE_THRESHOLDS[1:])
@example(seed=HUGE_SEED, samples=2 * LANES - 1, block=1 << 14, lanes=LANES, rates=EDGE_THRESHOLDS[1:])
@example(seed=HUGE_SEED, samples=2 * LANES - 1, block=1 << 14, lanes=LANES, rates=EDGE_THRESHOLDS[::-1][:3])
def test_the_python_and_numpy_kernels_count_the_same_samples(seed, samples, block, lanes, rates):
    pytest.importorskip("numpy")
    thresholds = [_threshold53(rate) for rate in rates]
    original = oracle._BLOCK_SAMPLES, oracle._LANES
    try:
        oracle._BLOCK_SAMPLES, oracle._LANES = block, lanes
        vectorized = _counts_numpy(seed, samples, *thresholds)
        packed = _counts_python(seed, samples, *thresholds)
    finally:
        oracle._BLOCK_SAMPLES, oracle._LANES = original
    assert packed == vectorized


def test_the_packed_lanes_count_what_a_draw_by_draw_replay_counts():
    # An independent scalar replay of the stream, over lane widths that leave the last block short.
    thresholds = [_threshold53(rate) for rate in (0.4, 0.3, 0.6)]
    for seed, samples in ((HUGE_SEED, LANES + 1), (-(2**70), 2 * LANES - 1), (3, 7)):
        conditioned = hits = 0
        for j in range(samples):
            hypothesis = splitmix64(seed, 2 * j) < thresholds[0] << 11
            if splitmix64(seed, 2 * j + 1) < thresholds[1 if hypothesis else 2] << 11:
                conditioned += 1
                hits += hypothesis
        assert _counts_python(seed, samples, *thresholds) == (conditioned, hits)


def test_a_python_call_of_the_whole_budget_keeps_its_ints_small():
    # 10^5 samples in 98 blocks: a list of their draws alone would take several MB.
    thresholds = [_threshold53(rate) for rate in (0.4, 0.8, 0.1)]
    tracemalloc.start()
    try:
        _counts_python(1, 10**5, *thresholds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, f"a 10^5-sample Python call peaked at {peak} B"


@pytest.mark.parametrize("seed", [2**70, -(2**70), HUGE_SEED, -HUGE_SEED])
def test_the_numpy_kernel_raises_no_warning_at_wrapping_seeds_and_edge_thresholds(seed):
    pytest.importorskip("numpy")
    # Every uint64 product and sum in the kernel wraps mod 2^64, which integer ufuncs on arrays
    # do without a warning, so no np.errstate is needed around them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rates in ((0.0, 1.0, 2.0**-53), (1.0, 1 - 2.0**-53, 0.0), (2.0**-53, 0.0, 1.0), (0.4, 0.8, 0.1)):
            for samples in (1, (1 << 14) + 3):
                thresholds = [_threshold53(rate) for rate in rates]
                assert _counts_numpy(seed, samples, *thresholds) == _counts_python(seed, samples, *thresholds)


def _unxorshift(x, shift):
    """The y with y ^ (y >> shift) == x, for y in [0, 2^64)."""
    y = x
    for _ in range(64 // shift + 1):
        y = x ^ (y >> shift)
    return y


def _unmix64(x):
    """The SplitMix64 state whose output is x: each step of the mix undone, last first."""
    x = _unxorshift(x, 31) * pow(oracle._MIX_2, -1, 2**64) % 2**64
    x = _unxorshift(x, 27) * pow(oracle._MIX_1, -1, 2**64) % 2**64
    return _unxorshift(x, 30)


@pytest.mark.parametrize("kernel", ["python", "numpy"])
@pytest.mark.parametrize("rate", [2.0**-53, 0.4, 1 - 2.0**-53, 1.0])
def test_the_kernels_split_draws_exactly_at_the_threshold(kernel, rate):
    # Seeds chosen so that one draw lands on x = T * 2^11 - 1, the last one below the threshold, or on
    # T * 2^11, the first one not below it; a draw that lands there at random has chance 2^-64.
    if kernel == "numpy":
        pytest.importorskip("numpy")
    count = _counts_python if kernel == "python" else _counts_numpy
    threshold = _threshold53(rate)
    always = _threshold53(1.0)
    for x in (threshold << 11) - 1, threshold << 11:
        if x >= 2**64:
            continue
        for sample in (0, 4, 6):  # the first, a middle and the last sample of 7
            # The hypothesis draw of `sample`, tested on the base rate; every sample shows the evidence.
            seed = _unmix64(x) - (2 * sample + 1) * oracle.GOLDEN_GAMMA
            assert splitmix64(seed, 2 * sample) == x
            conditioned, hits = count(seed, 7, threshold, always, always)
            assert conditioned == 7 and hits == sum(splitmix64(seed, 2 * j) < threshold << 11 for j in range(7))
            # The evidence draw of `sample`, tested on the hit rate and then on the false-alarm rate.
            seed = _unmix64(x) - (2 * sample + 2) * oracle.GOLDEN_GAMMA
            assert splitmix64(seed, 2 * sample + 1) == x
            for hypothesis in (always, 0):
                hit, alarm = (threshold, 0) if hypothesis else (0, threshold)
                conditioned, hits = count(seed, 7, hypothesis, hit, alarm)
                assert conditioned == sum(splitmix64(seed, 2 * j + 1) < threshold << 11 for j in range(7))
                assert hits == (conditioned if hypothesis else 0)


def test_monte_carlo_spans_block_boundaries_consistently():
    pytest.importorskip("numpy")
    thresholds = [_threshold53(float(rate)) for rate in (CASES[1].scenario.base_rate, 0.8, 0.1)]
    whole = _counts_numpy(5, 3000, *thresholds)
    original = oracle._BLOCK_SAMPLES
    try:
        oracle._BLOCK_SAMPLES = 64  # force many small blocks
        chunked = _counts_numpy(5, 3000, *thresholds)
    finally:
        oracle._BLOCK_SAMPLES = original
    assert whole == chunked


def test_a_repeat_numpy_call_in_a_thread_allocates_no_buffers(monkeypatch):
    # No buffers left by an earlier test: the first call below makes them at the current block size.
    monkeypatch.setattr(oracle, "_per_thread", None)
    pytest.importorskip("numpy")
    # A first call makes about 690 kB of block buffers; a call making them again would peak near 430 kB.
    thresholds = [_threshold53(rate) for rate in (0.4, 0.8, 0.1)]
    _counts_numpy(1, 10**4, *thresholds)
    tracemalloc.start()
    try:
        _counts_numpy(2, 10**4, *thresholds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"a repeat call peaked at {peak} B"


def test_threads_and_block_size_changes_leave_the_counts_alone(monkeypatch):
    pytest.importorskip("numpy")
    # Four threads make their buffers at the same time, run at blocks of 64, make them again and
    # run at 2^14. Buffers shared between threads would mix one thread's draws into another's
    # counts, and buffers of the wrong size would drop or repeat samples.
    thresholds = [_threshold53(rate) for rate in (0.4, 0.8, 0.1)]
    samples = (1 << 14) + 3
    seeds = [[101 * worker + k for k in range(3)] for worker in range(4)]
    serial = [[_counts_python(seed, samples, *thresholds) for seed in row] for row in seeds]
    blocks = iter([64, 1 << 14])
    # The action runs once all four threads wait, so every thread runs each round at the same block size.
    barrier = threading.Barrier(4, action=lambda: setattr(oracle, "_BLOCK_SAMPLES", next(blocks)), timeout=60)
    results = [[] for _ in seeds]

    def work(worker):
        for _ in range(2):
            barrier.wait()
            results[worker].append([_counts_numpy(seed, samples, *thresholds) for seed in seeds[worker]])

    monkeypatch.setattr(oracle, "_BLOCK_SAMPLES", oracle._BLOCK_SAMPLES)  # restored after the test
    monkeypatch.setattr(oracle, "_per_thread", None)  # so the four first calls race to make it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[row, row] for row in serial]

    # One thread switching between calls makes its buffers again each time.
    for block in (64, 1 << 14, 64):
        oracle._BLOCK_SAMPLES = block
        assert _counts_numpy(seeds[0][0], samples, *thresholds) == serial[0][0]


#: A fresh process that makes eight calls of a quarter of the Python budget each, then one call past it.
_SMALL_CALLS_THEN_ONE_PAST_THE_BUDGET = (
    "import sys\n"
    "from proofcalc import Scenario, monte_carlo_posterior\n"
    "from proofcalc.oracle import _PYTHON_SAMPLE_BUDGET\n"
    "scenario = Scenario('0.4', '1', '1')  # every sample shows the evidence\n"
    "for seed in range(8):\n"
    "    monte_carlo_posterior(scenario, _PYTHON_SAMPLE_BUDGET // 4, seed=seed)\n"
    "print('numpy' in sys.modules)\n"
    "monte_carlo_posterior(scenario, _PYTHON_SAMPLE_BUDGET + 1)\n"
    "print('numpy' in sys.modules)\n"
)


def test_the_kernel_is_chosen_by_the_call_not_by_earlier_calls():
    pytest.importorskip("numpy")  # the child process imports it from the same installation
    result = run_strict("-c", _SMALL_CALLS_THEN_ONE_PAST_THE_BUDGET, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    assert result.stdout.split() == ["False", "True"]


#: A fresh process whose first meta path finder counts each lookup of numpy and refuses it, as an
#: install without NumPy would. It prints the lookups after 30 calls of 10^4 samples, those after
#: one call past the Python budget, and whether every call counted what the Python kernel counts.
_WITHOUT_NUMPY = (
    "import sys\n"
    "class NoNumpy:\n"
    "    lookups = 0\n"
    "    @classmethod\n"
    "    def find_spec(cls, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'numpy':\n"
    "            cls.lookups += 1\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, NoNumpy)\n"
    "from fractions import Fraction\n"
    "from proofcalc import Scenario, monte_carlo_posterior\n"
    "from proofcalc.oracle import _PYTHON_SAMPLE_BUDGET, _counts_python, _threshold53\n"
    "scenario = Scenario('0.4', '0.8', '0.1')\n"
    "thresholds = [_threshold53(rate) for rate in (0.4, 0.8, 0.1)]\n"
    "def counts_as_python(samples, seed):\n"
    "    result = monte_carlo_posterior(scenario, samples, seed=seed)\n"
    "    conditioned, hits = _counts_python(seed, samples, *thresholds)\n"
    "    return (result.samples_conditioned, result.estimate) == (conditioned, Fraction(hits, conditioned))\n"
    "same = all([counts_as_python(10**4, seed) for seed in range(30)])\n"
    "print(NoNumpy.lookups)\n"
    "same = counts_as_python(_PYTHON_SAMPLE_BUDGET + 1, 30) and same\n"
    "print(NoNumpy.lookups, same)\n"
)


def test_without_numpy_only_a_call_past_the_budget_looks_for_it():
    result = run_strict("-c", _WITHOUT_NUMPY, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    assert result.stdout.split() == ["0", "1", "True"]


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


def test_more_than_a_billion_samples_are_refused_before_either_kernel_runs(monkeypatch):
    def never_simulate(*_):
        raise AssertionError("the sample cap let a simulation start")

    monkeypatch.setattr(oracle, "_counts_python", never_simulate)
    monkeypatch.setattr(oracle, "_counts_numpy", never_simulate)
    with pytest.raises(ValueError, match="samples must be at most 1000000000"):
        monte_carlo_posterior(CASES[0].scenario, 10**9 + 1)


def test_fewer_than_one_sample_is_refused_before_either_kernel_runs(monkeypatch):
    def never_simulate(*_):
        raise AssertionError("the sample floor let a simulation start")

    monkeypatch.setattr(oracle, "_counts_python", never_simulate)
    monkeypatch.setattr(oracle, "_counts_numpy", never_simulate)
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
            monte_carlo_posterior(CASES[0].scenario, samples)


def test_exactly_a_billion_samples_pass_the_cap(monkeypatch):
    calls = []

    def fixed_counts(seed, samples, *thresholds):
        calls.append(samples)
        return 400, 320  # conditioned, hits: what a run would count, without drawing a sample

    monkeypatch.setattr(oracle, "_counts_python", fixed_counts)
    monkeypatch.setattr(oracle, "_counts_numpy", fixed_counts)
    result = monte_carlo_posterior(CASES[0].scenario, 10**9)
    assert calls == [10**9]
    assert (result.samples_total, result.samples_conditioned, result.estimate) == (10**9, 400, Fraction(4, 5))


def test_no_conditioned_samples_is_degenerate_evidence():
    assert issubclass(NoConditionedSamples, DegenerateEvidence)


def test_sim_result_validates_its_counts():
    with pytest.raises(ValueError):
        SimResult(
            estimate=Fraction(1, 2),
            standard_error=0.1,
            samples_total=10,
            samples_conditioned=0,
        )
    with pytest.raises(ValueError):
        SimResult(
            estimate=Fraction(1, 2),
            standard_error=-0.1,
            samples_total=10,
            samples_conditioned=5,
        )


def test_sim_result_accepts_every_sample_conditioned():
    result = SimResult(estimate=Fraction(1, 2), standard_error=0.1, samples_total=10, samples_conditioned=10)
    assert result.samples_conditioned == result.samples_total == 10


def test_sim_result_accepts_a_zero_standard_error():
    result = SimResult(estimate=Fraction(1), standard_error=0.0, samples_total=10, samples_conditioned=5)
    assert result.standard_error == 0.0
