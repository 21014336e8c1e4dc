"""Independent checks of the analytic posterior.

Two routes that never touch the conditional-probability formula:

* enumerate_posterior counts the four kinds of individual in a concrete
  population and divides those showing both by those showing the evidence.
* monte_carlo_posterior samples individuals with a seeded deterministic
  generator and reports the conditioned frequency with a binomial
  standard error.

The random source is SplitMix64 used as a counter-based generator: draw
`i` for seed `s` is mix64(s + (i+1) * 0x9E3779B97F4A7C15), and a uniform
is the top 53 bits k of that draw scaled by 2^-53. Sample j consumes draws
2j (hypothesis attribute) and 2j+1 (evidence attribute); an attribute is
present when its uniform lies below the rate read as an IEEE double p.
The kernels never form the uniform or even k: they compare the 64-bit
draw x with T * 2^11, where T = ceil(p * 2^53). That selects exactly the
same draws. p * 2^53 is exact for every double in [0, 1], an integer k lies
below a real number exactly when it lies below that number's ceiling, and
x >> 11 < T exactly when x < T * 2^11. That mapping is the reproducibility
contract: results depend only on (scenario, samples, seed), on every
platform, regardless of kernel or block size.

Two kernels count the same stream. _counts_python runs a block of up to
_LANES samples at once in the 128-bit lanes of Python ints: one state to a
lane, SplitMix64's mix as whole-int shifts, xors and multiplies, and each
lane's compare read from one bit of a subtraction. _counts_numpy mixes
blocks of draws in NumPy uint64 arrays, in buffers that each thread keeps
between calls. A call draws in Python while NumPy is not loaded and it asks
for at most _PYTHON_SAMPLE_BUDGET samples; any other call takes the NumPy
kernel, or draws in Python where NumPy is not installed. So a one-shot run of
up to that many samples never pays for importing NumPy, and a process that
has loaded NumPy always takes the vectorized kernel, which alone imports
NumPy and threading.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .core import DegenerateEvidence, Probability, Scenario, _Checked, _check_count, _check_population, _reduced

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK_64 = (1 << 64) - 1

# Samples per block, small enough that a block's buffers (16 B of draws, 16 B of scratch,
# 8 B of steps and 3 B of flags: 43 B a sample, about 690 kB in all) stay in a core's L2
# cache between passes. Each thread keeps its buffers, so only its first call pays for them.
_BLOCK_SAMPLES = 1 << 14
_MAX_SAMPLES = 10**9

# Samples in a block of the Python kernel. A sample takes two 128-bit lanes of the block's
# states, one for each of its draws, so a full block's states take 32 kB and a call's ints
# peak near 400 kB.
_LANE = 128
_LANES = 1 << 10

# The most samples a call draws in Python while NumPy is not loaded. At 125-140 ns a sample
# (2-core x86 VM, Python 3.11.7) a call of that many takes about 13 ms, under a tenth of the
# 110-170 ms that importing NumPy takes on the same machine.
_PYTHON_SAMPLE_BUDGET = 100_000

# A threading.local, made by the first NumPy call, holding each thread's _NumpyKit. Two
# threads making their first calls at once may each make one; the thread whose one is
# replaced then makes its kit once more, and no count changes.
_per_thread = None


class NonIntegralCounts(ValueError):
    """The population does not apportion into whole individuals."""


class NoConditionedSamples(DegenerateEvidence):
    """No Monte Carlo draw satisfied the evidence; the estimate is undefined."""


def splitmix64(seed: int, index: int) -> int:
    """The index-th 64-bit output of the SplitMix64 stream for `seed`: the reference both kernels are tested against."""
    z = ((seed & _MASK_64) + (index + 1) * GOLDEN_GAMMA) & _MASK_64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK_64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK_64
    return z ^ (z >> 31)


def _threshold53(rate: float) -> int:
    """The integer T such that k * 2^-53 < rate exactly when k < T, for k in [0, 2^53)."""
    return math.ceil(rate * 2**53)


class SimResult(_Checked, namedtuple(
        "SimResult", ("estimate", "standard_error", "samples_total", "samples_conditioned"))):
    """Monte Carlo estimate of the posterior plus its sampling uncertainty."""

    __slots__ = ()

    def __new__(cls, estimate: Probability, standard_error: float, samples_total: int, samples_conditioned: int):
        if not 0 < samples_conditioned <= samples_total:
            raise ValueError("need 0 < samples_conditioned <= samples_total")
        if standard_error < 0:
            raise ValueError("standard_error must be nonnegative")
        return tuple.__new__(cls, (estimate, standard_error, samples_total, samples_conditioned))


def enumerate_posterior(scenario: Scenario, population: int) -> Probability:
    """Posterior by counting an explicit population, no formula involved.

    Counts the individuals of each (hypothesis, evidence) kind in the
    population and returns those showing both over those showing the
    evidence: hits over hits plus false alarms.

    Raises NonIntegralCounts when the population does not split into whole
    individuals, DegenerateEvidence when nobody shows the evidence,
    ValueError when the population is below 1 or has more than
    MAX_POPULATION_DIGITS digits, and TypeError when it is not an int.
    """
    _check_population(population)
    # Derived here, not by core.leaf_joints: an oracle sharing code with what it checks checks nothing.
    base, hit, alarm = scenario.base_rate, scenario.hit_rate, scenario.false_alarm_rate
    # Hits, quiet hypothesis, false alarms and quiet complement: the four kinds of individual.
    counts = (
        population * base * hit,
        population * base * (1 - hit),
        population * (1 - base) * alarm,
        population * (1 - base) * (1 - alarm),
    )
    if any(count.denominator != 1 for count in counts):
        raise NonIntegralCounts(
            f"population {population} does not apportion this scenario into whole individuals"
        )
    hits, _, false_alarms, _ = counts
    if not hits + false_alarms:
        raise DegenerateEvidence("no individual in the population shows the evidence")
    return Probability(hits, hits + false_alarms)


def _lanes(count: int) -> tuple[int, int]:
    """(ones, steps) over `count` 128-bit lanes: lane i holds 1 in ones and i * 2 * GOLDEN_GAMMA mod 2^64 in steps.

    Built by doubling, in O(count): lanes span..2*span-1 of steps are lanes 0..span-1 plus span * 2 * GOLDEN_GAMMA.
    """
    ones, mask, steps, span = 1, _MASK_64, 0, 1
    while span < count:
        shift = _LANE * span
        steps |= ((steps + ones * (2 * span * GOLDEN_GAMMA & _MASK_64)) & mask) << shift
        ones |= ones << shift
        mask |= mask << shift
        span *= 2
    low = (1 << _LANE * count) - 1
    return ones & low, steps & low


def _counts_python(seed: int, samples: int, base: int, hit: int, alarm: int) -> tuple[int, int]:
    """(conditioned, hits) over samples 0..samples-1, a block at a time in the 128-bit lanes of Python ints.

    A block of `lanes` samples holds its hypothesis states in lanes 0..lanes-1 of one int and its
    evidence states in the next `lanes` lanes. The mix masks each lane to 64 bits before every
    multiply, so that a lane holds its whole 128-bit product and no carry crosses into the next
    lane, and again after it, which takes the product mod 2^64.
    """
    blocks = -(-samples // _LANES)
    lanes = -(-samples // blocks)  # equal blocks, so that the last one leaves fewer than `blocks` lanes unused
    width = _LANE * lanes
    ones, steps = _lanes(lanes)
    mask = ones * _MASK_64
    both = mask | mask << width
    # Sample j mixes counter 2j+1 (hypothesis) and 2j+2 (evidence), as _counts_numpy does.
    state = (steps + ones * ((seed + GOLDEN_GAMMA) & _MASK_64)) & mask
    state |= ((state + ones * GOLDEN_GAMMA) & mask) << width
    advance = (ones | ones << width) * (2 * lanes * GOLDEN_GAMMA & _MASK_64)
    # x < T * 2^11 exactly when bit 64 of T * 2^11 - 1 + 2^64 - x is set. That difference lies in
    # [0, 2^65) for every x in [0, 2^64), so no lane borrows from the next, and T = 0 selects nothing.
    below_base, below_hit, below_alarm = (ones * ((t << 11) + _MASK_64) for t in (base, hit, alarm))
    bits = ones << 64
    hits = false_alarms = 0
    for done in range(0, samples, lanes):
        if samples - done < lanes:
            bits &= (1 << _LANE * (samples - done)) - 1  # the unused lanes of the last block count nothing
        z = (state ^ state >> 30) & both
        z = z * _MIX_1 & both
        z = (z ^ z >> 27) & both
        z = z * _MIX_2 & both
        z ^= z >> 31
        hypothesis = (below_base - (z & mask)) & bits
        z = z >> width & mask
        by_hit = (below_hit - z) & bits
        by_alarm = (below_alarm - z) & bits
        hits += (by_hit & hypothesis).bit_count()
        false_alarms += (by_alarm ^ (by_alarm & hypothesis)).bit_count()
        state = (state + advance) & both
    return hits + false_alarms, hits


class _NumpyKit:
    """One thread's NumPy block buffers and uint64 operands for blocks of `size` samples, kept between calls.

    The operands are 0-d uint64 arrays, which a ufunc takes faster than NumPy scalars: the mix's
    shifts and multipliers, made once, and the three thresholds and two block starts, set in place.
    """

    def __init__(self, np, size: int):
        # Sample j mixes counter 2j+1 (hypothesis) and 2j+2 (evidence): within a block each stream
        # advances by 2*GOLDEN_GAMMA a sample, and the evidence stream runs GOLDEN_GAMMA ahead.
        self.size = size
        draws = np.empty(2 * size, dtype=np.uint64)
        self.buffers = (
            np.arange(size, dtype=np.uint64) * np.uint64(2 * GOLDEN_GAMMA & _MASK_64),
            draws,
            np.empty_like(draws),
            *(np.empty(size, dtype=bool) for _ in range(3)),
        )
        self.full = self.cut(size)
        self.mix = tuple(np.array(value, dtype=np.uint64) for value in (30, 27, 31, _MIX_1, _MIX_2))
        self.limits = tuple(np.empty((), dtype=np.uint64) for _ in range(5))

    def cut(self, block: int) -> tuple:
        """Views for `block` samples: steps, draws, scratch, hypothesis draws, evidence draws and three flag arrays."""
        steps, draws, scratch, *flags = self.buffers
        return (
            steps[:block], draws[: 2 * block], scratch[: 2 * block], draws[:block], draws[block : 2 * block],
            *(flag[:block] for flag in flags),
        )


def _counts_numpy(seed: int, samples: int, base: int, hit: int, alarm: int) -> tuple[int, int]:
    """(conditioned, hits) over samples 0..samples-1 in NumPy blocks, each evidence draw tested on both thresholds.

    The block buffers belong to the calling thread and outlive the call: a thread makes them on
    its first call and again when _BLOCK_SAMPLES changes, so its later calls allocate no array.
    Wraparound mod 2^64 is the algorithm, and integer ufuncs on arrays wrap without a warning.
    """
    global _per_thread
    import numpy as np

    if _per_thread is None:
        import threading

        _per_thread = threading.local()
    kit = getattr(_per_thread, "kit", None)
    if kit is None or kit.size != _BLOCK_SAMPLES:
        kit = _per_thread.kit = _NumpyKit(np, _BLOCK_SAMPLES)
    by_30, by_27, by_31, mix_1, mix_2 = kit.mix
    base_limit, hit_limit, alarm_limit, hypothesis_start, evidence_start = kit.limits

    # x >> 11 < T exactly when x <= T * 2^11 - 1, a bound that fits in uint64 for T in [1, 2^53].
    # T = 0, a rate of exactly 0, selects nothing, and so does x < 0.
    thresholds = (base, hit, alarm)
    base_test, hit_test, alarm_test = (np.less_equal if t else np.less for t in thresholds)
    for limit, t in zip(kit.limits, thresholds):
        limit[()] = max((t << 11) - 1, 0)

    false_alarms = hits = 0
    for done in range(0, samples, kit.size):
        block = samples - done
        views = kit.full if block >= kit.size else kit.cut(block)
        steps, z, scratch, x_hypothesis, x_evidence, hypothesis, by_hit, by_alarm = views
        start = seed + (2 * done + 1) * GOLDEN_GAMMA
        hypothesis_start[()] = start & _MASK_64
        evidence_start[()] = (start + GOLDEN_GAMMA) & _MASK_64
        np.add(steps, hypothesis_start, out=x_hypothesis)
        np.add(steps, evidence_start, out=x_evidence)
        np.right_shift(z, by_30, out=scratch)
        z ^= scratch
        z *= mix_1
        np.right_shift(z, by_27, out=scratch)
        z ^= scratch
        z *= mix_2
        np.right_shift(z, by_31, out=scratch)
        z ^= scratch

        base_test(x_hypothesis, base_limit, out=hypothesis)
        hit_test(x_evidence, hit_limit, out=by_hit)
        alarm_test(x_evidence, alarm_limit, out=by_alarm)
        by_hit &= hypothesis
        # On booleans, by_alarm > hypothesis is by_alarm and not hypothesis.
        np.greater(by_alarm, hypothesis, out=by_alarm)
        hits += int(np.count_nonzero(by_hit))
        false_alarms += int(np.count_nonzero(by_alarm))
    return hits + false_alarms, hits


def monte_carlo_posterior(scenario: Scenario, samples: int, seed: int = 0) -> SimResult:
    """Seeded simulation of the scenario, conditioned on the evidence.

    Each sample draws the hypothesis attribute with probability base_rate,
    then the evidence attribute with hit_rate or false_alarm_rate
    accordingly. The estimate is the conditioned frequency of the
    hypothesis; the standard error is the binomial sqrt(p(1-p)/n) over the
    conditioned draws. Both kernels give the same counts; see the module
    docstring for which one runs.

    Raises NoConditionedSamples when no draw satisfied the evidence, and
    ValueError when samples is below 1 or above 10^9.
    """
    _check_count("samples", samples, _MAX_SAMPLES)
    thresholds = (
        _threshold53(float(scenario.base_rate)),
        _threshold53(float(scenario.hit_rate)),
        _threshold53(float(scenario.false_alarm_rate)),
    )
    # get() is None both when NumPy is not loaded and when a None entry blocks its import.
    if sys.modules.get("numpy") is None and samples <= _PYTHON_SAMPLE_BUDGET:
        conditioned, hits = _counts_python(seed, samples, *thresholds)
    else:
        try:
            conditioned, hits = _counts_numpy(seed, samples, *thresholds)
        except ImportError:  # no NumPy installed: the Python kernel counts the same stream
            conditioned, hits = _counts_python(seed, samples, *thresholds)

    if conditioned == 0:
        raise NoConditionedSamples(
            f"none of the {samples} samples satisfied the evidence; cannot condition"
        )
    frequency = hits / conditioned
    return tuple.__new__(SimResult, (
        _reduced(hits, conditioned), math.sqrt(frequency * (1.0 - frequency) / conditioned), samples, conditioned,
    ))
