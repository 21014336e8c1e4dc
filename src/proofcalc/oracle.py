"""Independent checks of the analytic posterior.

Two routes that never touch the conditional-probability formula:

* enumerate_posterior lays out a concrete population individual by
  individual and counts.
* monte_carlo_posterior samples individuals with a seeded deterministic
  generator and reports the conditioned frequency with a binomial
  standard error.

The random source is SplitMix64 used as a counter-based generator: draw
`i` for seed `s` is mix64(s + (i+1) * 0x9E3779B97F4A7C15), and a uniform
is the top 53 bits k of that draw scaled by 2^-53. Sample j consumes draws
2j (hypothesis attribute) and 2j+1 (evidence attribute); an attribute is
present when its uniform lies below the rate read as an IEEE double p.
The kernel never forms the uniform: it compares the integer k with
ceil(p * 2^53), which selects exactly the same draws, because p * 2^53 is
exact for every double in [0, 1] and an integer lies below a real number
exactly when it lies below that number's ceiling. That mapping is the
reproducibility contract: results depend only on (scenario, samples,
seed), on every platform, regardless of block size. NumPy is imported
only when a simulation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DegenerateEvidence, Probability, Scenario

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK_64 = (1 << 64) - 1

# Samples per block, small enough that a block's buffers (about 50 bytes a
# sample) stay in a core's L2 cache between the passes over them.
_BLOCK_SAMPLES = 1 << 14
_MAX_SAMPLES = 10**9


class NonIntegralCounts(ValueError):
    """The population does not apportion into whole individuals."""


class NoConditionedSamples(DegenerateEvidence):
    """No Monte Carlo draw satisfied the evidence; the estimate is undefined."""


def splitmix64(seed: int, index: int) -> int:
    """The index-th 64-bit output of the SplitMix64 stream for `seed`."""
    z = ((seed & _MASK_64) + (index + 1) * GOLDEN_GAMMA) & _MASK_64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK_64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK_64
    return z ^ (z >> 31)


def uniform53(seed: int, index: int) -> float:
    """The index-th uniform double in [0, 1), carrying 53 random bits."""
    return (splitmix64(seed, index) >> 11) * 2.0**-53


def _threshold53(rate: float) -> int:
    """The integer T such that k * 2^-53 < rate exactly when k < T, for k in [0, 2^53)."""
    return math.ceil(rate * 2**53)


def _mix53(z: np.ndarray, scratch: np.ndarray) -> None:
    """Replace each SplitMix64 state in z by the top 53 bits of its output, in place.

    Wraparound mod 2^64 is the algorithm; callers run this under
    np.errstate(over="ignore").
    """
    import numpy as np

    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX_1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX_2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    z >>= np.uint64(11)


@dataclass(frozen=True)
class SimResult:
    """Monte Carlo estimate of the posterior plus its sampling uncertainty."""

    estimate: Probability
    standard_error: float
    samples_total: int
    samples_conditioned: int

    def __post_init__(self) -> None:
        if not 0 < self.samples_conditioned <= self.samples_total:
            raise ValueError("need 0 < samples_conditioned <= samples_total")
        if self.standard_error < 0:
            raise ValueError("standard_error must be nonnegative")


def enumerate_posterior(scenario: Scenario, population: int) -> Probability:
    """Posterior by counting an explicit population, no formula involved.

    Builds the full list of individuals with their (hypothesis, evidence)
    attributes from the exact leaf counts, keeps the ones showing the
    evidence, and returns the fraction of those with the hypothesis.

    Raises NonIntegralCounts when the population does not split into whole
    individuals, and DegenerateEvidence when nobody shows the evidence.
    """
    if population < 1:
        raise ValueError("population must be a positive integer")
    # Derived here, not by core.leaf_joints: an oracle sharing code with what it checks checks nothing.
    base = scenario.base_rate
    hit = scenario.hit_rate
    alarm = scenario.false_alarm_rate
    counts = {
        (True, True): population * base * hit,
        (True, False): population * base * (1 - hit),
        (False, True): population * (1 - base) * alarm,
        (False, False): population * (1 - base) * (1 - alarm),
    }
    if any(count.denominator != 1 for count in counts.values()):
        raise NonIntegralCounts(
            f"population {population} does not apportion this scenario into whole individuals"
        )
    individuals = [
        attributes for attributes, count in counts.items() for _ in range(int(count))
    ]
    with_evidence = [hypothesis for hypothesis, evidence in individuals if evidence]
    if not with_evidence:
        raise DegenerateEvidence("no individual in the population shows the evidence")
    return Probability(Fraction(sum(with_evidence), len(with_evidence)))


def monte_carlo_posterior(scenario: Scenario, samples: int, seed: int = 0) -> SimResult:
    """Seeded simulation of the scenario, conditioned on the evidence.

    Each sample draws the hypothesis attribute with probability base_rate,
    then the evidence attribute with hit_rate or false_alarm_rate
    accordingly. The estimate is the conditioned frequency of the
    hypothesis; the standard error is the binomial sqrt(p(1-p)/n) over the
    conditioned draws.

    Raises NoConditionedSamples when no draw satisfied the evidence, and
    ValueError when samples is below 1 or above 10^9.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_MAX_SAMPLES}")
    import numpy as np

    base = np.uint64(_threshold53(float(scenario.base_rate)))
    hit = np.uint64(_threshold53(float(scenario.hit_rate)))
    alarm = np.uint64(_threshold53(float(scenario.false_alarm_rate)))

    # Sample j mixes counter 2j+1 (hypothesis) and 2j+2 (evidence): within a
    # block each stream advances by 2*GOLDEN_GAMMA a sample, and the
    # evidence stream runs GOLDEN_GAMMA ahead of the hypothesis stream.
    size = min(_BLOCK_SAMPLES, samples)
    steps = np.arange(size, dtype=np.uint64) * np.uint64(2 * GOLDEN_GAMMA & _MASK_64)
    draws = np.empty(2 * size, dtype=np.uint64)
    scratch = np.empty_like(draws)
    limits = np.empty(size, dtype=np.uint64)
    has_hypothesis = np.empty(size, dtype=bool)
    has_evidence = np.empty(size, dtype=bool)

    conditioned = hypothesis_hits = 0
    done = 0
    with np.errstate(over="ignore"):
        while done < samples:
            block = min(size, samples - done)
            start = seed + (2 * done + 1) * GOLDEN_GAMMA
            k_hypothesis = draws[:block]
            k_evidence = draws[block : 2 * block]
            np.add(steps[:block], np.uint64(start & _MASK_64), out=k_hypothesis)
            np.add(steps[:block], np.uint64((start + GOLDEN_GAMMA) & _MASK_64), out=k_evidence)
            _mix53(draws[: 2 * block], scratch[: 2 * block])

            hypothesis = has_hypothesis[:block]
            evidence = has_evidence[:block]
            limit = limits[:block]
            np.less(k_hypothesis, base, out=hypothesis)
            limit.fill(alarm)
            np.copyto(limit, hit, where=hypothesis)
            np.less(k_evidence, limit, out=evidence)
            conditioned += int(np.count_nonzero(evidence))
            evidence &= hypothesis
            hypothesis_hits += int(np.count_nonzero(evidence))
            done += block

    if conditioned == 0:
        raise NoConditionedSamples(
            f"none of the {samples} samples satisfied the evidence; cannot condition"
        )
    frequency = hypothesis_hits / conditioned
    return SimResult(
        estimate=Probability(hypothesis_hits, conditioned),
        standard_error=math.sqrt(frequency * (1.0 - frequency) / conditioned),
        samples_total=samples,
        samples_conditioned=conditioned,
    )
