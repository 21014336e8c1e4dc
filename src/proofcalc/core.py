"""Exact Bayesian updating for the three-rate evidence model.

Everything here is computed with rational arithmetic, so posteriors like
32/38 stay exact until somebody formats them for display. One kernel,
`leaf_joints_of`, derives the four leaf joints as integers from the rates'
numerators and denominators; `compute_posterior`, `freqtree` and `sweep` build on it.
`decide` returns one `Verdict`: the outcome, and the chance and kind of its error.
All types are immutable values and all operations are pure functions; they
are safe to call from any number of threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
RateLike = "Probability | Fraction | int | float | str"

#: The three rates of a scenario, in the order every layer reads them.
RATE_NAMES = ("base_rate", "hit_rate", "false_alarm_rate")

#: Digits a tree's population may have, as many as a rate's numerator or
#: denominator: with every rate at that cap, no count or residual numerator
#: passes 4,000 digits, below Python's 4,300-digit int-to-str limit.
MAX_POPULATION_DIGITS = 1000
_POPULATION_LIMIT = 10**MAX_POPULATION_DIGITS

#: How a tree's counts are made whole: round non-integral expected counts to
#: integers preserving row sums, or keep them as exact fractions.
LARGEST_REMAINDER = "largest-remainder"
EXACT_RATIONAL = "exact-rational"
ROUNDING_POLICIES = (LARGEST_REMAINDER, EXACT_RATIONAL)


class DegenerateEvidence(ValueError):
    """The evidence has zero probability mass, so conditioning on it is undefined."""


class Probability(Fraction):
    """An exact rational number validated to lie in [0, 1].

    Floats are read through their shortest decimal representation, so
    ``Probability(0.4)`` is exactly 2/5 rather than the 53-bit binary
    neighbour of 0.4. Strings accept plain decimals ("0.4") and fractions
    ("2/5"); arithmetic results are ordinary ``Fraction`` values.
    """

    __slots__ = ()

    def __new__(cls, value: RateLike = 0, denominator=None):
        if denominator is None and type(value) is cls:  # immutable and already checked
            return value
        if denominator is None and type(value) is Fraction:  # already normalised: copy its slots
            self = object.__new__(cls)
            self._numerator, self._denominator = value._numerator, value._denominator
        else:
            if isinstance(value, float):
                value = Fraction(str(value))
            self = Fraction.__new__(cls, value, denominator)
        # Fraction's slots, not its properties, on this hot path; the denominator is normalised positive.
        if not 0 <= self._numerator <= self._denominator:
            raise ValueError(f"probability must be in [0, 1], got {self._numerator}/{self._denominator}")
        return self


@dataclass(frozen=True)
class Scenario:
    """The three rates of the evidence model, plus display labels.

    base_rate          p(H): prior probability that the hypothesis condition holds
    hit_rate           p(E|H): probability of the evidence when it does
    false_alarm_rate   p(E|not H): probability of the evidence when it does not

    Each rate only has to sit in [0, 1] on its own; there is no joint
    constraint. Labels are presentation metadata and never enter any
    computation.
    """

    base_rate: Probability
    hit_rate: Probability
    false_alarm_rate: Probability
    hypothesis_label: str = "runs on Main Street"
    evidence_label: str = "is blue"

    def __post_init__(self) -> None:
        for name in RATE_NAMES:
            object.__setattr__(self, name, Probability(getattr(self, name)))


@dataclass(frozen=True)
class PosteriorBreakdown:
    """The four quantities of one Bayesian update.

    joint_hit          p(E and H)     = base_rate * hit_rate
    joint_false_alarm  p(E and not H) = (1 - base_rate) * false_alarm_rate
    evidence_marginal  p(E)           = joint_hit + joint_false_alarm
    posterior          p(H | E)       = joint_hit / evidence_marginal
    """

    joint_hit: Probability
    joint_false_alarm: Probability
    evidence_marginal: Probability
    posterior: Probability

    def __post_init__(self) -> None:
        for name in ("joint_hit", "joint_false_alarm", "evidence_marginal", "posterior"):
            value = getattr(self, name)
            if type(value) is not Probability:
                object.__setattr__(self, name, Probability(value))
        # The two identities of the docstring, cross-multiplied in integers.
        h, dh = self.joint_hit._numerator, self.joint_hit._denominator
        a, da = self.joint_false_alarm._numerator, self.joint_false_alarm._denominator
        m, dm = self.evidence_marginal._numerator, self.evidence_marginal._denominator
        p, dp = self.posterior._numerator, self.posterior._denominator
        if m * dh * da != dm * (h * da + a * dh):
            raise ValueError("evidence_marginal must equal joint_hit + joint_false_alarm")
        if p * m * dh != h * dp * dm:
            raise ValueError("posterior * evidence_marginal must equal joint_hit")


class Outcome(enum.Enum):
    FOR_MOVING_PARTY = "for-moving-party"
    FOR_DEFENDANT = "for-defendant"


class ErrorKind(enum.Enum):
    FALSE_ALARM_VERDICT = "false-alarm-verdict"
    MISS_VERDICT = "miss-verdict"


#: The civil "more likely than not" cutoff used when no threshold is given.
PREPONDERANCE = Probability(1, 2)


@dataclass(frozen=True)
class Verdict:
    """A threshold verdict on a posterior, the chance that it is wrong, and in which direction."""

    outcome: Outcome
    threshold: Probability
    posterior: Probability
    wrong_verdict_probability: Probability
    error_kind: ErrorKind


def leaf_joints_of(b: int, d_base: int, h: int, d_hit: int, a: int, d_alarm: int) -> tuple[int, ...]:
    """The whole three-rate model in integers, from rates b/d_base, h/d_hit and a/d_alarm in [0, 1].

    Returns the numerators of p(H and E), p(H and not E), p(not H and E) and
    p(not H and not E) over D = d_base * d_hit * d_alarm, then D itself. The
    four numerators sum to D; neither they nor D are reduced.
    """
    hyp, comp = b * d_alarm, (d_base - b) * d_hit
    return hyp * h, hyp * (d_hit - h), comp * a, comp * (d_alarm - a), d_base * d_hit * d_alarm


def leaf_joints(scenario: Scenario) -> tuple[int, ...]:
    """`leaf_joints_of` on a scenario's three rates, read from Fraction's slots."""
    b, h, a = scenario.base_rate, scenario.hit_rate, scenario.false_alarm_rate
    return leaf_joints_of(b._numerator, b._denominator, h._numerator, h._denominator, a._numerator, a._denominator)


def _reduced(numerator: int, denominator: int, cls: type = Probability) -> Fraction:
    """numerator/denominator (denominator > 0) as an instance of `cls`, Fraction or a subclass of it:
    one gcd and Fraction's two slots, filled as its own arithmetic does; no range check, no argument
    dispatch. Kernel results, 0 <= numerator <= denominator, are Probabilities."""
    divisor = math.gcd(numerator, denominator)
    value = object.__new__(cls)
    value._numerator = numerator // divisor
    value._denominator = denominator // divisor
    return value


def compute_posterior(scenario: Scenario) -> PosteriorBreakdown:
    """Update the base rate on the evidence, exactly.

    Raises DegenerateEvidence when the evidence has zero marginal
    probability (for instance hit_rate = false_alarm_rate = 0), because
    conditioning on an impossible event is undefined rather than 0 or NaN.
    """
    joint_hit, _, joint_false_alarm, _, denominator = leaf_joints(scenario)
    marginal = joint_hit + joint_false_alarm
    if marginal == 0:
        raise DegenerateEvidence(
            "evidence has zero probability under this scenario; the posterior is undefined"
        )
    return PosteriorBreakdown(
        joint_hit=_reduced(joint_hit, denominator),
        joint_false_alarm=_reduced(joint_false_alarm, denominator),
        evidence_marginal=_reduced(marginal, denominator),
        posterior=_reduced(joint_hit, marginal),
    )


def _outcome(numerator: int, denominator: int, threshold: Probability) -> Outcome:
    """The rule of `decide` for the posterior numerator/denominator (denominator > 0), cross-multiplied."""
    moving = numerator * threshold._denominator > threshold._numerator * denominator
    return Outcome.FOR_MOVING_PARTY if moving else Outcome.FOR_DEFENDANT


def decide(breakdown: PosteriorBreakdown, threshold: RateLike = PREPONDERANCE) -> Verdict:
    """Apply a standard-of-proof threshold to a posterior, with the chance that the verdict is wrong.

    "More likely than not" is a strict inequality: a posterior exactly equal
    to the threshold rules for the defendant, because the burden rests on
    the moving party. `_outcome` is this rule, and `sweep` applies it too.

    A verdict for the moving party is wrong exactly when the hypothesis is
    false (probability 1 - posterior, a false-alarm verdict); a verdict for
    the defendant is wrong exactly when it is true (probability posterior,
    a miss verdict).
    """
    threshold, posterior = Probability(threshold), breakdown.posterior
    n, d = posterior._numerator, posterior._denominator
    if _outcome(n, d, threshold) is Outcome.FOR_MOVING_PARTY:
        return Verdict(Outcome.FOR_MOVING_PARTY, threshold, posterior, _reduced(d - n, d), ErrorKind.FALSE_ALARM_VERDICT)
    return Verdict(Outcome.FOR_DEFENDANT, threshold, posterior, posterior, ErrorKind.MISS_VERDICT)


verdict_error_profile = decide  # the earlier name of `decide`, which callers such as bench/ still use
