"""Exact Bayesian updating for the three-rate evidence model.

Everything here is computed with rational arithmetic, so posteriors like
32/38 stay exact until somebody formats them for display. One kernel,
`leaf_joints_of`, derives the four leaf joints as integers from the rates'
numerators and denominators; `compute_posterior`, `freqtree` and `sweep` build on it.
`decide` returns one `Verdict`: the outcome, and the chance and kind of its error.
The records are named tuples; the kernels build theirs with `tuple.__new__`,
skipping the checks that a record built by hand goes through.
All types are immutable values and all operations are pure functions; they
are safe to call from any number of threads.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction

# Fraction's private slots, _numerator and _denominator, are read on measured hot paths, and break first if a Python
# release renames them: here in Probability.__new__, PosteriorBreakdown.__new__, leaf_joints, _reduced (which
# writes them), _outcome and decide; in scenario_io.parse_rate and read_rate, which also sets the class of the new
# Fraction it checks to Probability (sound while Probability adds no slots); in freqtree.build_tree; in
# sweep.sweep_rows, for each grid value and the threshold, and for each posterior, whose slots it writes; and in
# sweep.write_sweep_rows, for each row's value and posterior. render reads none.

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


class _Checked:
    """A named tuple whose `__new__` checks its fields. namedtuple's own `_make` builds with `tuple.__new__`,
    and `_replace` (and, from Python 3.13, `copy.replace`) builds through `_make`; here `_make` calls the
    class, so a replaced field is checked too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Scenario(_Checked, namedtuple("Scenario", (*RATE_NAMES, "hypothesis_label", "evidence_label"))):
    """The three rates of the evidence model, plus display labels.

    base_rate          p(H): prior probability that the hypothesis condition holds
    hit_rate           p(E|H): probability of the evidence when it does
    false_alarm_rate   p(E|not H): probability of the evidence when it does not

    Each rate is read as a Probability, so it only has to sit in [0, 1] on
    its own; there is no joint constraint. Labels are presentation metadata
    and never enter any computation.
    """

    __slots__ = ()

    def __new__(cls, base_rate: RateLike, hit_rate: RateLike, false_alarm_rate: RateLike,
                hypothesis_label: str = "runs on Main Street", evidence_label: str = "is blue"):
        rates = Probability(base_rate), Probability(hit_rate), Probability(false_alarm_rate)
        return tuple.__new__(cls, (*rates, hypothesis_label, evidence_label))


class PosteriorBreakdown(_Checked, namedtuple(
        "PosteriorBreakdown", ("joint_hit", "joint_false_alarm", "evidence_marginal", "posterior"))):
    """The four quantities of one Bayesian update, each a Probability.

    joint_hit          p(E and H)     = base_rate * hit_rate
    joint_false_alarm  p(E and not H) = (1 - base_rate) * false_alarm_rate
    evidence_marginal  p(E)           = joint_hit + joint_false_alarm
    posterior          p(H | E)       = joint_hit / evidence_marginal
    """

    __slots__ = ()

    def __new__(cls, joint_hit: RateLike, joint_false_alarm: RateLike, evidence_marginal: RateLike,
                posterior: RateLike):
        values = tuple(map(Probability, (joint_hit, joint_false_alarm, evidence_marginal, posterior)))
        # The two identities of the docstring, cross-multiplied in integers.
        (h, dh), (a, da), (m, dm), (p, dp) = [(value._numerator, value._denominator) for value in values]
        if not _sums_to((h, dh), (a, da), (m, dm)):
            raise ValueError("evidence_marginal must equal joint_hit + joint_false_alarm")
        if p * m * dh != h * dp * dm:
            raise ValueError("posterior * evidence_marginal must equal joint_hit")
        return tuple.__new__(cls, values)


class Outcome(enum.Enum):
    FOR_MOVING_PARTY = "for-moving-party"
    FOR_DEFENDANT = "for-defendant"


class ErrorKind(enum.Enum):
    FALSE_ALARM_VERDICT = "false-alarm-verdict"
    MISS_VERDICT = "miss-verdict"


#: The civil "more likely than not" cutoff used when no threshold is given.
PREPONDERANCE = Probability(1, 2)


class Verdict(namedtuple("Verdict", ("outcome", "threshold", "posterior", "wrong_verdict_probability", "error_kind"))):
    """A threshold verdict on a posterior, the chance that it is wrong, and in which direction.

    outcome is an Outcome and error_kind an ErrorKind; the other three are Probabilities.
    """

    __slots__ = ()


def _sums_to(first: tuple[int, int], second: tuple[int, int], total: tuple[int, int]) -> bool:
    """Whether the ratios first + second == total, for (numerator, denominator > 0) pairs."""
    (a, da), (b, db), (t, dt) = first, second, total
    return (a * db + b * da) * dt == t * da * db


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


def _check_population(population: int) -> None:
    """Raise TypeError unless `population` is an int, ValueError unless it is 1 to MAX_POPULATION_DIGITS digits."""
    if not isinstance(population, int):
        raise TypeError(f"population must be an int, got {type(population).__name__}")
    if population < 1:
        raise ValueError("population must be a positive integer")
    if population >= _POPULATION_LIMIT:
        raise ValueError(f"population may have at most {MAX_POPULATION_DIGITS} digits")


def _check_count(name: str, value: int, most: int) -> int:
    """`value` if it is a count from 1 to `most`, else ValueError naming `name`: the one home of that rule."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}")
    return value


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
    return tuple.__new__(PosteriorBreakdown, (
        _reduced(joint_hit, denominator),
        _reduced(joint_false_alarm, denominator),
        _reduced(marginal, denominator),
        _reduced(joint_hit, marginal),
    ))


def _outcome(numerator: int, denominator: int, threshold: Probability) -> Outcome:
    """The rule of `decide` for the posterior numerator/denominator (denominator > 0), cross-multiplied."""
    moving = numerator * threshold._denominator > threshold._numerator * denominator
    return Outcome.FOR_MOVING_PARTY if moving else Outcome.FOR_DEFENDANT


def decide(breakdown: PosteriorBreakdown, threshold: RateLike = PREPONDERANCE) -> Verdict:
    """Apply a standard-of-proof threshold to a posterior, with the chance that the verdict is wrong.

    "More likely than not" is a strict inequality: a posterior exactly equal
    to the threshold rules for the defendant, because the burden rests on
    the moving party. `_outcome` is this rule, and `sweep_rows` applies it inline.

    A verdict for the moving party is wrong exactly when the hypothesis is
    false (probability 1 - posterior, a false-alarm verdict); a verdict for
    the defendant is wrong exactly when it is true (probability posterior,
    a miss verdict).
    """
    threshold, posterior = Probability(threshold), breakdown.posterior
    n, d = posterior._numerator, posterior._denominator
    if _outcome(n, d, threshold) is Outcome.FOR_MOVING_PARTY:
        return tuple.__new__(Verdict, (
            Outcome.FOR_MOVING_PARTY, threshold, posterior, _reduced(d - n, d), ErrorKind.FALSE_ALARM_VERDICT))
    return tuple.__new__(Verdict, (Outcome.FOR_DEFENDANT, threshold, posterior, posterior, ErrorKind.MISS_VERDICT))


verdict_error_profile = decide  # the earlier name of `decide`, which callers such as bench/ still use
