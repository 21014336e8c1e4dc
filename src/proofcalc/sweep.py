"""Sensitivity sweeps: vary one rate over a grid; each point is one (value, posterior, outcome) row and one CSV line."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import gcd

from .core import PREPONDERANCE, RATE_NAMES, Outcome, Probability, RateLike, Scenario, _check_count, leaf_joints_of
from .scenario_io import _exact_text, _sig_text

SWEEPABLE_PARAMETERS = RATE_NAMES
MAX_STEPS = 10**5


class EmptyGridError(ValueError):
    pass


class SweepRow(namedtuple("SweepRow", ("value", "posterior", "outcome"))):
    """One grid point: its value and posterior (Probabilities) and its Outcome; posterior and outcome are None
    where the evidence is degenerate."""

    __slots__ = ()


class SweepTable(namedtuple("SweepTable", ("swept_parameter", "threshold", "rows"))):
    """A swept rate's name, the verdict threshold (a Probability) and a tuple of SweepRows."""

    __slots__ = ()


def _slot(parameter: str) -> int:
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"cannot sweep {parameter!r}; expected one of {SWEEPABLE_PARAMETERS}")
    return 2 * SWEEPABLE_PARAMETERS.index(parameter)


def sweep_rows(scenario: Scenario, parameter: str, grid: Iterable[RateLike],
               threshold: RateLike = PREPONDERANCE) -> Iterator[SweepRow]:
    """The posterior and outcome at each grid value of `parameter`, yielded as the grid is read.

    `core.leaf_joints_of` runs twice, with the swept rate at 1 and at 0; each
    joint is linear in that rate, so at a grid value n/d it is n·J(1) +
    (d - n)·J(0), the kernel's own integers from four multiplications, and a
    row costs one gcd and no Scenario. The posterior's two slots are filled
    here, as `core._reduced` fills them, and the outcome is `core._outcome`'s
    rule on them, cross-multiplied with the threshold's integers, read once.
    Arguments are checked as the rows are read: the grid must be nonempty and
    strictly increasing (EmptyGridError, ValueError). Grid points with zero
    evidence mass are marked, not fatal.
    """
    slot = _slot(parameter)
    threshold = Probability(threshold)
    cut, cut_denominator = threshold._numerator, threshold._denominator
    moving, defendant = Outcome.FOR_MOVING_PARTY, Outcome.FOR_DEFENDANT
    rates = [x for name in SWEEPABLE_PARAMETERS for x in getattr(scenario, name).as_integer_ratio()]
    rates[slot:slot + 2] = 1, 1
    hit_at_1, _, false_alarm_at_1, _, _ = leaf_joints_of(*rates)
    rates[slot] = 0
    hit_at_0, _, false_alarm_at_0, _, _ = leaf_joints_of(*rates)
    previous = None
    for value in grid:
        value = Probability(value)
        n, d = value._numerator, value._denominator
        if previous is not None and n * previous._denominator <= previous._numerator * d:
            raise ValueError("sweep grid values must be strictly increasing")
        previous = value
        joint_hit = n * hit_at_1 + (d - n) * hit_at_0
        joint_false_alarm = n * false_alarm_at_1 + (d - n) * false_alarm_at_0
        marginal = joint_hit + joint_false_alarm
        if marginal == 0:
            yield tuple.__new__(SweepRow, (value, None, None))
            continue
        divisor = gcd(joint_hit, marginal)
        posterior = object.__new__(Probability)
        posterior._numerator = numerator = joint_hit // divisor
        posterior._denominator = denominator = marginal // divisor
        outcome = moving if numerator * cut_denominator > cut * denominator else defendant
        yield tuple.__new__(SweepRow, (value, posterior, outcome))
    if previous is None:
        raise EmptyGridError("sweep grid is empty")


def sweep(scenario: Scenario, parameter: str, grid: Iterable[RateLike],
          threshold: RateLike = PREPONDERANCE) -> SweepTable:
    """All rows of `sweep_rows` as one table, for the library API."""
    threshold = Probability(threshold)
    # Through a list: a tuple grown from the generator left exact-batch's peak RSS about 1 MB higher.
    return SweepTable(parameter, threshold, tuple(list(sweep_rows(scenario, parameter, grid, threshold))))


def grid_points(start: Fraction, stop: Fraction, steps: int) -> Iterator[Fraction]:
    """`steps` (1 to MAX_STEPS) exact rationals from start to stop inclusive, made as they are read.

    A step count out of range, or two or more steps with stop not above
    start, raises ValueError at the call, before any point is made.
    """
    _check_count("steps", steps, MAX_STEPS)
    start, stop = Fraction(start), Fraction(stop)
    if steps > 1 and not start < stop:
        raise ValueError("sweep grid values must be strictly increasing")
    # Point k is (p·s·(K - k) + r·q·k) / (q·s·K) for start p/q, stop r/s and K = steps - 1 intervals.
    (p, q), (r, s), intervals = start.as_integer_ratio(), stop.as_integer_ratio(), max(steps - 1, 1)
    first, rise, denominator = p * s * intervals, r * q - p * s, q * s * intervals
    return (Fraction(first + k * rise, denominator) for k in range(steps))


def evenly_spaced_grid(start: Fraction, stop: Fraction, steps: int) -> list:
    """`grid_points` as a list."""
    return list(grid_points(start, stop, steps))


def write_sweep_rows(parameter: str, rows: Iterable[SweepRow], stream) -> None:
    """CSV with header param,value,posterior,verdict, one line per row as it arrives.

    Values are written losslessly (format_exact) so re-parsing a row and
    recomputing the posterior reproduces the printed figure exactly; the
    posterior is written as format_sig writes it. Both are written from the
    rows' Fraction slots. No cell needs quoting: `parameter` must be a rate
    name (ValueError before any write).
    """
    _slot(parameter)
    stream.write("param,value,posterior,verdict\n")
    stream.writelines(
        f"{parameter},{_exact_text(value._numerator, value._denominator)},degenerate,none\n" if posterior is None
        else f"{parameter},{_exact_text(value._numerator, value._denominator)},"
        f"{_sig_text(posterior._numerator, posterior._denominator)},{outcome._value_}\n"
        for value, posterior, outcome in rows
    )


def write_sweep_csv(table: SweepTable, stream) -> None:
    """`write_sweep_rows` for a whole table."""
    write_sweep_rows(table.swept_parameter, table.rows, stream)
