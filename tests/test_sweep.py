"""Sensitivity sweeps and their CSV form."""

import csv
import io
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofcalc import (
    DegenerateEvidence,
    EmptyGridError,
    Outcome,
    Probability,
    Scenario,
    compute_posterior,
    decide,
    evenly_spaced_grid,
    format_sig,
    grid_points,
    parse_rate,
    sweep_rows,
    write_sweep_csv,
    write_sweep_rows,
)
from proofcalc.sweep import MAX_STEPS, SWEEPABLE_PARAMETERS, sweep

from cases import CASES, LONG

STANDARD = CASES[0].scenario  # (0.4, 0.8, 0.1)


def test_base_rate_sweep_recovers_the_low_mid_high_posteriors():
    table = sweep(STANDARD, "base_rate", ["0.1", "0.4", "0.8"])
    assert [row.posterior for row in table.rows] == [
        Fraction(8, 17),
        Fraction(32, 38),
        Fraction(64, 66),
    ]
    assert [row.outcome for row in table.rows] == [
        Outcome.FOR_DEFENDANT,
        Outcome.FOR_MOVING_PARTY,
        Outcome.FOR_MOVING_PARTY,
    ]


def test_hit_rate_sweep():
    table = sweep(STANDARD, "hit_rate", [Fraction(4, 5), Fraction(19, 20)])
    assert [row.posterior for row in table.rows] == [Fraction(32, 38), Fraction(38, 44)]


def test_single_point_sweep_is_a_no_op():
    table = sweep(STANDARD, "false_alarm_rate", [STANDARD.false_alarm_rate])
    (row,) = table.rows
    assert row.value == STANDARD.false_alarm_rate
    assert row.posterior == compute_posterior(STANDARD).posterior
    assert row.outcome is Outcome.FOR_MOVING_PARTY


def test_every_row_reproduces_compute_posterior():
    grid = [Fraction(i, 20) for i in range(21)]
    table = sweep(STANDARD, "false_alarm_rate", grid)
    for row in table.rows:
        variant = STANDARD._replace(false_alarm_rate=row.value)
        assert row.posterior == compute_posterior(variant).posterior


def test_degenerate_grid_points_are_marked_not_fatal():
    table = sweep(Scenario(0, 0.3, 0.1), "false_alarm_rate", [Fraction(0), Fraction(1, 2)])
    first, second = table.rows
    assert first.posterior is None and first.outcome is None
    assert second.posterior == 0


def test_grid_validation():
    with pytest.raises(EmptyGridError):
        sweep(STANDARD, "base_rate", [])
    with pytest.raises(ValueError):
        sweep(STANDARD, "base_rate", [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        sweep(STANDARD, "base_rate", [Fraction(3, 4), Fraction(1, 4)])
    with pytest.raises(ValueError):
        sweep(STANDARD, "threshold", [Fraction(1, 2)])
    with pytest.raises(ValueError):
        sweep(STANDARD, "base_rate", [Fraction(-1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError) as refused:
        Probability(Fraction(3, 2))
    with pytest.raises(ValueError) as swept:
        sweep(STANDARD, "base_rate", [Fraction(1, 2), Fraction(3, 2)])
    assert str(swept.value) == str(refused.value) == "probability must be in [0, 1], got 3/2"


@pytest.mark.parametrize("grid", [
    [Fraction(0), Fraction(1, 3), Fraction(1)],
    [Probability(0), Probability(1, 3), Probability(1)],
    [0, 1],
    ["0", "1/3", "0.5", "1"],
    [0.0, 0.25, 1.0],
], ids=lambda grid: type(grid[0]).__name__)
def test_each_row_value_is_a_probability_equal_to_its_grid_value(grid):
    rows = list(sweep_rows(STANDARD, "base_rate", grid))
    assert [row.value for row in rows] == [Probability(value) for value in grid]
    assert all(type(row.value) is Probability for row in rows)


def test_grid_size_cap():
    grid = evenly_spaced_grid(Fraction(0), Fraction(1), MAX_STEPS)
    assert MAX_STEPS == 10**5
    assert len(grid) == MAX_STEPS and grid[-1] == 1
    with pytest.raises(ValueError, match="at most 100000"):
        evenly_spaced_grid(Fraction(0), Fraction(1), MAX_STEPS + 1)


def test_threshold_changes_the_verdict_column():
    strict = sweep(STANDARD, "base_rate", ["0.1", "0.4", "0.8"], threshold="0.97")
    assert all(row.outcome is Outcome.FOR_DEFENDANT for row in strict.rows)
    assert strict.threshold == Fraction(97, 100)


def test_a_posterior_on_the_threshold_rules_for_the_defendant():
    threshold = Fraction(16, 19)
    rows = list(sweep_rows(STANDARD, "base_rate", ["0.4"], threshold))
    (row,) = rows
    assert row.posterior == threshold
    assert row.outcome is Outcome.FOR_DEFENDANT is decide(compute_posterior(STANDARD), threshold).outcome
    buffer = io.StringIO()
    write_sweep_rows("base_rate", rows, buffer)
    assert buffer.getvalue().splitlines()[1] == "base_rate,0.4,0.842105,for-defendant"


def test_the_writer_refuses_a_parameter_that_is_not_a_rate_before_writing():
    rows = sweep_rows(STANDARD, "base_rate", ["0.4"])
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="cannot sweep 'a,b'; expected one of"):
        write_sweep_rows("a,b", rows, buffer)
    assert buffer.getvalue() == ""


def test_evenly_spaced_grid_is_exact():
    assert evenly_spaced_grid(Fraction(0), Fraction(1), 5) == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
    ]
    assert evenly_spaced_grid(Fraction(1, 10), Fraction(4, 5), 3) == [
        Fraction(1, 10),
        Fraction(9, 20),
        Fraction(4, 5),
    ]
    assert evenly_spaced_grid(Fraction(1, 3), Fraction(1, 3), 1) == [Fraction(1, 3)]
    with pytest.raises(ValueError):
        evenly_spaced_grid(Fraction(0), Fraction(1), 0)


def test_csv_layout_and_markers():
    table = sweep(Scenario(0, 0.3, 0.1), "false_alarm_rate", [Fraction(0), Fraction(1, 2)])
    buffer = io.StringIO()
    write_sweep_csv(table, buffer)
    assert buffer.getvalue() == (
        "param,value,posterior,verdict\n"
        "false_alarm_rate,0,degenerate,none\n"
        "false_alarm_rate,0.5,0,for-defendant\n"
    )


def test_csv_rows_reparse_to_the_printed_posterior():
    grid = evenly_spaced_grid(Fraction(1, 100), Fraction(99, 100), 25)
    table = sweep(STANDARD, "base_rate", grid)
    buffer = io.StringIO()
    write_sweep_csv(table, buffer)
    buffer.seek(0)
    reader = csv.DictReader(buffer)
    rows = list(reader)
    assert len(rows) == 25
    for record in rows:
        assert record["param"] == "base_rate"
        variant = STANDARD._replace(base_rate=parse_rate(record["value"]))
        recomputed = compute_posterior(variant).posterior
        assert format_sig(recomputed) == record["posterior"]
        expected = "for-moving-party" if recomputed > Fraction(1, 2) else "for-defendant"
        assert record["verdict"] == expected


# Rates with denominators up to 10^12, and the endpoints 0 and 1.
RATES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(1, 10**12).flatmap(lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))),
)


@settings(deadline=None)
@given(
    st.tuples(RATES, RATES, RATES),
    st.sampled_from(SWEEPABLE_PARAMETERS),
    st.sets(RATES, min_size=1, max_size=8).map(sorted),
    RATES,
)
@example((Fraction(2, 5), Fraction(0), Fraction(0)), "base_rate", [Fraction(0), Fraction(1)], Fraction(1, 2))
@example((Fraction(2, 5), Fraction(4, 5), Fraction(0)), "hit_rate", [Fraction(0), Fraction(1)], Fraction(1))
# The swept rate's two ends, where the joints are the kernel's J(0) and J(1) themselves, among 1,000-digit rates.
@example(LONG, "base_rate", [Fraction(0), Fraction(1)], LONG[0])
@example(LONG, "hit_rate", [Fraction(0), Fraction(1)], LONG[1])
@example(LONG, "false_alarm_rate", [Fraction(0), Fraction(1)], LONG[2])
@example(LONG, "base_rate", [Fraction(0), LONG[2], Fraction(1)], Fraction(1, 2))
def test_every_row_is_compute_posterior_and_decide_at_its_point(rates, parameter, grid, threshold):
    scenario = Scenario(*rates)
    table = sweep(scenario, parameter, grid, threshold)
    assert table.threshold == threshold and len(table.rows) == len(grid)
    for value, row in zip(grid, table.rows):
        assert row.value == value and type(row.value) is Probability
        variant = scenario._replace(**{parameter: value})
        try:
            breakdown = compute_posterior(variant)
        except DegenerateEvidence:
            assert row.posterior is None and row.outcome is None
            continue
        assert row.posterior == breakdown.posterior and type(row.posterior) is Probability
        assert row.outcome is decide(breakdown, threshold).outcome


def test_rows_stream_from_an_unending_grid():
    grid = (Fraction(k, 10**6) for k in itertools.count())
    first, second = itertools.islice(sweep_rows(STANDARD, "base_rate", grid), 2)
    assert (first.value, first.posterior, second.value) == (0, 0, Fraction(1, 10**6))
    buffer = io.StringIO()
    write_sweep_rows("base_rate", iter([first, second]), buffer)
    table = sweep(STANDARD, "base_rate", [first.value, second.value])
    reference = io.StringIO()
    write_sweep_csv(table, reference)
    assert buffer.getvalue() == reference.getvalue()


def test_a_grid_fault_is_raised_where_the_grid_has_it():
    rows = sweep_rows(STANDARD, "base_rate", [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)])
    assert next(rows).value == Fraction(1, 4)
    assert next(rows).value == Fraction(1, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        next(rows)
    # Cross-multiplied, a huge denominator does not hide an equal neighbour.
    big = Fraction(10**40 + 1, 10**41)
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(STANDARD, "base_rate", [big, Fraction(big.numerator * 3, big.denominator * 3)])


def test_grid_points_are_made_lazily_and_checked_at_the_call():
    points = grid_points(Fraction(0), Fraction(1), MAX_STEPS)
    assert iter(points) is points
    assert list(itertools.islice(points, 3)) == [0, Fraction(1, MAX_STEPS - 1), Fraction(2, MAX_STEPS - 1)]
    for start, stop in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 3))):
        with pytest.raises(ValueError, match="strictly increasing"):
            grid_points(start, stop, 2)
        assert list(grid_points(start, stop, 1)) == [start]
    with pytest.raises(ValueError, match="^steps must be at most 100000$"):
        grid_points(Fraction(0), Fraction(1), MAX_STEPS + 1)
    for steps in (0, -5):
        with pytest.raises(ValueError, match=f"^steps must be >= 1, got {steps}$"):
            grid_points(Fraction(0), Fraction(1), steps)
    assert list(grid_points(Fraction(1, 3), Fraction(1, 2), 3)) == [Fraction(1, 3), Fraction(5, 12), Fraction(1, 2)]


def test_a_sweep_at_the_caps_stays_within_its_time_a_point():
    """A 500-point base_rate sweep with CSV between 1,000-digit ends, over LONG's other two rates.

    The best of three runs took 0.37-0.39 ms a point, and up to 0.58 ms on a busy machine (2-core Xeon VM,
    Python 3.11.7), against 0.86-0.91 ms when format_sig divided in Decimal. The bound, 3 ms a point, is over
    5x the slowest of these.
    """
    scenario = Scenario(*LONG)

    def timed():
        stream = io.StringIO()
        start = time.perf_counter()
        write_sweep_rows("base_rate", sweep_rows(scenario, "base_rate", grid_points(LONG[0], LONG[1], 500)), stream)
        return time.perf_counter() - start, stream.getvalue()

    seconds, text = min(timed() for _ in range(3))
    assert text.count("\n") == 501 and len(text) == 2_016_593
    assert seconds / 500 < 3e-3


def test_a_float_endpoint_is_read_through_its_shortest_decimal():
    assert list(grid_points(0.1, 0.5, 3)) == [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)]
    assert list(grid_points(0.1, 0.5, 3)) == list(grid_points(Probability(0.1), Probability(0.5), 3))
    scenario = Scenario("0.4", "0.8", "0.1")
    swept = [row.value for row in sweep_rows(scenario, "base_rate", grid_points(0.1, 0.3, 3))]
    assert swept == [row.value for row in sweep_rows(scenario, "base_rate", [0.1, 0.2, 0.3])]
    # No range check here: sweep_rows refuses what lies outside [0, 1].
    assert list(grid_points(-0.5, 1.5, 2)) == [Fraction(-1, 2), Fraction(3, 2)]
