"""Sensitivity sweeps and their CSV form."""

import csv
import io
from dataclasses import replace
from fractions import Fraction

import pytest

from proofcalc import (
    EmptyGridError,
    Outcome,
    Scenario,
    compute_posterior,
    evenly_spaced_grid,
    format_sig,
    parse_rate,
    sweep,
    write_sweep_csv,
)
from proofcalc.sweep import MAX_STEPS

from cases import CASES

STANDARD = CASES[0].scenario  # (0.4, 0.8, 0.1)


def test_base_rate_sweep_recovers_the_low_mid_high_posteriors():
    table = sweep(STANDARD, "base_rate", ["0.1", "0.4", "0.8"])
    assert [row.posterior for row in table.rows] == [
        Fraction(8, 17),
        Fraction(32, 38),
        Fraction(64, 66),
    ]
    assert [row.verdict.outcome for row in table.rows] == [
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
    assert row.verdict.outcome is Outcome.FOR_MOVING_PARTY


def test_every_row_reproduces_compute_posterior():
    grid = [Fraction(i, 20) for i in range(21)]
    table = sweep(STANDARD, "false_alarm_rate", grid)
    for row in table.rows:
        variant = replace(STANDARD, false_alarm_rate=row.value)
        assert row.posterior == compute_posterior(variant).posterior


def test_degenerate_grid_points_are_marked_not_fatal():
    table = sweep(Scenario(0, 0.3, 0.1), "false_alarm_rate", [Fraction(0), Fraction(1, 2)])
    first, second = table.rows
    assert first.posterior is None and first.verdict is None
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


def test_grid_size_cap():
    grid = evenly_spaced_grid(Fraction(0), Fraction(1), MAX_STEPS)
    assert MAX_STEPS == 10**5
    assert len(grid) == MAX_STEPS and grid[-1] == 1
    with pytest.raises(ValueError, match="at most 100000"):
        evenly_spaced_grid(Fraction(0), Fraction(1), MAX_STEPS + 1)


def test_threshold_changes_the_verdict_column():
    strict = sweep(STANDARD, "base_rate", ["0.1", "0.4", "0.8"], threshold="0.97")
    assert all(row.verdict.outcome is Outcome.FOR_DEFENDANT for row in strict.rows)
    assert strict.threshold == Fraction(97, 100)


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
        variant = replace(STANDARD, base_rate=parse_rate(record["value"]))
        recomputed = compute_posterior(variant).posterior
        assert format_sig(recomputed) == record["posterior"]
        expected = "for-moving-party" if recomputed > Fraction(1, 2) else "for-defendant"
        assert record["verdict"] == expected
