"""Sensitivity sweeps: vary one rate over a grid and tabulate the outcome."""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .core import (
    PREPONDERANCE,
    DegenerateEvidence,
    Probability,
    RateLike,
    Scenario,
    Verdict,
    compute_posterior,
    decide,
)
from .scenario_io import format_exact, format_sig

SWEEPABLE_PARAMETERS = ("base_rate", "hit_rate", "false_alarm_rate")
MAX_STEPS = 10**5

#: CSV cell markers for grid points where the evidence has zero mass.
DEGENERATE_MARKER = "degenerate"
NO_VERDICT_MARKER = "none"


class EmptyGridError(ValueError):
    pass


@dataclass(frozen=True)
class SweepRow:
    """One grid point; posterior/verdict are None where evidence is degenerate."""

    value: Probability
    posterior: Optional[Probability]
    verdict: Optional[Verdict]


@dataclass(frozen=True)
class SweepTable:
    swept_parameter: str
    threshold: Probability
    rows: Tuple[SweepRow, ...]


def sweep(
    scenario: Scenario,
    parameter: str,
    grid: Iterable[RateLike],
    threshold: RateLike = PREPONDERANCE,
) -> SweepTable:
    """Recompute the posterior and verdict at each grid value of `parameter`.

    The grid must be nonempty and strictly increasing. Grid points with
    zero evidence mass are marked, not fatal.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"cannot sweep {parameter!r}; expected one of {SWEEPABLE_PARAMETERS}")
    values = [Probability(v) for v in grid]
    if not values:
        raise EmptyGridError("sweep grid is empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid values must be strictly increasing")
    threshold = Probability(threshold)

    rows = []
    for value in values:
        variant = dataclasses.replace(scenario, **{parameter: value})
        try:
            breakdown = compute_posterior(variant)
        except DegenerateEvidence:
            rows.append(SweepRow(value=value, posterior=None, verdict=None))
            continue
        rows.append(
            SweepRow(
                value=value,
                posterior=breakdown.posterior,
                verdict=decide(breakdown, threshold),
            )
        )
    return SweepTable(swept_parameter=parameter, threshold=threshold, rows=tuple(rows))


def evenly_spaced_grid(start: Fraction, stop: Fraction, steps: int) -> list:
    """`steps` (1 to MAX_STEPS) exact rationals from start to stop inclusive."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}")
    if steps == 1:
        return [Fraction(start)]
    step = (Fraction(stop) - Fraction(start)) / (steps - 1)
    return [Fraction(start) + i * step for i in range(steps)]


def write_sweep_csv(table: SweepTable, stream) -> None:
    """CSV with header param,value,posterior,verdict.

    Values are written losslessly (format_exact) so re-parsing a row and
    recomputing the posterior reproduces the printed figure exactly.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["param", "value", "posterior", "verdict"])
    for row in table.rows:
        if row.posterior is None:
            writer.writerow([table.swept_parameter, format_exact(row.value), DEGENERATE_MARKER, NO_VERDICT_MARKER])
        else:
            writer.writerow(
                [
                    table.swept_parameter,
                    format_exact(row.value),
                    format_sig(row.posterior),
                    row.verdict.outcome.value,
                ]
            )
