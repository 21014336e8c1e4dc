"""Acceptance gate: one test per shipped criterion.

Run `pytest -s tests/test_acceptance.py` to see one `[criterion N] ...:
PASS/FAIL` line per criterion, each with the figures it was judged on.
The two timed suites budget < 30 s (properties) and < 60 s (oracles).
"""

import contextlib
import io
import math
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from proofcalc import (
    SWEEPABLE_PARAMETERS,
    DegenerateEvidence,
    MissingKeyError,
    Outcome,
    RangeError,
    Scenario,
    ScenarioDocument,
    build_tree,
    compute_posterior,
    decide,
    enumerate_posterior,
    monte_carlo_posterior,
    parse_scenario,
    posterior_from_tree,
    render_proportion_bars_svg,
    render_tree_svg,
    render_tree_text,
    serialize_scenario,
)
from proofcalc.cli import main

from cases import BARS_SCENARIO, CASES, display_matches
from conftest import check_golden

SAMPLES = 1_000_000
SEEDS = range(100)


@contextlib.contextmanager
def criterion(number: int, title: str):
    detail = {}
    try:
        yield detail
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    note = f"  ({detail['note']})" if "note" in detail else ""
    print(f"[criterion {number}] {title}: PASS{note}")


def run_cli(*argv):
    stdout = io.StringIO()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def bottom_split_fraction(svg: bytes) -> float:
    widths = {}
    for node in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect"):
        if node.get("id") in ("bottom-hit", "bottom-false-alarm"):
            widths[node.get("id")] = float(node.get("width"))
    return widths["bottom-hit"] / (widths["bottom-hit"] + widths["bottom-false-alarm"])


def test_criterion_1_seven_posteriors_exact_and_rounded():
    with criterion(1, "the seven standard posteriors, exact and rounded") as detail:
        start = time.monotonic()
        truncated = []
        for case in CASES:
            posterior = compute_posterior(case.scenario).posterior
            assert posterior == case.posterior, case.label
            # The quoted decimals are mostly rounded, but 64/66 = 0.9697 is
            # displayed as 0.96 — a truncation, 0.0097 from the exact value,
            # so a flat 0.005 band cannot hold there.  Accept the band where
            # it does hold and an exact digit-for-digit truncation otherwise,
            # and report which fixtures needed the truncation reading.
            assert display_matches(posterior, case.decimal), case.label
            if abs(float(posterior) - case.decimal) > 0.005:
                truncated.append(f"{case.label} shows {case.decimal} for {float(posterior):.4f}")
        note = "7 exact fractions; displayed decimals reproduced"
        if truncated:
            note += f" (truncated, not rounded: {'; '.join(truncated)})"
        detail["note"] = f"{note}; {time.monotonic() - start:.3f}s"


def test_criterion_2_trees_at_population_100():
    with criterion(2, "frequency trees at population 100") as detail:
        for case in CASES:
            tree = build_tree(case.scenario, population=100)
            assert tree.counts_exact, case.label
            assert tree.leaves == case.leaves, case.label
            assert posterior_from_tree(tree) == compute_posterior(case.scenario).posterior, case.label
        detail["note"] = "7 trees exact, shortcut equals formula"


def test_criterion_3_preponderance_verdicts():
    with criterion(3, "verdicts at the 0.5 threshold") as detail:
        outcomes = [decide(compute_posterior(case.scenario)).outcome for case in CASES]
        assert outcomes == [case.outcome for case in CASES]
        assert outcomes == [
            Outcome.FOR_MOVING_PARTY,
            Outcome.FOR_DEFENDANT,
            Outcome.FOR_MOVING_PARTY,
            Outcome.FOR_MOVING_PARTY,
            Outcome.FOR_DEFENDANT,
            Outcome.FOR_DEFENDANT,
            Outcome.FOR_DEFENDANT,
        ]
        detail["note"] = "for-moving-party x3, for-defendant x4, in order"


def test_criterion_4_bar_diagram_split_position():
    with criterion(4, "bar diagram splits the bottom bar at 0.5964") as detail:
        split = bottom_split_fraction(render_proportion_bars_svg(BARS_SCENARIO))
        assert abs(split - 0.5964) <= 0.002
        detail["note"] = f"measured {split:.4f}"


def test_criterion_5_property_suites():
    with criterion(5, "property suites over random scenarios") as detail:
        start = time.monotonic()
        rng = random.Random(8123)

        # exact-count scenarios: tree-formula equivalence and swap symmetry
        exact_checked = 0
        while exact_checked < 1000:
            population = rng.randint(2, 400)
            hypothesis = rng.randint(1, population - 1)
            complement = population - hypothesis
            hits = rng.randint(0, hypothesis)
            alarms = rng.randint(0, complement)
            scenario = Scenario(
                Fraction(hypothesis, population),
                Fraction(hits, hypothesis),
                Fraction(alarms, complement),
            )
            tree = build_tree(scenario, population)
            assert tree.counts_exact
            assert tree.leaves == (hits, hypothesis - hits, alarms, complement - alarms)
            if hits + alarms:
                posterior = compute_posterior(scenario).posterior
                assert posterior_from_tree(tree) == posterior
                swapped = Scenario(
                    1 - scenario.base_rate, scenario.false_alarm_rate, scenario.hit_rate
                )
                assert compute_posterior(swapped).posterior == 1 - posterior
            exact_checked += 1

        # no-information fixed point
        for _ in range(400):
            base = Fraction(rng.randint(0, 100), 100)
            rate = Fraction(rng.randint(1, 64), 64)
            assert compute_posterior(Scenario(base, rate, rate)).posterior == base

        # monotonicity in every parameter over random grids
        for _ in range(400):
            scenario = Scenario(
                Fraction(rng.randint(1, 19), 20),
                Fraction(rng.randint(0, 16), 16),
                Fraction(rng.randint(0, 16), 16),
            )
            parameter = rng.choice(SWEEPABLE_PARAMETERS)
            values = sorted(Fraction(rng.randint(0, 48), 48) for _ in range(3))
            posteriors = []
            for value in values:
                try:
                    posteriors.append(
                        compute_posterior(scenario._replace(**{parameter: value})).posterior
                    )
                except DegenerateEvidence:
                    pass
            if parameter == "false_alarm_rate":
                assert all(a >= b for a, b in zip(posteriors, posteriors[1:]))
            else:
                assert all(a <= b for a, b in zip(posteriors, posteriors[1:]))

        # non-exact scenarios: rounding never breaks conservation. The draws are capped, so that a fault
        # that marks every tree exact fails the count below instead of looping for ever.
        non_exact_checked = draws = 0
        while non_exact_checked < 1000 and draws < 100_000:
            draws += 1
            scenario = Scenario(
                Fraction(rng.randint(0, 1000), 1000),
                Fraction(rng.randint(0, 1000), 1000),
                Fraction(rng.randint(0, 1000), 1000),
            )
            population = rng.randint(1, 500)
            tree = build_tree(scenario, population)
            if tree.counts_exact:
                continue
            assert tree.hypothesis_count + tree.complement_count == population
            assert tree.hits + tree.quiet_hypothesis == tree.hypothesis_count
            assert tree.false_alarms + tree.quiet_complement == tree.complement_count
            assert all(count >= 0 for count in tree.leaves)
            assert all(abs(residual) < 2 for residual in tree.rounding_residuals)
            non_exact_checked += 1
        assert non_exact_checked == 1000

        elapsed = time.monotonic() - start
        assert elapsed < 30
        detail["note"] = (
            f"{exact_checked} exact + {non_exact_checked} rounded scenarios, "
            f"800 spot properties; {elapsed:.1f}s"
        )


def test_criterion_6_oracle_agreement():
    # Without NumPy, its 7 x 10^8 draws, at 125-140 ns each in Python, take 90-100 s, past the 60 s budget below.
    pytest.importorskip("numpy")
    with criterion(6, "enumeration and seeded simulation oracles") as detail:
        start = time.monotonic()
        for case in CASES:
            assert enumerate_posterior(case.scenario, 100) == compute_posterior(case.scenario).posterior

        # Each simulation run is a binomial draw: about 0.27% of runs land
        # outside 3 standard errors even when everything is correct, so the
        # 99% floor is enforced per run and per fixture; the per-seed tally
        # is reported alongside.
        violations = []
        clean_seeds = 0
        per_fixture = {case.label: 0 for case in CASES}
        for seed in SEEDS:
            seed_clean = True
            for case in CASES:
                exact = float(compute_posterior(case.scenario).posterior)
                result = monte_carlo_posterior(case.scenario, SAMPLES, seed=seed)
                if abs(float(result.estimate) - exact) > 3 * result.standard_error:
                    violations.append((seed, case.label))
                    per_fixture[case.label] += 1
                    seed_clean = False
            clean_seeds += seed_clean

        total_runs = len(SEEDS) * len(CASES)
        within = total_runs - len(violations)
        assert within >= math.ceil(0.99 * total_runs)
        assert all(bad <= len(SEEDS) // 100 for bad in per_fixture.values())
        elapsed = time.monotonic() - start
        assert elapsed < 60
        detail["note"] = (
            f"{within}/{total_runs} runs within 3 SE; "
            f"{clean_seeds}/{len(SEEDS)} seeds clean on all fixtures; {elapsed:.1f}s"
        )


def test_criterion_7_byte_determinism():
    with criterion(7, "golden-file byte equality across consecutive runs") as detail:
        artifacts = 0
        for case in CASES:
            text = render_tree_text(build_tree(case.scenario, 100)).encode("utf-8")
            assert text == render_tree_text(build_tree(case.scenario, 100)).encode("utf-8")
            check_golden(f"tree_{case.label}.txt", text)

            svg = render_tree_svg(build_tree(case.scenario, 100))
            assert svg == render_tree_svg(build_tree(case.scenario, 100))
            check_golden(f"tree_{case.label}.svg", svg)
            artifacts += 2

        bars = render_proportion_bars_svg(BARS_SCENARIO)
        assert bars == render_proportion_bars_svg(BARS_SCENARIO)
        check_golden("bars_b33-h60-f20.svg", bars)
        artifacts += 1

        rates = ["--base-rate", "0.4", "--hit-rate", "0.8", "--false-alarm-rate", "0.1"]
        for name, argv in (
            ("cli_posterior.txt", ["posterior", *rates]),
            ("cli_verdict.txt", ["verdict", *rates]),
            ("cli_tree.txt", ["tree", *rates]),
            ("cli_simulate.txt", ["simulate", *rates, "--samples", "2000", "--seed", "0"]),
        ):
            code, first, _ = run_cli(*argv)
            assert code == 0
            code, second, _ = run_cli(*argv)
            assert code == 0 and first == second
            check_golden(name, first.encode("utf-8"))
            artifacts += 1

        detail["note"] = f"{artifacts} artifacts byte-stable against checked-in goldens"


def test_criterion_8_parser_contract_and_exit_codes():
    with criterion(8, "parser round trip, parse errors, exit codes") as detail:
        document = parse_scenario(
            "base_rate = 0.4\nhit_rate = 80%\nfalse_alarm_rate = 1/10\n"
        )
        assert document.scenario == Scenario("0.4", "0.8", "0.1")

        try:
            parse_scenario("base_rate = 0.4\nfalse_alarm_rate = 0.1\n")
            raise AssertionError("missing rate accepted")
        except MissingKeyError as exc:
            assert exc.key == "hit_rate"

        try:
            parse_scenario("base_rate = 1.5\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n")
            raise AssertionError("out-of-range rate accepted")
        except RangeError as exc:
            assert exc.line_number == 1

        full = ScenarioDocument(
            scenario=Scenario("0.33", "0.6", "0.2", hypothesis_label="runs at night"),
            population=500,
            threshold=Fraction(3, 4),
        )
        assert parse_scenario(serialize_scenario(full)) == full

        rates = ["--base-rate", "0.4", "--hit-rate", "0.8", "--false-alarm-rate", "0.1"]
        code, out, _ = run_cli("posterior", *rates)
        assert code == 0 and "16/19" in out
        code, _, err = run_cli("posterior", "--base-rate", "0.4")
        assert code == 2 and err
        code, _, err = run_cli(
            "posterior", "--base-rate", "0.4", "--hit-rate", "0", "--false-alarm-rate", "0"
        )
        assert code == 3 and err
        detail["note"] = "round trip intact; exit codes 0/2/3 observed"
