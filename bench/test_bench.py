"""Tests of the benchmark's own reference code.

    python3 -m pytest bench/test_bench.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

TREE_TEXT = """\
                                  100
                  +-----------------+-----------------+
                 40                                  60
        runs on Main Street              not (runs on Main Street)
         +--------+--------+                 +--------+--------+
        32                8                 6                 54
       hits        quiet hypothesis    false alarms    quiet complement
"""


def test_splitmix64_matches_the_published_first_output_for_seed_zero():
    assert checks.splitmix64(0, 0) == 0xE220A8397B1DCDAF


def test_exact_posterior_by_cross_multiplication():
    assert checks.exact_posterior(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10)) == Fraction(16, 19)
    assert checks.exact_posterior(Fraction(1, 3), Fraction(0), Fraction(0)) is None


def test_tree_text_counts_and_conservation():
    counts = checks.parse_tree_text(TREE_TEXT)
    assert counts == (100, 40, 60, 32, 8, 6, 54)
    joints = checks.leaf_joints(Fraction(2, 5), Fraction(4, 5), Fraction(1, 10))
    assert checks.check_tree(counts, 100, joints, exact=False) == []
    assert checks.check_tree((100, 40, 60, 31, 9, 6, 54), 100, joints, exact=False)


def test_sweep_csv_check_catches_a_wrong_verdict_and_a_missing_degenerate_row():
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    posteriors = checks.expected_sweep(Fraction(1, 2), Fraction(1, 2), Fraction(0), "base_rate", grid)
    good = "param,value,posterior,verdict\nbase_rate,0,degenerate,none\nbase_rate,0.5,1,for-moving-party\nbase_rate,1,1,for-moving-party\n"
    assert checks.check_sweep_csv(good, "base_rate", grid, posteriors, Fraction(1, 2)) == []
    wrong = good.replace("0.5,1,for-moving-party", "0.5,1,for-defendant")
    assert checks.check_sweep_csv(wrong, "base_rate", grid, posteriors, Fraction(1, 2))
    missing = good.replace("0,degenerate,none", "0,0,for-defendant")
    assert checks.check_sweep_csv(missing, "base_rate", grid, posteriors, Fraction(1, 2))


def test_svg_check_rejects_broken_xml():
    assert checks.check_svg(b'<svg xmlns="http://www.w3.org/2000/svg"></svg>') == []
    assert checks.check_svg(b"<svg><rect></svg>")


def test_inputs_depend_only_on_the_seed():
    assert inputs.exact_cases(3, 20) == inputs.exact_cases(3, 20)
    assert inputs.exact_cases(3, 20) != inputs.exact_cases(4, 20)
    assert inputs.oracle_cases(3) == inputs.oracle_cases(3)


def test_cli_mix_has_the_stated_exit_code_shares():
    requests, files = inputs.cli_requests(1)
    codes = [request.expect for request in requests]
    assert (codes.count(0), codes.count(2), codes.count(3)) == (34, 4, 2)
    assert {request.kind for request in requests if request.expect == 0} == set(inputs.VALID_KINDS)
    assert any(arg == "--scenario" for request in requests for arg in request.argv)
    assert files


def test_oracle_cases_include_non_binary_rates_and_rare_evidence():
    cases = {case.ident: case for case in inputs.oracle_cases(1)}
    assert len(cases) == 12
    base, hit, alarm = cases["rare"].rates
    assert base * hit + (1 - base) * alarm < Fraction(1, 100)
    assert any(r.denominator % 2 and r.denominator % 5 for r in cases["thirds"].rates)
