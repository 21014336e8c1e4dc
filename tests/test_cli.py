"""End-to-end command-line behavior: output shapes, written files, exit codes."""

import errno
import os
import re
import subprocess
import sys
import xml.dom.minidom

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proofcalc import (
    ROUNDING_POLICIES, build_tree, compute_posterior, parse_scenario, render_proportion_bars_svg, render_tree_svg,
    render_tree_text,
)
from proofcalc.cli import SVG_BARS, SVG_TREE, main
from proofcalc.sweep import SWEEPABLE_PARAMETERS

from cases import CASES
from conftest import check_golden, run_strict

RATES = ["--base-rate", "0.4", "--hit-rate", "0.8", "--false-alarm-rate", "0.1"]
LOW_PRIOR = ["--base-rate", "0.1", "--hit-rate", "0.8", "--false-alarm-rate", "0.1"]
DEGENERATE = ["--base-rate", "0.4", "--hit-rate", "0", "--false-alarm-rate", "0"]
# Every rate at the size cap: denominators of exactly 1000 digits, pairwise coprime.
D3, D7 = 3**2095, 7**1183
AT_CAP = ["--base-rate", "1e-999", "--hit-rate", f"{D3 - 1}/{D3}", "--false-alarm-rate", f"1/{D7}"]
TOO_LARGE = "a rate may have at most 1000 digits in numerator and denominator"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_posterior_prints_decimals_and_fractions(capsys):
    code, out, err = run(capsys, "posterior", *RATES)
    assert code == 0 and err == ""
    assert "16/19" in out and "0.842105" in out
    check_golden("cli_posterior.txt", out.encode("utf-8"))


def test_rate_spellings_are_interchangeable(capsys):
    _, reference, _ = run(capsys, "posterior", *RATES)
    _, spelled, _ = run(
        capsys, "posterior", "--base-rate", "40%", "--hit-rate", "4/5", "--false-alarm-rate", "10%"
    )
    assert spelled == reference


def test_verdict_reports_outcome_and_error_profile(capsys):
    code, out, _ = run(capsys, "verdict", *RATES)
    assert code == 0
    assert "for-moving-party" in out
    assert "0.157895" in out and "3/19" in out  # chance the verdict is wrong
    assert "false-alarm-verdict" in out
    check_golden("cli_verdict.txt", out.encode("utf-8"))

    code, out, _ = run(capsys, "verdict", *LOW_PRIOR)
    assert code == 0 and "for-defendant" in out and "miss-verdict" in out


def test_verdict_threshold_flag(capsys):
    code, out, err = run(capsys, "verdict", *RATES, "--threshold", "0.9")
    assert code == 0 and err == ""
    assert "for-defendant" in out and "miss-verdict" in out
    check_golden("cli_verdict_defendant.txt", out.encode("utf-8"))


def test_tree_matches_the_library_renderer(capsys):
    code, out, _ = run(capsys, "tree", *RATES)
    assert code == 0
    assert out == render_tree_text(build_tree(CASES[0].scenario, 100))
    check_golden("cli_tree.txt", out.encode("utf-8"))


def test_tree_population_and_labels(capsys):
    code, out, _ = run(capsys, "tree", *RATES, "--population", "50", "--hypothesis-label", "owns a dog")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["50"]
    assert lines[2].split() == ["20", "30"]
    assert "not (owns a dog)" in out


def test_tree_rounding_flag(capsys):
    argv = ["--base-rate", "0.4", "--hit-rate", "0.95", "--false-alarm-rate", "0.1", "--population", "10"]
    code, rounded, _ = run(capsys, "tree", *argv)
    assert code == 0 and "rounding residuals" in rounded
    code, exact, _ = run(capsys, "tree", *argv, "--rounding", "exact-rational")
    assert code == 0 and "19/5" in exact


def test_render_writes_the_svg_silently(capsys, tmp_path):
    target = tmp_path / "tree.svg"
    code, out, err = run(capsys, "render", *RATES, "--format", "svg-tree", "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert target.read_bytes() == render_tree_svg(build_tree(CASES[0].scenario, 100))

    target = tmp_path / "bars.svg"
    code, out, _ = run(capsys, "render", *RATES, "--format", "svg-bars", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == render_proportion_bars_svg(CASES[0].scenario)


def test_a_bad_population_is_refused_where_svg_bars_draws_no_tree(capsys, tmp_path):
    target = tmp_path / "bars.svg"
    code, out, err = run(capsys, "render", *RATES, "--format", "svg-bars", "--out", str(target), "--population", "0")
    assert code == 2 and out == ""
    assert err == "error: --population must be >= 1, got 0\n"
    assert not target.exists()


def test_sweep_writes_the_expected_csv(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "sweep", *RATES,
        "--param", "base_rate", "--from", "0.1", "--to", "0.8", "--steps", "3",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == (
        "param,value,posterior,verdict\n"
        "base_rate,0.1,0.470588,for-defendant\n"
        "base_rate,0.45,0.86747,for-moving-party\n"
        "base_rate,0.8,0.969697,for-moving-party\n"
    )


@pytest.mark.parametrize(
    "golden, scenario, sweep_flags",
    [
        # p(E) = 0 at a zero hit rate, and a posterior of 1 that does not beat a threshold of 1.
        ("cli_sweep.csv", "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0\nthreshold = 1\n",
         ["--param", "hit_rate", "--from", "0", "--to", "1", "--steps", "11"]),
        # Both verdicts, and grid values written as p/q.
        ("cli_sweep_verdicts.csv", "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nthreshold = 0.9\n",
         ["--param", "base_rate", "--from", "0", "--to", "1", "--steps", "8"]),
    ],
)
def test_sweep_csv_bytes(capsys, tmp_path, golden, scenario, sweep_flags):
    path = tmp_path / "case.scenario"
    path.write_text(scenario, encoding="utf-8")
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, "sweep", "--scenario", str(path), *sweep_flags, "--out", str(target))
    assert (code, out, err) == (0, "", "")
    check_golden(golden, target.read_bytes())


def test_a_decreasing_grid_exits_2_before_the_file_is_opened(capsys, tmp_path):
    target = tmp_path / "out.csv"
    for start, stop in (("0.8", "0.1"), ("0.5", "0.5")):
        code, out, err = run(capsys, "sweep", *RATES, "--param", "base_rate", "--from", start, "--to", stop,
                             "--steps", "3", "--out", str(target))
        assert (code, out, err) == (2, "", "error: sweep grid values must be strictly increasing\n")
        assert not target.exists()
    target.write_text("kept\n")
    assert run(capsys, "sweep", *RATES, "--param", "base_rate", "--from", "0.8", "--to", "0.1",
               "--steps", "2", "--out", str(target))[0] == 2
    assert target.read_text() == "kept\n"
    code, _, _ = run(capsys, "sweep", *RATES, "--param", "base_rate", "--from", "0.8", "--to", "0.1",
                     "--steps", "1", "--out", str(target))
    assert code == 0 and target.read_text() == "param,value,posterior,verdict\nbase_rate,0.8,0.969697,for-moving-party\n"


def test_sweep_memory_does_not_grow_with_the_step_count(tmp_path):
    # A child's ru_maxrss starts at its parent's peak (Linux keeps it across exec), and this test
    # process may be large: a small launcher starts each sweep and reads its peak as RUSAGE_CHILDREN.
    launcher = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'proofcalc', 'sweep', *sys.argv[1:]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"  # KiB on Linux
    )
    peaks = {}
    for steps in (10, 100_000):
        target = tmp_path / f"{steps}.csv"
        result = run_strict(
            "-c", launcher, *RATES, "--param", "hit_rate", "--from", "0", "--to", "1",
            "--steps", str(steps), "--out", str(target), capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, ""), result.stderr
        assert target.read_text().count("\n") == steps + 1
        peaks[steps] = int(result.stdout) / 1024
    assert peaks[100_000] - peaks[10] < 10, peaks


def test_simulate_is_deterministic_given_the_seed(capsys):
    code, first, _ = run(capsys, "simulate", *RATES, "--samples", "2000", "--seed", "0")
    assert code == 0
    assert "exact posterior" in first and "standard error" in first
    code, second, _ = run(capsys, "simulate", *RATES, "--samples", "2000", "--seed", "0")
    assert first == second
    check_golden("cli_simulate.txt", first.encode("utf-8"))
    _, other_seed, _ = run(capsys, "simulate", *RATES, "--samples", "2000", "--seed", "1")
    assert other_seed != first


def _readme_transcripts():
    """{subcommand: [(argv, the text README shows it print), ...]} for each ``` block that starts `$ proofcalc`."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as file:
        blocks = re.findall(r"^```\n(\$ proofcalc .*?)^```$", file.read(), re.MULTILINE | re.DOTALL)
    transcripts = {}
    for block in blocks:
        steps = []
        for line in block.replace("\\\n", " ").splitlines(keepends=True):
            if line.startswith("$ "):
                steps.append((line[2:].split(), []))
            else:
                steps[-1][1].append(line)
        transcripts[steps[0][0][1]] = [(argv, "".join(shown)) for argv, shown in steps]
    return transcripts


@pytest.mark.parametrize("subcommand", ["posterior", "verdict", "tree", "sweep", "simulate"])
def test_a_readme_transcript_prints_what_the_readme_shows(tmp_path, subcommand):
    # The sweep block writes sweep.csv in the working directory, then shows it with `cat`. simulate's
    # 100,000 samples are the whole Python budget in a fresh process; both kernels print the same bytes.
    for argv, shown in _readme_transcripts()[subcommand]:
        if argv[0] == "cat":
            assert (tmp_path / argv[1]).read_bytes() == shown.encode("utf-8")
            continue
        assert argv[0] == "proofcalc"
        result = run_strict("-m", *argv, cwd=tmp_path, capture_output=True)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == shown.encode("utf-8")


def test_simulate_rejects_more_than_a_billion_samples(capsys, monkeypatch):
    import proofcalc.oracle as oracle

    def never_simulate(*_):
        raise AssertionError("the sample cap let a simulation start")

    monkeypatch.setattr(oracle, "_counts_python", never_simulate)
    monkeypatch.setattr(oracle, "_counts_numpy", never_simulate)
    code, out, err = run(capsys, "simulate", *RATES, "--samples", "1000000001")
    assert code == 2 and out == ""
    assert err == "error: --samples must be at most 1000000000\n"


def test_simulate_prints_the_same_bytes_without_numpy(capsys, monkeypatch):
    import proofcalc.oracle as oracle

    def simulate(samples):
        code, out, err = run(capsys, "simulate", *RATES, "--samples", samples, "--seed", "0")
        assert code == 0 and err == ""
        return out

    monkeypatch.setattr(oracle, "_PYTHON_SAMPLE_BUDGET", 0)  # the NumPy kernel, wherever NumPy is installed
    with_numpy = [simulate("2000"), simulate("100001")]
    monkeypatch.undo()
    monkeypatch.setitem(sys.modules, "numpy", None)  # what an install without NumPy gives `import numpy`
    # 2,000 samples draw within the Python budget; past it, the Python kernel stands in for NumPy's.
    assert [simulate("2000"), simulate("100001")] == with_numpy
    check_golden("cli_simulate.txt", with_numpy[0].encode("utf-8"))


@pytest.mark.parametrize("rate", ["1e-20000", "1e-3000000"])
def test_oversized_rates_exit_2_before_a_number_is_built(capsys, monkeypatch, rate):
    import proofcalc.scenario_io as scenario_io

    class Spy(scenario_io.Fraction):
        __slots__ = ()  # as Fraction's layout: read_rate turns the Fraction it reads into a Probability in place

        def __new__(cls, value=0, *rest):
            if value == rate:
                raise AssertionError("the rate cap let an oversized rate reach Fraction")
            return super().__new__(cls, value, *rest)

    monkeypatch.setattr(scenario_io, "Fraction", Spy)
    code, out, err = run(capsys, "posterior", "--base-rate", "0.4", "--hit-rate", rate, "--false-alarm-rate", "0.1")
    assert code == 2 and out == ""
    assert err == f"error: --hit-rate: {TOO_LARGE}\n"


def test_oversized_rate_in_a_scenario_file_names_its_line(capsys, tmp_path):
    path = tmp_path / "big.scenario"
    path.write_text("base_rate = 0.4\nhit_rate = 1e-20000\nfalse_alarm_rate = 0.1\n")
    code, out, err = run(capsys, "posterior", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err == f"error: line 2: hit_rate: {TOO_LARGE}\n"


def test_rates_at_the_cap_run_and_print_below_the_int_str_limit(capsys, tmp_path):
    assert len(str(D3)) == len(str(D7)) == 1000
    code, out, err = run(capsys, "posterior", *AT_CAP)
    assert code == 0 and err == ""
    assert 2000 < max(len(digits) for digits in re.findall(r"\d+", out)) < 4300

    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "sweep", *AT_CAP, "--param", "hit_rate", "--from", "1e-999", "--to", f"{D7 - 1}/{D7}",
        "--steps", "25", "--out", str(csv_path),
    )
    assert code == 0 and (out, err) == ("", "")
    text = csv_path.read_text()
    assert len(text.splitlines()) == 26
    assert max(len(digits) for digits in re.findall(r"\d+", text)) < 4300

    code, _, err = run(capsys, "posterior", *AT_CAP[:-1], f"1/{10 * D7}")
    assert code == 2 and err == f"error: --false-alarm-rate: {TOO_LARGE}\n"


POPULATION_RATES = ["--base-rate", "1/3", "--hit-rate", "1/7", "--false-alarm-rate", "1/11"]


def test_a_population_of_one_is_read_from_a_file_and_from_a_flag(capsys, tmp_path):
    path = tmp_path / "one.scenario"
    path.write_text("base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\npopulation = 1\n", encoding="utf-8")
    expected = render_tree_text(build_tree(CASES[0].scenario, 1))
    assert run(capsys, "tree", "--scenario", str(path)) == (0, expected, "")
    assert run(capsys, "tree", *RATES, "--population", "1") == (0, expected, "")


def test_population_digit_cap(capsys, tmp_path):
    argv = ["tree", *POPULATION_RATES, "--rounding", "exact-rational", "--population"]
    code, out, err = run(capsys, *argv, "9" * 4300)
    assert code == 2 and out == ""
    assert err == "error: --population may have at most 1000 digits\n"

    code, out, err = run(capsys, *argv, "9" * 1000)
    assert code == 0 and err == ""
    assert out.splitlines()[0].split() == ["9" * 1000]

    # Every rate and the population at their caps: printed integers stay below the int-to-str limit.
    for rounding in ROUNDING_POLICIES:
        code, out, err = run(capsys, "tree", *AT_CAP, "--rounding", rounding, "--population", "9" * 1000)
        assert code == 0 and err == ""
        assert max(len(digits) for digits in re.findall(r"\d+", out)) <= 4000
    svg_path = tmp_path / "tree.svg"
    code, _, err = run(capsys, "render", *AT_CAP, "--format", "svg-tree", "--out", str(svg_path),
                       "--rounding", "exact-rational", "--population", "9" * 1000)
    assert code == 0 and err == ""
    assert max(len(digits) for digits in re.findall(r"\d+", svg_path.read_text())) <= 4000


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--base-rate", "1.5"),
        ("--hit-rate", "150%"),
        ("--false-alarm-rate", "3/2"),
        ("--threshold", "2"),
        ("--from", "1.5"),
        ("--to", "101%"),
    ],
)
def test_an_out_of_range_rate_flag_is_named(capsys, tmp_path, flag, text):
    code, out, err = run(capsys, *_command_with_rate_flag(flag, text, tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be in [0, 1], got {text}\n"


@pytest.mark.parametrize("padding", ["\n", "\r\n", "\x85", "\u2028"])
def test_an_out_of_range_rate_with_line_breaks_is_reported_on_one_line(capsys, padding):
    code, out, err = run(capsys, "posterior", *RATES[:4], "--false-alarm-rate", f"{padding}150{padding}%{padding}")
    assert code == 2 and out == ""
    assert err == "error: --false-alarm-rate must be in [0, 1], got 150 %\n"


def _command_with_rate_flag(flag, text, tmp_path):
    """A command that reads rate flag `flag` as `text`, every other rate being valid."""
    if flag in RATES:
        command = ["posterior", *RATES]
        command[command.index(flag) + 1] = text
        return command
    if flag == "--threshold":
        return ["verdict", *RATES, flag, text]
    grid = {"--from": "0.1", "--to": "0.8", flag: text}
    return ["sweep", *RATES, "--param", "base_rate", *(item for pair in grid.items() for item in pair),
            "--steps", "3", "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("flag", ["--base-rate", "--hit-rate", "--false-alarm-rate", "--threshold", "--from", "--to"])
@pytest.mark.parametrize("text", ["abc", "1/0", "1e-5000"])
def test_a_rate_flag_that_does_not_parse_is_named(capsys, monkeypatch, tmp_path, flag, text):
    import proofcalc.scenario_io as scenario_io

    class Spy(scenario_io.Fraction):
        __slots__ = ()  # as Fraction's layout: read_rate turns the Fraction it reads into a Probability in place

        def __new__(cls, value=0, *rest):
            if value == "1e-5000":
                raise AssertionError("the rate cap let an oversized rate reach Fraction")
            return super().__new__(cls, value, *rest)

    monkeypatch.setattr(scenario_io, "Fraction", Spy)
    code, out, err = run(capsys, *_command_with_rate_flag(flag, text, tmp_path))
    assert code == 2 and out == ""
    if text == "1e-5000":
        assert err == f"error: {flag}: {TOO_LARGE}\n"
    else:
        assert err == f"error: {flag} must be a rate such as 0.4, 40% or 2/5, got {text!r}\n"
    assert not (tmp_path / "out.csv").exists()


def test_sweep_rejects_more_steps_than_the_cap(capsys, monkeypatch, tmp_path):
    import proofcalc.sweep as sweep_module

    def never_build(*_):
        raise AssertionError("the step cap let a grid be built")

    monkeypatch.setattr(sweep_module, "Fraction", never_build)
    out_path = tmp_path / "sweep.csv"
    for steps in ("100001", str(10**12)):
        code, out, err = run(
            capsys, "sweep", *RATES, "--param", "base_rate", "--from", "0", "--to", "1",
            "--steps", steps, "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err == "error: --steps must be at most 100000\n"
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--population", "--steps", "--samples", "--seed"])
def test_integer_flags_refuse_oversized_and_non_integer_text_in_one_line(capsys, tmp_path, flag):
    command = {
        "--population": ["tree", *RATES],
        "--steps": ["sweep", *RATES, "--param", "base_rate", "--from", "0", "--to", "1",
                    "--out", str(tmp_path / "out.csv")],
        "--samples": ["simulate", *RATES],
        "--seed": ["simulate", *RATES, "--samples", "100"],
    }[flag]
    code, out, err = run(capsys, *command, flag, "9" * 4301)
    assert code == 2 and out == ""
    assert err == f"error: {flag} may have at most {1000 if flag == '--population' else 4300} digits\n"
    code, out, err = run(capsys, *command, flag, "ten")
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be an integer, got 'ten'\n"


def test_integer_flags_keep_int_spellings(capsys):
    _, reference, _ = run(capsys, "simulate", *RATES, "--samples", "1000", "--seed", "12")
    code, spelled, err = run(capsys, "simulate", *RATES, "--samples", " +1_000 ", "--seed", "1_2")
    assert code == 0 and err == "" and spelled == reference
    code, _, err = run(capsys, "simulate", *RATES, "--samples", "100", "--seed", "9" * 4300)
    assert code == 0 and err == ""


@pytest.mark.parametrize("flag", ["--hypothesis-label", "--evidence-label"])
@pytest.mark.parametrize("char", ["\x01", "\n", "\r", "\x1f"])
def test_a_label_flag_with_a_control_character_is_refused(capsys, tmp_path, flag, char):
    out_path = tmp_path / "tree.svg"
    code, out, err = run(
        capsys, "render", *RATES, "--format", "svg-tree", "--out", str(out_path), flag, f"a{char}b"
    )
    assert code == 2 and out == ""
    assert err == f"error: {flag} may not contain the control character {char!r}\n"
    assert not out_path.exists()


def test_a_scenario_label_with_a_control_character_names_key_and_line(capsys, tmp_path):
    path = tmp_path / "label.scenario"
    path.write_text("base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nevidence_label = is\x07blue\n")
    code, out, err = run(capsys, "posterior", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 4: evidence_label may not contain the control character '\\x07'\n"


@pytest.mark.parametrize("image", ["svg-tree", "svg-bars"])
def test_svgs_for_accepted_labels_parse_with_minidom(capsys, tmp_path, image):
    labels = ["tab\there", "&amp; <b> \"q\" 'a' {0} %s", "]]>", "naïve — ünïcode ✓", "\x7f",
              "\x85 \xa0 \u2028 \ud7ff \ue000 \ufffd \U00010000 \U0010ffff"]
    for i, label in enumerate(labels):
        out_path = tmp_path / f"{i}.svg"
        code, _, err = run(capsys, "render", *RATES, "--format", image, "--out", str(out_path),
                           "--hypothesis-label", label, "--evidence-label", label)
        assert code == 0 and err == ""
        document = xml.dom.minidom.parse(str(out_path))
        assert label in [node.firstChild.data for node in document.getElementsByTagName("text")]


@pytest.mark.parametrize("flag", ["--hypothesis-label", "--evidence-label"])
@pytest.mark.parametrize("char", ["\ufffe", "\uffff", "\ud800", "\udcff"])
def test_a_label_flag_outside_xml_characters_is_refused(capsys, tmp_path, flag, char):
    out_path = tmp_path / "tree.svg"
    code, out, err = run(
        capsys, "render", *RATES, "--format", "svg-tree", "--out", str(out_path), flag, f"a{char}b"
    )
    assert code == 2 and out == ""
    assert err == f"error: {flag} may not contain {char!r}, which XML 1.0 cannot carry\n"
    assert not out_path.exists()


def test_a_label_from_argv_bytes_that_are_not_utf8_names_its_flag(tmp_path):
    out_path = tmp_path / "tree.svg"
    result = run_strict(
        "-m", "proofcalc", "render", *RATES, "--format", "svg-tree", "--out", str(out_path),
        "--hypothesis-label", b"\xff", capture_output=True,
    )
    assert result.returncode == 2 and result.stdout == b""
    assert result.stderr == b"error: --hypothesis-label may not contain '\\udcff', which XML 1.0 cannot carry\n"
    assert not out_path.exists()


def test_scenario_file_supplies_rates_population_and_threshold(capsys, tmp_path):
    path = tmp_path / "case.scenario"
    path.write_text(
        "version = 1\n"
        "base_rate = 0.4\n"
        "hit_rate = 80%\n"
        "false_alarm_rate = 1/10\n"
        "population = 1000\n"
        "threshold = 0.9\n"
        "hypothesis_label = runs at night\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "tree", "--scenario", str(path))
    assert code == 0
    assert out.splitlines()[0].split() == ["1000"]
    assert "runs at night" in out

    code, out, _ = run(capsys, "verdict", "--scenario", str(path))
    assert code == 0 and "for-defendant" in out  # 0.842 does not clear 0.9

    code, out, _ = run(capsys, "verdict", "--scenario", str(path), "--threshold", "0.5")
    assert code == 0 and "for-moving-party" in out

    code, out, _ = run(capsys, "tree", "--scenario", str(path), "--population", "50")
    assert code == 0 and out.splitlines()[0].split() == ["50"]


def test_a_scenario_threshold_of_zero_is_kept(capsys, tmp_path):
    # A threshold of 0 is falsy: each command that reads it must test it with `is None`, not fall back to 0.5.
    path = tmp_path / "zero.scenario"
    path.write_text("base_rate = 0.1\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nthreshold = 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "verdict", "--scenario", str(path))
    assert code == 0
    assert out.splitlines()[1].split() == ["threshold", "0", "0/1"]
    assert "for-moving-party" in out  # 0.470588 clears 0 but not the default 0.5

    csv_path = tmp_path / "zero.csv"
    code, out, err = run(capsys, "sweep", "--scenario", str(path), "--param", "base_rate", "--from", "0.1",
                         "--to", "0.1", "--steps", "1", "--out", str(csv_path))
    assert code == 0 and (out, err) == ("", "")
    assert "for-moving-party" in csv_path.read_text()


def test_scenario_file_with_a_byte_order_mark(capsys, tmp_path):
    text = "version = 1\nbase_rate = 0.4\nhit_rate = 80%\nfalse_alarm_rate = 1/10\n"
    plain = tmp_path / "plain.scenario"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.scenario"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    for command in ("posterior", "verdict", "tree"):
        expected = run(capsys, command, "--scenario", str(plain))
        assert expected[0] == 0
        assert run(capsys, command, "--scenario", str(marked)) == expected


@pytest.mark.parametrize(
    "text",
    [
        "base_rate = 0.4\r\nhit_rate = 80%\r\nfalse_alarm_rate = 1/10\r\n",
        "base_rate = 0.4\nhit_rate = 80%\nfalse_alarm_rate = 1/10\nhypothesis_label = a\rb\n",
        "base_rate = 0.4\rhit_rate = 80%\rfalse_alarm_rate = 1/10\r",
    ],
    ids=["crlf", "lone-cr-in-a-label", "cr-line-endings"],
)
def test_a_scenario_file_reads_as_parse_scenario_reads_its_text(capsys, tmp_path, text):
    path = tmp_path / "case.scenario"
    path.write_bytes(text.encode("utf-8"))
    result = run(capsys, "posterior", "--scenario", str(path))
    try:
        posterior = compute_posterior(parse_scenario(text).scenario).posterior
    except ValueError as exc:
        assert result == (2, "", f"error: {exc}\n")
    else:
        assert result[0] == 0 and result[2] == ""
        assert result[1].endswith(f"  {posterior.numerator}/{posterior.denominator}\n")


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "posterior", "--base-rate", "0.4")
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "posterior", "--scenario", "nope.txt", *RATES)
    assert code == 2 and "cannot be combined" in err

    code, _, err = run(capsys, "posterior", "--scenario", str(tmp_path / "missing.txt"))
    assert code == 2

    code, _, err = run(capsys, "posterior", "--base-rate", "1.5", "--hit-rate", "0.8", "--false-alarm-rate", "0.1")
    assert code == 2

    code, _, err = run(capsys, "posterior", "--base-rate", "abc", "--hit-rate", "0.8", "--false-alarm-rate", "0.1")
    assert code == 2

    bad = tmp_path / "bad.scenario"
    bad.write_text("base_rate = 0.4\n", encoding="utf-8")
    code, _, err = run(capsys, "posterior", "--scenario", str(bad))
    assert code == 2 and "hit_rate" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_scenario_file_exits_2_with_one_line_in_bounded_memory():
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    result = run_strict(
        "-m", "proofcalc", "posterior", "--scenario", "/dev/zero", capture_output=True, text=True,
        preexec_fn=limit_memory,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: --scenario: a scenario file may have at most 1048576 characters\n"


def test_a_scenario_file_at_the_character_cap_is_read(capsys, tmp_path):
    from proofcalc.cli import _MAX_SCENARIO_CHARS

    rates = "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n"
    path = tmp_path / "padded.scenario"
    path.write_text(rates + "#" * (_MAX_SCENARIO_CHARS - len(rates)), encoding="utf-8")
    code, out, _ = run(capsys, "posterior", "--scenario", str(path))
    assert code == 0 and out.endswith("  16/19\n")
    path.write_text(rates + "#" * (_MAX_SCENARIO_CHARS - len(rates) + 1), encoding="utf-8")
    code, out, err = run(capsys, "posterior", "--scenario", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1 and "at most" in err


def test_degenerate_evidence_exits_3(capsys, tmp_path):
    for argv in (
        ["posterior", *DEGENERATE],
        ["verdict", *DEGENERATE],
        ["simulate", *DEGENERATE, "--samples", "100"],
        ["render", *DEGENERATE, "--format", "svg-bars", "--out", str(tmp_path / "x.svg")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "error:" in err


def test_degenerate_sweep_points_do_not_fail_the_command(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, _, _ = run(
        capsys, "sweep", "--base-rate", "0", "--hit-rate", "0.3", "--false-alarm-rate", "0.1",
        "--param", "false_alarm_rate", "--from", "0", "--to", "0.5", "--steps", "2",
        "--out", str(target),
    )
    assert code == 0
    assert "degenerate,none" in target.read_text(encoding="utf-8")


def test_usage_errors_from_argparse_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["posterior", "--no-such-flag"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["", "posterior", "verdict", "tree", "render", "sweep", "simulate"])
def test_help_exits_0_and_wraps_to_columns(capsys, monkeypatch, command):
    # argparse's layout changes between Pythons, so this compares one Python's two widths, not bytes.
    texts = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--help"])
        out, err = capsys.readouterr()
        assert (excinfo.value.code, err) == (0, "")
        assert out.startswith(f"usage: proofcalc {command}".rstrip())
        texts.append(out)
    narrow, wide = texts
    assert len(narrow.splitlines()) > len(wide.splitlines())
    assert max(map(len, wide.splitlines())) > 60


#: Flags each command needs besides the rates, by name, with values that run.
_COMMAND_FLAGS = {
    "posterior": {},
    "verdict": {"--threshold": "0.9"},
    "tree": {"--population": "100"},
    "render": {"--format": SVG_TREE, "--out": "tree.svg", "--population": "100"},
    "sweep": {"--param": "base_rate", "--from": "0", "--to": "1", "--steps": "3", "--out": "sweep.csv"},
    "simulate": {"--samples": "100", "--seed": "0"},
}
_NOT_A_RATE = "must be a rate such as 0.4, 40% or 2/5, got '--'"
_NOT_AN_INTEGER = "must be an integer, got '--'"


#: (command, flag, the error "--" gives it, or None where it is a value that runs)
_DOUBLE_DASHES = [
    ("posterior", "--scenario", "[Errno 2] No such file or directory: '--'"),
    *(("posterior", flag, f"{flag} {_NOT_A_RATE}") for flag in ("--base-rate", "--hit-rate", "--false-alarm-rate")),
    ("tree", "--hypothesis-label", None), ("tree", "--evidence-label", None),
    ("verdict", "--threshold", f"--threshold {_NOT_A_RATE}"),
    ("tree", "--population", f"--population {_NOT_AN_INTEGER}"),
    ("render", "--population", f"--population {_NOT_AN_INTEGER}"), ("render", "--out", None),
    ("sweep", "--from", f"--from {_NOT_A_RATE}"), ("sweep", "--to", f"--to {_NOT_A_RATE}"),
    ("sweep", "--steps", f"--steps {_NOT_AN_INTEGER}"), ("sweep", "--out", None),
    ("simulate", "--samples", f"--samples {_NOT_AN_INTEGER}"), ("simulate", "--seed", f"--seed {_NOT_AN_INTEGER}"),
]


@pytest.mark.parametrize("command, flag, error", _DOUBLE_DASHES, ids=[" ".join(case[:2]) for case in _DOUBLE_DASHES])
def test_a_flag_set_to_a_double_dash_takes_it_as_its_value(capsys, monkeypatch, tmp_path, command, flag, error):
    # Before Python 3.13, argparse drops the "--" of "--flag=--" and stores []; main reads "--" on every version.
    monkeypatch.chdir(tmp_path)  # --out=-- writes a file named "--"
    given = {} if flag == "--scenario" else dict(zip(RATES[::2], RATES[1::2]))
    given.update(_COMMAND_FLAGS[command])
    given.pop(flag, None)
    code, out, err = run(capsys, command, *(text for pair in given.items() for text in pair), f"{flag}=--")
    if error is not None:
        assert (code, out, err) == (2, "", f"error: {error}\n")
    elif flag == "--out":
        assert (code, out, err) == (0, "", "") and (tmp_path / "--").stat().st_size > 0
    else:
        scenario = CASES[0].scenario._replace(**{flag[2:].replace("-", "_"): "--"})
        assert (code, out, err) == (0, render_tree_text(build_tree(scenario, 100)), "")


@pytest.mark.parametrize("command, flag", [("render", "--format"), ("sweep", "--param"), ("tree", "--rounding")])
def test_a_flag_with_choices_refuses_a_double_dash_before_any_file(capsys, monkeypatch, tmp_path, command, flag):
    # Before Python 3.13, argparse drops the "--" of "--flag=--" and checks no choice; 3.13 refuses it itself.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.csv").write_bytes(b"kept\n")  # sweep's --out, which must not be opened
    given = {**dict(zip(RATES[::2], RATES[1::2])), **_COMMAND_FLAGS[command]}
    given.pop(flag, None)
    errors = []
    for value in ("--", "zz"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *(text for pair in given.items() for text in pair), f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        errors.append(err)
    # The same usage block and line as argparse gives any other value it does not know.
    assert f"error: argument {flag}: invalid choice: '--'" in errors[0]
    assert errors[0] == errors[1].replace("'zz'", "'--'")
    assert [path.name for path in tmp_path.iterdir()] == ["sweep.csv"]
    assert (tmp_path / "sweep.csv").read_bytes() == b"kept\n"


#: A child that runs the request in its later arguments, then names the modules of its first argument
#: (comma-separated) that it has loaded. The rounding-policy names come from core, so they load no other module.
_LOADED = (
    "import sys\n"
    "from proofcalc import EXACT_RATIONAL, LARGEST_REMAINDER, ROUNDING_POLICIES\n"
    "from proofcalc.cli import main\n"
    "assert not sys.argv[2:] or main(sys.argv[2:]) == 0\n"
    "print('loaded:', *(name for name in sys.argv[1].split(',') if name in sys.modules))\n"
)


def _loaded(modules, *argv, options=()):
    result = run_strict(*options, "-c", _LOADED, ",".join(modules), *argv, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return result.stdout.splitlines()[-1].split()[1:]


def test_numpy_is_imported_only_to_simulate(tmp_path):
    pytest.importorskip("numpy")  # the child processes import it from the same installation
    def loaded(*argv):
        optional = ("proofcalc.freqtree", "proofcalc.render", "proofcalc.sweep", "proofcalc.oracle", "csv", "numpy")
        return _loaded(optional, *argv)

    assert loaded() == []
    assert loaded("posterior", *RATES) == []
    assert loaded("verdict", *RATES) == []
    sweep = ("--param", "base_rate", "--from", "0", "--to", "1", "--steps", "3", "--out", str(tmp_path / "s.csv"))
    assert loaded("sweep", *RATES, *sweep) == ["proofcalc.sweep"]
    bars = ("--format", "svg-bars", "--out", str(tmp_path / "b.svg"))
    assert loaded("render", *RATES, *bars) == ["proofcalc.render"]
    assert loaded("tree", *RATES) == ["proofcalc.freqtree", "proofcalc.render"]
    assert loaded("simulate", *RATES, "--samples", "10") == ["proofcalc.oracle"]
    # The default 100,000 samples are the whole Python budget; one more takes the NumPy kernel.
    assert loaded("simulate", *RATES, "--samples", "100000") == ["proofcalc.oracle"]
    assert loaded("simulate", *RATES, "--samples", "100001") == ["proofcalc.oracle", "numpy"]


def _loaded_by_each_request(modules, tmp_path):
    """(subcommand, the modules of `modules` it loaded) for one request of each subcommand, each run with -S.

    -S skips site, whose .pth hooks (an editable install's, say) may import any module before
    proofcalc runs; run_strict's PYTHONPATH still finds this proofcalc. simulate runs small enough
    to draw in Python, because NumPy lives in site-packages.
    """
    sweep = ("--param", "base_rate", "--from", "0", "--to", "1", "--steps", "3", "--out", str(tmp_path / "s.csv"))
    svg = ("--format", "svg-tree", "--out", str(tmp_path / "t.svg"))
    for command, *flags in (
        ("posterior",), ("verdict",), ("tree",), ("render", *svg), ("sweep", *sweep), ("simulate", "--samples", "10"),
    ):
        yield command, _loaded(modules, command, *RATES, *flags, options=("-S",))


def test_requests_load_neither_typing_nor_pathlib(tmp_path):
    for command, loaded in _loaded_by_each_request(("typing", "pathlib"), tmp_path):
        assert loaded == [], command


def test_requests_load_neither_dataclasses_nor_inspect(tmp_path):
    # dataclasses imports inspect, and with it ast, dis and tokenize: about 11 ms of a request on Python 3.11.
    # The records are named tuples, so no subcommand needs either. A Python whose argparse loads one of them
    # itself is let off that one: the floor, started as the requests are (run_strict with -S), only builds a
    # one-argument parser.
    modules = ("dataclasses", "inspect")
    floor = run_strict(
        "-S", "-c",
        "import argparse, sys\n"
        "argparse.ArgumentParser().add_argument('x')\n"
        "print('loaded:', *(name for name in sys.argv[1:] if name in sys.modules))\n",
        *modules, capture_output=True, text=True, check=True,
    ).stdout.split()[1:]
    for command, loaded in _loaded_by_each_request(modules, tmp_path):
        assert set(loaded) <= set(floor), command


def test_the_package_loads_each_name_from_its_module_on_first_use(tmp_path):
    script = (
        "import sys\n"
        "import proofcalc\n"
        "assert dir(proofcalc) == sorted(proofcalc.__all__)\n"
        "try:\n"
        "    proofcalc.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
        "from proofcalc import *\n"
        "for module, names in proofcalc._EXPORTS.items():\n"
        "    for name in names:\n"
        "        home = getattr(sys.modules['proofcalc.' + module], name)\n"
        "        assert getattr(proofcalc, name) is home and globals()[name] is home, name\n"
        "assert proofcalc.sweep is sys.modules['proofcalc.sweep'], 'before'\n"
        "from proofcalc.cli import main\n"
        "assert main(['sweep', *sys.argv[2:], '--param', 'base_rate', '--from', '0', '--to', '1',\n"
        "             '--steps', '3', '--out', sys.argv[1]]) == 0\n"
        "assert proofcalc.sweep is sys.modules['proofcalc.sweep'], 'after'\n"
    )
    result = run_strict("-c", script, str(tmp_path / "sweep.csv"), *RATES, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr


@pytest.mark.parametrize(
    "key, text",
    [("base_rate", "abc"), ("base_rate", "1/0"), ("base_rate", "1e-5000"), ("base_rate", "1.5"),
     ("population", "ten"), ("population", "9" * 4301), ("population", "0"), ("population", "1" + "0" * 1000),
     ("population", "0" * 1000 + "1"), ("hit_rate", "eighty"), ("false_alarm_rate", "3/2"), ("threshold", "2"),
     ("hypothesis_label", "a\x01b"), ("evidence_label", "a\x01b"), ("hypothesis_label", "a\udcffb"),
     ("hit_rate", "0.\udcff")],
    ids=["abc", "1/0", "1e-5000", "1.5", "ten", "4301-nines", "population-0", "population-10**1000",
         "population-leading-zeros", "hit_rate", "false_alarm_rate", "threshold", "hypothesis_label", "evidence_label",
         "hypothesis_label-byte-ff", "hit_rate-byte-ff"],
)
def test_a_bad_value_reads_the_same_from_a_flag_and_from_a_file(capsys, tmp_path, key, text):
    # The threshold is read by verdict alone, which takes no population.
    command, extra = ("verdict", {}) if key == "threshold" else ("tree", {"population": "100"})
    values = {"base_rate": "0.4", "hit_rate": "0.8", "false_alarm_rate": "0.1", **extra, key: text}
    flag = "--" + key.replace("_", "-")
    code, out, flag_err = run(capsys, command, *(item for name, value in values.items()
                                                 for item in ("--" + name.replace("_", "-"), value)))
    assert code == 2 and out == "" and flag_err.startswith(f"error: {flag}")

    path = tmp_path / "bad.scenario"
    # A lone surrogate is written as the byte it stands for, which is not UTF-8, as argv carries it.
    path.write_text("".join(f"{name} = {value}\n" for name, value in values.items()),
                    encoding="utf-8", errors="surrogateescape")
    code, out, file_err = run(capsys, command, "--scenario", str(path))
    line = list(values).index(key) + 1
    assert code == 2 and out == ""
    assert file_err == flag_err.replace(f"error: {flag}", f"error: line {line}: {key}", 1)


def test_usage_checks_then_flags_in_key_order_then_the_file(capsys, tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text("base_rate = abc\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n", encoding="utf-8")
    # A flag is read before the file is opened.
    code, out, err = run(capsys, "verdict", "--scenario", str(path), "--threshold", "2")
    assert (code, out, err) == (2, "", "error: --threshold must be in [0, 1], got 2\n")
    # The usage checks come before any flag.
    code, out, err = run(capsys, "tree", "--base-rate", "0.4", "--population", "0")
    assert (code, out) == (2, "")
    assert err == "error: provide --scenario PATH, or all of --base-rate, --hit-rate and --false-alarm-rate\n"
    # The flags are read in key order: threshold before the labels.
    code, out, err = run(capsys, "verdict", *RATES, "--threshold", "2", "--hypothesis-label", "a\x01")
    assert (code, out, err) == (2, "", "error: --threshold must be in [0, 1], got 2\n")


@pytest.mark.parametrize(
    "command, flag, cap",
    [("simulate", "--samples", 10**9), ("sweep", "--steps", 10**5)],
)
def test_count_flags_are_range_checked_by_name_before_the_file(capsys, tmp_path, command, flag, cap):
    path = tmp_path / "bad.scenario"
    path.write_text("base_rate = abc\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n", encoding="utf-8")
    out_path = tmp_path / "sweep.csv"
    grid = ("--param", "base_rate", "--from", "0", "--to", "1", "--out", str(out_path)) if command == "sweep" else ()
    for value, message in (("0", f"{flag} must be >= 1, got 0"), ("-5", f"{flag} must be >= 1, got -5"),
                           (str(cap + 1), f"{flag} must be at most {cap}")):
        for source in (RATES, ("--scenario", str(path))):
            code, out, err = run(capsys, command, *source, *grid, flag, value)
            assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_no_network_or_xml_module_is_imported(tmp_path):
    script = (
        "import sys\n"
        "import proofcalc\n"
        "from proofcalc.cli import main\n"
        "assert main(['posterior', *sys.argv[2:]]) == 0\n"
        "assert main(['render', *sys.argv[2:], '--format', 'svg-tree', '--out', sys.argv[1]]) == 0\n"
        "loaded = [name for name in ('xml.sax', 'urllib.request', 'http.client', 'email', 'ssl')\n"
        "          if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    result = run_strict("-c", script, str(tmp_path / "tree.svg"), *RATES, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr


#: The environment without PYTHONUNBUFFERED: with it set, a failed write to stdout fails at once
#: instead of in the interpreter's flush at exit.
BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
PRINTING = ["posterior", "verdict", "tree", "simulate"]


def _run_into(stdout, command):
    return run_strict(
        "-m", "proofcalc", command, *RATES, stdout=stdout, stderr=subprocess.PIPE, text=True, env=BUFFERED
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", PRINTING)
def test_a_full_device_on_stdout_exits_2_with_one_line(command):
    with open("/dev/full", "w") as full:
        result = _run_into(full, command)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: [Errno {errno.ENOSPC}]") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", PRINTING)
def test_a_closed_pipe_on_stdout_exits_2_with_one_line(command):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_into(write_end, command)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: [Errno {errno.EPIPE}]") and result.stderr.count("\n") == 1


# ------------------------------------------------ each subcommand in a fresh process under -X dev -W error

#: The files in each strict request's working directory.
_STRICT_FILES = {
    # Each rate spelling (decimal, percent, fraction), a population and a threshold.
    "bus.scenario": b"base_rate = 0.4\nhit_rate = 80%\nfalse_alarm_rate = 1/10\npopulation = 1000\nthreshold = 0.75\n",
    # Labels that hold template braces and markup.
    "braces.scenario":
        b"base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nhypothesis_label = {0} & <x>\nevidence_label = {label}\n",
    # A label line holding byte 0xe9 (Latin-1 "é"), which is not UTF-8.
    "latin1.scenario": b"base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nhypothesis_label = caf\xe9\n",
    # The --out file of a refused sweep, which must be left as it is.
    "kept.csv": b"kept\n",
}
_R = " ".join(RATES)
_ONE_ERROR_LINE = "error: [^\n]*\n"


def _invalid_choice(flag):
    """argparse's usage block and its line for a choice it does not know, as it writes them for '--'."""
    return f"(?s)usage: .*: error: argument {flag}: invalid choice: '--'[^\n]*\n"


#: (id, request, its exit code, a pattern its whole stderr must match)
_STRICT_REQUESTS = [
    # Clean runs: exit 0 with nothing on stderr. Each SVG written must parse as XML.
    ("posterior", f"posterior {_R}", 0, ""),
    ("verdict-threshold", f"verdict {_R} --threshold 0.9", 0, ""),
    ("tree-exact", f"tree {_R} --rounding exact-rational", 0, ""),
    ("render-svg-tree", f"render {_R} --format svg-tree --out tree.svg", 0, ""),
    ("render-svg-bars", f"render {_R} --format svg-bars --out bars.svg", 0, ""),
    ("render-braces-svg-tree", "render --scenario braces.scenario --format svg-tree --out braces-tree.svg", 0, ""),
    ("render-braces-svg-bars", "render --scenario braces.scenario --format svg-bars --out braces-bars.svg", 0, ""),
    ("sweep", f"sweep {_R} --param base_rate --from 0 --to 1 --steps 5 --out sweep.csv", 0, ""),
    # 1,000 and 100,000 samples draw in Python; 200,000 take the NumPy kernel, which runs with no
    # np.errstate (so a wraparound warning fails here), or, without NumPy, the Python one. The last
    # two runs put the hit rate below the false-alarm rate.
    ("simulate-1000", f"simulate {_R} --samples 1000", 0, ""),
    ("simulate-100000", f"simulate {_R} --samples 100000", 0, ""),
    ("simulate-200000", f"simulate {_R} --samples 200000", 0, ""),
    ("simulate-low-hit-100000", "simulate --base-rate 0.4 --hit-rate 0.3 --false-alarm-rate 0.6 --samples 100000", 0, ""),
    ("simulate-low-hit-200000", "simulate --base-rate 0.4 --hit-rate 0.3 --false-alarm-rate 0.6 --samples 200000", 0, ""),
    ("posterior-file", "posterior --scenario bus.scenario", 0, ""),
    ("verdict-file", "verdict --scenario bus.scenario", 0, ""),
    ("tree-file-exact", "tree --scenario bus.scenario --rounding exact-rational", 0, ""),
    # Refusals, each with one stderr line: a rate out of range, a population below 1, a flag that
    # overrides a file's value out of range, degenerate evidence, a "--flag=--" value (which argparse
    # before 3.13 stores as []), and a scenario file that is not UTF-8, refused at the line of its byte.
    ("posterior-rate-out-of-range", "posterior --base-rate 1.5 --hit-rate 0.8 --false-alarm-rate 0.1", 2, _ONE_ERROR_LINE),
    ("tree-population-0", f"tree {_R} --population 0", 2, _ONE_ERROR_LINE),
    ("verdict-file-threshold-2", "verdict --scenario bus.scenario --threshold 2", 2, _ONE_ERROR_LINE),
    ("posterior-degenerate", "posterior --base-rate 0.4 --hit-rate 0 --false-alarm-rate 0", 3, _ONE_ERROR_LINE),
    ("simulate-samples=--", f"simulate {_R} --samples=--", 2, _ONE_ERROR_LINE),
    ("tree-file-not-utf8", "tree --scenario latin1.scenario", 2, "error: line 4: [^\n]*\n"),
    # A "--flag=--" value of each flag with choices, which argparse before 3.13 passed on unchecked:
    # argparse's usage block, before render or sweep opens its --out file.
    ("render-format=--", f"render {_R} --format=-- --out dashes.svg", 2, _invalid_choice("--format")),
    ("sweep-param=--", f"sweep {_R} --param=-- --from 0 --to 1 --steps 5 --out kept.csv", 2, _invalid_choice("--param")),
    ("tree-rounding=--", f"tree {_R} --rounding=--", 2, _invalid_choice("--rounding")),
]


@pytest.mark.parametrize("command, code, stderr", [case[1:] for case in _STRICT_REQUESTS],
                         ids=[case[0] for case in _STRICT_REQUESTS])
def test_a_request_in_a_strict_process(tmp_path, command, code, stderr):
    # Under -X dev -W error an unclosed file, or a deprecation (in core's reads of Fraction's slots,
    # say), fails the request or writes a warning to stderr, which no row allows.
    for name, data in _STRICT_FILES.items():
        (tmp_path / name).write_bytes(data)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = command.split()
    result = run_strict("-m", "proofcalc", *argv, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == code, result.stderr
    assert re.fullmatch(stderr, result.stderr), result.stderr
    if code:
        # A refusal prints nothing and creates, writes or changes no file.
        assert result.stdout == ""
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    elif argv[-1].endswith(".svg"):
        xml.dom.minidom.parse(str(tmp_path / argv[-1]))


# ------------------------------------------------ the CLI contract over generated values

def _numbers(low, high):
    """Rate texts in each spelling parse_rate reads, for values in [low, high]."""
    return st.one_of(
        st.fractions(low, high, max_denominator=10**12).map(str),
        st.decimals(low, high, places=6).map(str),
        st.decimals(100 * low, 100 * high, places=3).map("{}%".format),
    )


VALID_RATES = _numbers(0, 1)
#: Any rate text: valid, out of range, padded with whitespace that ends a line, malformed, or junk.
RATE_TEXTS = st.one_of(
    VALID_RATES,
    _numbers(-2, 2),
    st.builds("{1}{0}{1}".format, _numbers(-2, 2), st.sampled_from([" ", "\t", "\n", "\x85", "\u2028"])),
    st.text("0123456789./%eE+-_ \t\n\u2028", max_size=30),
    st.text(max_size=200),
)
#: The whole code-point range, with C0/C1 controls and lone surrogates made common.
ANY_CHARACTER = st.one_of(st.characters(exclude_categories=()), st.characters(categories=["Cc", "Cs"]))
LABELS = st.text(ANY_CHARACTER, max_size=200)


def _spelled(value, plus, underscores, padding):
    digits = f"{abs(value):_}" if underscores else str(abs(value))
    return f"{padding}{'-' if value < 0 else '+' if plus else ''}{digits}{padding}"


def integer_texts(low, high):
    """Texts of integers in [low, high], with signs, underscores and padding, and texts int() refuses."""
    return st.one_of(
        st.builds(_spelled, st.integers(low, high), st.booleans(), st.booleans(), st.sampled_from(["", " ", "\t"])),
        st.builds("{}{}".format, st.integers(low, high), st.sampled_from(["x", ".0", "e3", "__1", "+"])),
        st.text(st.characters(exclude_categories=["Nd"]), max_size=20),
    )


POPULATIONS = integer_texts(-2, 10**60)


def _scenario_texts(rates):
    return st.fixed_dictionaries(
        {key: rates for key in ("base_rate", "hit_rate", "false_alarm_rate")},
        optional={"version": integer_texts(0, 2), "population": POPULATIONS, "threshold": RATE_TEXTS,
                  "hypothesis_label": LABELS, "evidence_label": LABELS, "colour": LABELS},
    ).map(lambda pairs: "".join(f"{key} = {value}\n" for key, value in pairs.items()))


SCENARIO_TEXTS = st.one_of(_scenario_texts(VALID_RATES), _scenario_texts(RATE_TEXTS), st.text(ANY_CHARACTER, max_size=200))


@pytest.mark.parametrize("command", ["posterior", "verdict", "tree", "render", "sweep", "simulate"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_values_exit_0_2_or_3_with_one_error_line(capsys, tmp_path, command, data):
    # Values are drawn inside each subcommand's argv shape and passed as --flag=value, so argparse
    # never takes one for a flag: its own usage errors are not what this checks.
    scenario_path, out_path = tmp_path / "drawn.scenario", tmp_path / "drawn.out"
    out_path.unlink(missing_ok=True)

    def drawn(flag, strategy):
        return f"{flag}={data.draw(strategy, label=flag)}"

    if data.draw(st.booleans(), label="from a scenario file"):
        text = data.draw(SCENARIO_TEXTS, label="scenario text")
        scenario_path.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = [command, "--scenario", str(scenario_path)]
    else:
        rates = data.draw(st.sampled_from([VALID_RATES, RATE_TEXTS]), label="rates")
        argv = [command] + [drawn(flag, rates) for flag in ("--base-rate", "--hit-rate", "--false-alarm-rate")]
    for flag in ("--hypothesis-label", "--evidence-label"):
        if data.draw(st.booleans(), label=f"with {flag}"):
            argv.append(drawn(flag, LABELS))
    if command in ("tree", "render"):
        argv += [drawn("--population", POPULATIONS), drawn("--rounding", st.sampled_from(ROUNDING_POLICIES))]
    if command == "render":
        argv += [drawn("--format", st.sampled_from([SVG_TREE, SVG_BARS])), "--out", str(out_path)]
    elif command == "verdict":
        argv.append(drawn("--threshold", RATE_TEXTS))
    elif command == "sweep":
        argv += [drawn("--param", st.sampled_from(SWEEPABLE_PARAMETERS)), drawn("--from", RATE_TEXTS),
                 drawn("--to", RATE_TEXTS), drawn("--steps", integer_texts(-2, 50)), "--out", str(out_path)]
    elif command == "simulate":
        argv += [drawn("--samples", integer_texts(-2, 10**4)), drawn("--seed", integer_texts(-(2**70), 2**70))]

    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1
    else:
        assert err == ""
        if command == "render":
            xml.dom.minidom.parse(str(out_path))
