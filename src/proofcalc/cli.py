"""Command-line surface tying the whole pipeline together.

Every subcommand reads its scenario either from a file (--scenario PATH,
see scenario_io for the format) or from inline flags
--base-rate/--hit-rate/--false-alarm-rate, each accepting decimals
("0.4"), percentages ("40%") or fractions ("2/5").

Exit codes: 0 success, 2 input or parse error, 3 degenerate evidence.
Output is deterministic: identical inputs and flags produce byte-identical
standard output (`simulate` included, given --seed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .core import (
    PREPONDERANCE,
    RATE_NAMES,
    DegenerateEvidence,
    Probability,
    Scenario,
    compute_posterior,
    decide,
    verdict_error_profile,
)
from .freqtree import LARGEST_REMAINDER, ROUNDING_POLICIES, FrequencyTree, build_tree
from .scenario_io import ScenarioDocument, check_label, format_sig, parse_scenario, read_integer, read_rate

# render, sweep (with csv) and oracle (with NumPy) are imported in the subcommands that use them,
# so that the other subcommands start without loading them.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

SVG_TREE = "svg-tree"
SVG_BARS = "svg-bars"

#: Integer flags, read as text and converted by `_integer_flags` after parsing.
_INTEGER_FLAGS = ("population", "steps", "samples", "seed")


class CLIError(ValueError):
    """Bad flag combination; reported on stderr with exit code 2."""


def _scenario_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "scenario source", "either --scenario PATH or all three inline rates"
    )
    group.add_argument("--scenario", metavar="PATH", help="scenario file to read")
    group.add_argument("--base-rate", metavar="RATE", help="p(H), e.g. 0.4, 40%% or 2/5")
    group.add_argument("--hit-rate", metavar="RATE", help="p(E|H)")
    group.add_argument("--false-alarm-rate", metavar="RATE", help="p(E|not H)")
    group.add_argument("--hypothesis-label", metavar="TEXT", help="display label for H")
    group.add_argument("--evidence-label", metavar="TEXT", help="display label for E")


def _integer_flags(args: argparse.Namespace) -> None:
    """Turn each integer flag's text into an int, refusing non-integers and over-long texts by name."""
    for dest in _INTEGER_FLAGS:
        text = getattr(args, dest, None)
        if text is not None:
            setattr(args, dest, read_integer(f"--{dest}", text))


def _load_document(args: argparse.Namespace) -> ScenarioDocument:
    inline = (args.base_rate, args.hit_rate, args.false_alarm_rate)
    if args.scenario is not None:
        if any(value is not None for value in inline):
            raise CLIError("--scenario cannot be combined with inline rate flags")
        document = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    else:
        if any(value is None for value in inline):
            raise CLIError(
                "provide --scenario PATH, or all of --base-rate, --hit-rate and --false-alarm-rate"
            )
        document = ScenarioDocument(
            scenario=Scenario(
                base_rate=read_rate("--base-rate", args.base_rate),
                hit_rate=read_rate("--hit-rate", args.hit_rate),
                false_alarm_rate=read_rate("--false-alarm-rate", args.false_alarm_rate),
            )
        )
    labels = {}
    if args.hypothesis_label is not None:
        labels["hypothesis_label"] = check_label("--hypothesis-label", args.hypothesis_label)
    if args.evidence_label is not None:
        labels["evidence_label"] = check_label("--evidence-label", args.evidence_label)
    if labels:
        document = replace(document, scenario=replace(document.scenario, **labels))
    return document


def _resolve_threshold(flag: Optional[str], document: ScenarioDocument) -> Probability:
    if flag is not None:
        return read_rate("--threshold", flag)
    if document.threshold is not None:
        return document.threshold
    return PREPONDERANCE


def _tree_options(parser: argparse.ArgumentParser, scope: str = "") -> None:
    parser.add_argument("--population", metavar="N", help=f"tree population (default 100){scope}")
    parser.add_argument(
        "--rounding", choices=ROUNDING_POLICIES, default=LARGEST_REMAINDER,
        help=f"how to make counts whole (default %(default)s){scope}",
    )


def _build_tree(args: argparse.Namespace, document: ScenarioDocument) -> FrequencyTree:
    """The tree for --population (else the file's population, else 100) and --rounding."""
    population = args.population if args.population is not None else document.population or 100
    return build_tree(document.scenario, population=population, rounding=args.rounding)


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _aligned(rows: Sequence[Tuple[str, ...]]) -> str:
    """Rows as space-aligned columns; the last column is left ragged."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row[:-1])]
        lines.append("  ".join(cells + [row[-1]]).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_posterior(args: argparse.Namespace) -> int:
    document = _load_document(args)
    breakdown = compute_posterior(document.scenario)
    rows = [
        (name.replace("_", " "), format_sig(value), _frac(value))
        for name, value in (
            ("joint_hit", breakdown.joint_hit),
            ("joint_false_alarm", breakdown.joint_false_alarm),
            ("evidence_marginal", breakdown.evidence_marginal),
            ("posterior", breakdown.posterior),
        )
    ]
    sys.stdout.write(_aligned(rows))
    return EXIT_OK


def _cmd_verdict(args: argparse.Namespace) -> int:
    document = _load_document(args)
    threshold = _resolve_threshold(args.threshold, document)
    breakdown = compute_posterior(document.scenario)
    verdict = decide(breakdown, threshold)
    profile = verdict_error_profile(breakdown, threshold)
    rows = [
        ("posterior", format_sig(breakdown.posterior), _frac(breakdown.posterior)),
        ("threshold", format_sig(threshold), _frac(threshold)),
        ("verdict", verdict.outcome.value, ""),
        (
            "wrong-verdict probability",
            format_sig(profile.wrong_verdict_probability),
            _frac(profile.wrong_verdict_probability),
        ),
        ("error kind", profile.error_kind.value, ""),
    ]
    sys.stdout.write(_aligned(rows))
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    from .render import render_tree_text

    document = _load_document(args)
    sys.stdout.write(render_tree_text(_build_tree(args, document)))
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_proportion_bars_svg, render_tree_svg

    document = _load_document(args)
    if args.format == SVG_TREE:
        payload = render_tree_svg(_build_tree(args, document))
    else:
        payload = render_proportion_bars_svg(document.scenario)
    Path(args.out).write_bytes(payload)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import grid_points, sweep_rows, write_sweep_rows

    document = _load_document(args)
    # Every check runs before the file is opened: the grid is strictly increasing and inside [0, 1].
    grid = grid_points(read_rate("--from", args.start), read_rate("--to", args.stop), args.steps)
    rows = sweep_rows(document.scenario, args.param, grid, threshold=_resolve_threshold(None, document))
    with open(args.out, "w", encoding="utf-8", newline="") as stream:
        write_sweep_rows(args.param, rows, stream)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .oracle import monte_carlo_posterior

    document = _load_document(args)
    exact = compute_posterior(document.scenario).posterior
    result = monte_carlo_posterior(document.scenario, samples=args.samples, seed=args.seed)
    rows = [
        ("samples", str(result.samples_total), ""),
        ("conditioned samples", str(result.samples_conditioned), ""),
        ("estimate", format_sig(result.estimate), _frac(result.estimate)),
        ("standard error", f"{result.standard_error:.6g}", ""),
        ("exact posterior", format_sig(exact), _frac(exact)),
    ]
    sys.stdout.write(_aligned(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofcalc",
        description="Exact Bayesian posterior calculator with frequency trees, "
        "SVG diagrams, sensitivity sweeps and simulation oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "posterior", help="print the posterior breakdown as decimals and exact fractions"
    )
    _scenario_options(p)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("verdict", help="apply a standard-of-proof threshold")
    _scenario_options(p)
    p.add_argument("--threshold", metavar="T", help="decision threshold (default 0.5)")
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("tree", help="print the natural-frequency tree as text")
    _scenario_options(p)
    _tree_options(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("render", help="write an SVG diagram")
    _scenario_options(p)
    p.add_argument("--format", choices=(SVG_TREE, SVG_BARS), required=True)
    p.add_argument("--out", metavar="PATH", required=True, help="output file")
    _tree_options(p, f"; {SVG_TREE} only")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("sweep", help="vary one rate over a grid, write posteriors as CSV")
    _scenario_options(p)
    p.add_argument("--param", choices=RATE_NAMES, required=True)
    p.add_argument("--from", dest="start", metavar="A", required=True, help="first grid value")
    p.add_argument("--to", dest="stop", metavar="B", required=True, help="last grid value")
    p.add_argument("--steps", metavar="K", required=True, help="number of grid values")
    p.add_argument("--out", metavar="PATH.csv", required=True, help="output CSV file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="estimate the posterior by seeded Monte Carlo")
    _scenario_options(p)
    p.add_argument("--samples", metavar="K", default="100000")
    p.add_argument("--seed", metavar="S", default="0")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _integer_flags(args)
        return args.func(args)
    except DegenerateEvidence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
