"""Command-line surface tying the whole pipeline together.

Every subcommand reads its scenario either from a file (--scenario PATH,
see scenario_io for the format) or from inline flags
--base-rate/--hit-rate/--false-alarm-rate, each accepting decimals
("0.4"), percentages ("40%") or fractions ("2/5").

A subcommand prints nothing: `posterior`, `verdict` and `simulate` return a
list of (name, value) fields, `tree` returns its drawing, and `render` and
`sweep` write their file and return None. `main` alone writes to standard
output, through `_report` for fields.

Exit codes: 0 success, 2 input or parse error, missing NumPy for `simulate`
or a failed write to standard output, 3 degenerate evidence. Output is
deterministic: identical inputs and flags produce byte-identical standard
output (`simulate` included, given --seed).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .core import (
    LARGEST_REMAINDER, PREPONDERANCE, RATE_NAMES, ROUNDING_POLICIES, DegenerateEvidence, Probability, Scenario,
    compute_posterior, decide,
)
from .scenario_io import ScenarioDocument, check_label, format_sig, parse_scenario, read_integer, read_rate

# freqtree, render, sweep and oracle (with NumPy) are imported in the subcommands that use them,
# so that the other subcommands start without loading them.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

SVG_TREE = "svg-tree"
SVG_BARS = "svg-bars"

#: Integer flags, read as text and converted by `_integer_flags` after parsing.
_INTEGER_FLAGS = ("population", "steps", "samples", "seed")

#: A report field: an exact value, a count, a word (an enum's value) or a float standard error.
Field = "tuple[str, Fraction | int | str | float]"


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
            raise ValueError("--scenario cannot be combined with inline rate flags")
        # newline="" keeps a lone "\r" inside its line, as parse_scenario reads it.
        with open(args.scenario, encoding="utf-8", newline="") as stream:
            document = parse_scenario(stream.read())
    else:
        if any(value is None for value in inline):
            raise ValueError(
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


def _resolve_threshold(flag: str | None, document: ScenarioDocument) -> Probability:
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


def _build_tree(args: argparse.Namespace, document: ScenarioDocument):
    """The tree for --population (else the file's population, else 100) and --rounding."""
    from .freqtree import build_tree

    population = args.population if args.population is not None else document.population or 100
    return build_tree(document.scenario, population=population, rounding=args.rounding)


def _report(fields: list[Field]) -> str:
    """Fields in space-aligned lines: an exact value as its decimal and p/q, a float to 6 digits, else text."""
    rows = [
        (name, format_sig(value), f"{value.numerator}/{value.denominator}") if isinstance(value, Fraction)
        else (name, f"{value:.6g}" if isinstance(value, float) else str(value), "")
        for name, value in fields
    ]
    name_width = max(len(name) for name, _, _ in rows)
    value_width = max(len(value) for _, value, _ in rows)
    return "".join(
        f"{name.ljust(name_width)}  {value.ljust(value_width)}  {exact}".rstrip() + "\n" for name, value, exact in rows
    )


def _cmd_posterior(args: argparse.Namespace) -> list[Field]:
    breakdown = compute_posterior(_load_document(args).scenario)
    return [
        ("joint hit", breakdown.joint_hit),
        ("joint false alarm", breakdown.joint_false_alarm),
        ("evidence marginal", breakdown.evidence_marginal),
        ("posterior", breakdown.posterior),
    ]


def _cmd_verdict(args: argparse.Namespace) -> list[Field]:
    document = _load_document(args)
    threshold = _resolve_threshold(args.threshold, document)
    verdict = decide(compute_posterior(document.scenario), threshold)
    return [
        ("posterior", verdict.posterior),
        ("threshold", verdict.threshold),
        ("verdict", verdict.outcome.value),
        ("wrong-verdict probability", verdict.wrong_verdict_probability),
        ("error kind", verdict.error_kind.value),
    ]


def _cmd_tree(args: argparse.Namespace) -> str:
    from .render import render_tree_text

    return render_tree_text(_build_tree(args, _load_document(args)))


def _cmd_render(args: argparse.Namespace) -> None:
    from .render import render_proportion_bars_svg, render_tree_svg

    document = _load_document(args)
    if args.format == SVG_TREE:
        payload = render_tree_svg(_build_tree(args, document))
    else:
        payload = render_proportion_bars_svg(document.scenario)
    with open(args.out, "wb") as stream:
        stream.write(payload)


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .sweep import grid_points, sweep_rows, write_sweep_rows

    document = _load_document(args)
    # Every check runs before the file is opened: the grid is strictly increasing and inside [0, 1].
    grid = grid_points(read_rate("--from", args.start), read_rate("--to", args.stop), args.steps)
    rows = sweep_rows(document.scenario, args.param, grid, threshold=_resolve_threshold(None, document))
    with open(args.out, "w", encoding="utf-8", newline="") as stream:
        write_sweep_rows(args.param, rows, stream)


def _cmd_simulate(args: argparse.Namespace) -> list[Field]:
    from .oracle import monte_carlo_posterior

    document = _load_document(args)
    exact = compute_posterior(document.scenario).posterior
    result = monte_carlo_posterior(document.scenario, samples=args.samples, seed=args.seed)
    return [
        ("samples", result.samples_total),
        ("conditioned samples", result.samples_conditioned),
        ("estimate", result.estimate),
        ("standard error", result.standard_error),
        ("exact posterior", exact),
    ]


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


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print what it returns: the one place that writes to standard output."""
    args = build_parser().parse_args(argv)
    try:
        _integer_flags(args)
        output = args.func(args)
        text = _report(output) if isinstance(output, list) else output or ""
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError:
            # The unwritten text stays buffered: send it to the null device, so the flush at exit cannot fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return EXIT_OK
    except DegenerateEvidence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
