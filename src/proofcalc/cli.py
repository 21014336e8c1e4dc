"""Command-line surface tying the whole pipeline together.

Every subcommand reads its scenario either from a file (--scenario PATH,
see scenario_io for the format) or from inline flags
--base-rate/--hit-rate/--false-alarm-rate, each accepting decimals
("0.4"), percentages ("40%") or fractions ("2/5"). Each flag named after a
scenario key is read by that key's reader in scenario_io.READERS, so a bad
value is refused in the key's words, naming the flag. The two usage checks
run first, then each such flag in key order, then the scenario file; before
all of them, `sweep` reads --steps and `simulate` reads --samples and --seed,
each range-checked where it is read.

A subcommand prints nothing: `posterior`, `verdict` and `simulate` return a
list of (name, value) fields, `tree` returns its drawing, and `render` and
`sweep` write their file and return None. `main` alone writes to standard
output, through `_report` for fields.

Exit codes: 0 success, 2 input or parse error or a failed write to
standard output, 3 degenerate evidence. Output is deterministic: identical
inputs and flags produce byte-identical standard output (`simulate`
included, given --seed, with or without NumPy).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .core import (
    LARGEST_REMAINDER, PREPONDERANCE, RATE_NAMES, ROUNDING_POLICIES, DegenerateEvidence, Scenario, _check_count,
    compute_posterior, decide,
)
from .scenario_io import LABEL_KEYS, READERS, ScenarioDocument, format_sig, parse_scenario, read_integer, read_rate

# freqtree, render, sweep and oracle (and NumPy, if installed) are imported in the subcommands that use them,
# so that the other subcommands start without loading them.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

SVG_TREE = "svg-tree"
SVG_BARS = "svg-bars"

#: The longest scenario file read, in characters, so that reading one takes bounded memory.
_MAX_SCENARIO_CHARS = 1 << 20

#: A report field: an exact value, a count, a word (an enum's value) or a float standard error.
Field = "tuple[str, Fraction | int | str | float]"


class _Choice(argparse.Action):
    """A flag with choices. Before Python 3.13, argparse passes "--flag=--" on as [] unchecked: check "--" here."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            parser._check_value(self, "--")  # "--" is no choice: exits 2 with argparse's own usage and message
        setattr(namespace, self.dest, values)


def _scenario_options() -> argparse.ArgumentParser:
    """A parent parser holding the scenario flags that every subcommand takes."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group(
        "scenario source", "either --scenario PATH or all three inline rates"
    )
    group.add_argument("--scenario", metavar="PATH", help="scenario file to read")
    group.add_argument("--base-rate", metavar="RATE", help="p(H), e.g. 0.4, 40%% or 2/5")
    group.add_argument("--hit-rate", metavar="RATE", help="p(E|H)")
    group.add_argument("--false-alarm-rate", metavar="RATE", help="p(E|not H)")
    group.add_argument("--hypothesis-label", metavar="TEXT", help="display label for H")
    group.add_argument("--evidence-label", metavar="TEXT", help="display label for E")
    return parser


def _load_document(args: argparse.Namespace) -> ScenarioDocument:
    """The run's scenario, population and threshold: each flag given, else the file's value, else the default."""
    inline = [getattr(args, key) for key in RATE_NAMES]
    if args.scenario is not None and any(value is not None for value in inline):
        raise ValueError("--scenario cannot be combined with inline rate flags")
    if args.scenario is None and None in inline:
        raise ValueError("provide --scenario PATH, or all of --base-rate, --hit-rate and --false-alarm-rate")
    flags = {
        key: reader("--" + key.replace("_", "-"), value)
        for key, reader in READERS.items() if (value := getattr(args, key, None)) is not None
    }
    if args.scenario is None:
        document = ScenarioDocument(scenario=Scenario(**{key: flags[key] for key in RATE_NAMES}))
    else:
        # newline="" keeps a lone "\r" inside its line, as parse_scenario reads it. A byte that is not
        # UTF-8 arrives as a lone surrogate, as it does in argv, and its key's reader refuses it.
        with open(args.scenario, encoding="utf-8", errors="surrogateescape", newline="") as stream:
            text = stream.read(_MAX_SCENARIO_CHARS + 1)
        if len(text) > _MAX_SCENARIO_CHARS:
            raise ValueError(f"--scenario: a scenario file may have at most {_MAX_SCENARIO_CHARS} characters")
        document = parse_scenario(text)
    labels = {key: flags[key] for key in LABEL_KEYS if key in flags}
    # `get`, not `or`: a file's threshold of 0 is falsy and stays 0.
    threshold = flags.get("threshold", document.threshold)
    return ScenarioDocument(
        scenario=document.scenario._replace(**labels) if labels else document.scenario,
        population=flags.get("population") or document.population or 100,
        threshold=PREPONDERANCE if threshold is None else threshold,
    )


def _tree_options(parser: argparse.ArgumentParser, scope: str = "") -> None:
    parser.add_argument("--population", metavar="N", help=f"tree population (default 100){scope}")
    parser.add_argument(
        "--rounding", action=_Choice, choices=ROUNDING_POLICIES, default=LARGEST_REMAINDER,
        help=f"how to make counts whole (default %(default)s){scope}",
    )


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
    verdict = decide(compute_posterior(document.scenario), document.threshold)
    return [
        ("posterior", verdict.posterior),
        ("threshold", verdict.threshold),
        ("verdict", verdict.outcome.value),
        ("wrong-verdict probability", verdict.wrong_verdict_probability),
        ("error kind", verdict.error_kind.value),
    ]


def _cmd_tree(args: argparse.Namespace) -> str:
    from .freqtree import build_tree
    from .render import render_tree_text

    document = _load_document(args)
    return render_tree_text(build_tree(document.scenario, document.population, rounding=args.rounding))


def _cmd_render(args: argparse.Namespace) -> None:
    from .render import render_proportion_bars_svg, render_tree_svg

    document = _load_document(args)
    if args.format == SVG_TREE:
        from .freqtree import build_tree

        payload = render_tree_svg(build_tree(document.scenario, document.population, rounding=args.rounding))
    else:
        payload = render_proportion_bars_svg(document.scenario)
    with open(args.out, "wb") as stream:
        stream.write(payload)


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .sweep import MAX_STEPS, grid_points, sweep_rows, write_sweep_rows

    steps = _check_count("--steps", read_integer("--steps", args.steps), MAX_STEPS)

    document = _load_document(args)
    # Every check runs before the file is opened: the grid is strictly increasing and inside [0, 1].
    grid = grid_points(read_rate("--from", args.start), read_rate("--to", args.stop), steps)
    rows = sweep_rows(document.scenario, args.param, grid, threshold=document.threshold)
    with open(args.out, "w", encoding="utf-8", newline="") as stream:
        write_sweep_rows(args.param, rows, stream)


def _cmd_simulate(args: argparse.Namespace) -> list[Field]:
    from .oracle import _MAX_SAMPLES, monte_carlo_posterior

    samples = _check_count("--samples", read_integer("--samples", args.samples), _MAX_SAMPLES)
    seed = read_integer("--seed", args.seed)

    document = _load_document(args)
    exact = compute_posterior(document.scenario).posterior
    result = monte_carlo_posterior(document.scenario, samples=samples, seed=seed)
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
    scenario = [_scenario_options()]

    p = sub.add_parser(
        "posterior", parents=scenario, help="print the posterior breakdown as decimals and exact fractions"
    )
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("verdict", parents=scenario, help="apply a standard-of-proof threshold")
    p.add_argument("--threshold", metavar="T", help="decision threshold (default 0.5)")
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("tree", parents=scenario, help="print the natural-frequency tree as text")
    _tree_options(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("render", parents=scenario, help="write an SVG diagram")
    p.add_argument("--format", action=_Choice, choices=(SVG_TREE, SVG_BARS), required=True)
    p.add_argument("--out", metavar="PATH", required=True, help="output file")
    _tree_options(p, f"; {SVG_TREE} only")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("sweep", parents=scenario, help="vary one rate over a grid, write posteriors as CSV")
    p.add_argument("--param", action=_Choice, choices=RATE_NAMES, required=True)
    p.add_argument("--from", dest="start", metavar="A", required=True, help="first grid value")
    p.add_argument("--to", dest="stop", metavar="B", required=True, help="last grid value")
    p.add_argument("--steps", metavar="K", required=True, help="number of grid values")
    p.add_argument("--out", metavar="PATH.csv", required=True, help="output CSV file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", parents=scenario, help="estimate the posterior by seeded Monte Carlo")
    p.add_argument("--samples", metavar="K", default="100000")
    p.add_argument("--seed", metavar="S", default="0")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print what it returns: the one place that writes to standard output."""
    args = build_parser().parse_args(argv)
    # Before Python 3.13, argparse drops "--" from a "--flag=--" value and stores []: put back what was typed.
    vars(args).update({name: "--" for name, value in vars(args).items() if value == []})
    try:
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
