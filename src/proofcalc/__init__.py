"""Exact Bayesian evidence calculator with natural-frequency views.

A scenario is three rates — base rate p(H), hit rate p(E|H), false-alarm
rate p(E|not H). This package computes the posterior p(H|E) in exact
rational arithmetic, materializes it as a natural-frequency tree over a
concrete population, renders deterministic text/SVG diagrams, applies
standard-of-proof thresholds, sweeps parameters, and cross-checks the
formula with enumeration and seeded Monte Carlo oracles.

`import proofcalc` loads none of its modules: each public name below
imports its module when it is first used (PEP 562). The sweep function is
`proofcalc.sweep.sweep`, because `proofcalc.sweep` is the module.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module and the public names the package exports from it.
_EXPORTS = {
    "core": (
        "EXACT_RATIONAL", "LARGEST_REMAINDER", "PREPONDERANCE", "ROUNDING_POLICIES", "DegenerateEvidence",
        "ErrorKind", "Outcome", "PosteriorBreakdown", "Probability", "Scenario", "Verdict", "compute_posterior",
        "decide", "verdict_error_profile",
    ),
    "freqtree": ("FrequencyTree", "build_tree", "minimal_integral_population", "posterior_from_tree"),
    "oracle": ("NoConditionedSamples", "NonIntegralCounts", "SimResult", "enumerate_posterior", "monte_carlo_posterior"),
    "render": ("render_proportion_bars_svg", "render_tree_svg", "render_tree_text"),
    "scenario_io": (
        "DuplicateKeyError", "MissingKeyError", "RangeError", "ScenarioDocument", "ScenarioParseError",
        "ScenarioSyntaxError", "format_exact", "format_sig", "parse_rate", "parse_scenario", "serialize_scenario",
    ),
    "sweep": (
        "SWEEPABLE_PARAMETERS", "EmptyGridError", "SweepRow", "SweepTable", "evenly_spaced_grid", "grid_points",
        "sweep_rows", "write_sweep_csv", "write_sweep_rows",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    """Import the home module of public `name`, and keep the value here as an eager import would."""
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
