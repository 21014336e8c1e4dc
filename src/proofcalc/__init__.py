"""Exact Bayesian evidence calculator with natural-frequency views.

A scenario is three rates — base rate p(H), hit rate p(E|H), false-alarm
rate p(E|not H). This package computes the posterior p(H|E) in exact
rational arithmetic, materializes it as a natural-frequency tree over a
concrete population, renders deterministic text/SVG diagrams, applies
standard-of-proof thresholds, sweeps parameters, and cross-checks the
formula with enumeration and seeded Monte Carlo oracles.
"""

from .core import (
    PREPONDERANCE,
    DegenerateEvidence,
    ErrorKind,
    ErrorProfile,
    Outcome,
    PosteriorBreakdown,
    Probability,
    Scenario,
    Verdict,
    compute_posterior,
    decide,
    verdict_error_profile,
)
from .freqtree import (
    EXACT_RATIONAL,
    LARGEST_REMAINDER,
    ROUNDING_POLICIES,
    FrequencyTree,
    build_tree,
    minimal_integral_population,
    posterior_from_tree,
)
from .oracle import (
    NoConditionedSamples,
    NonIntegralCounts,
    SimResult,
    enumerate_posterior,
    monte_carlo_posterior,
)
from .render import (
    render_proportion_bars_svg,
    render_tree_svg,
    render_tree_text,
)
from .scenario_io import (
    DuplicateKeyError,
    MissingKeyError,
    RangeError,
    ScenarioDocument,
    ScenarioParseError,
    ScenarioSyntaxError,
    format_exact,
    format_sig,
    parse_rate,
    parse_scenario,
    serialize_scenario,
)
from .sweep import (
    SWEEPABLE_PARAMETERS,
    EmptyGridError,
    SweepRow,
    SweepTable,
    evenly_spaced_grid,
    grid_points,
    sweep,
    sweep_rows,
    write_sweep_csv,
    write_sweep_rows,
)

__version__ = "0.1.0"

__all__ = [
    "PREPONDERANCE",
    "DegenerateEvidence",
    "ErrorKind",
    "ErrorProfile",
    "Outcome",
    "PosteriorBreakdown",
    "Probability",
    "Scenario",
    "Verdict",
    "compute_posterior",
    "decide",
    "verdict_error_profile",
    "EXACT_RATIONAL",
    "LARGEST_REMAINDER",
    "ROUNDING_POLICIES",
    "FrequencyTree",
    "build_tree",
    "minimal_integral_population",
    "posterior_from_tree",
    "NoConditionedSamples",
    "NonIntegralCounts",
    "SimResult",
    "enumerate_posterior",
    "monte_carlo_posterior",
    "render_proportion_bars_svg",
    "render_tree_svg",
    "render_tree_text",
    "DuplicateKeyError",
    "MissingKeyError",
    "RangeError",
    "ScenarioDocument",
    "ScenarioParseError",
    "ScenarioSyntaxError",
    "format_exact",
    "format_sig",
    "parse_rate",
    "parse_scenario",
    "serialize_scenario",
    "SWEEPABLE_PARAMETERS",
    "EmptyGridError",
    "SweepRow",
    "SweepTable",
    "evenly_spaced_grid",
    "grid_points",
    "sweep",
    "sweep_rows",
    "write_sweep_csv",
    "write_sweep_rows",
    "__version__",
]
