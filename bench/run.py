"""proofcalc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact-batch --seed 1 --seconds 25 --trace 0

Run from anywhere; the repository root is found from this file's path
and the program is imported from its `src/`. The workloads, their
metrics and the reasons for them are described in bench/DESIGN.md.

With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates traced and untraced steps,
then makes a short traced pass through every layer, and reports the
per-layer metrics and the tracing overhead. Both print a table of the
workload's metrics (median, quartiles, sample count), write a result
file with the machine facts to bench/out/, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("cli-oneshot", "exact-batch", "oracle-check")
SETUP_REPEATS = 5
MAX_LISTED_FAILURES = 50


def _stats(values, percentile: int = 50) -> dict:
    values = sorted(values)
    if percentile != 50:
        value = statistics.quantiles(values, n=100)[percentile - 1] if len(values) > 1 else values[0]
        return {"value": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "seed": seed,
    }


def time_setups(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter to the end of the workload's set-up, SETUP_REPEATS times."""
    from workloads import spawn

    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
        elapsed, code, _, stderr, _ = spawn(argv, OUT)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} failed with exit code {code}: {stderr.decode(errors='replace')}")
        times.append(elapsed)
    return times


def run_loop(workload, seconds: float, tracer) -> None:
    """Steps until `seconds` have passed and the workload has done its minimum; traced runs alternate."""
    deadline = perf_counter() + seconds
    steps = 0
    while perf_counter() < deadline or not workload.enough() or (tracer is not None and steps < 2):
        workload.step(tracer if tracer is not None and steps % 2 else None)
        steps += 1


def layer_metrics(tracer, counters: dict, overhead: tuple) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the spans and the workloads' counters."""
    us = tracer.median_us
    interpreter = us("interpreter") / 1e3
    ns_per_sample = us("monte_carlo_posterior", per_unit=True, size=10**6) * 1e3
    small_call = us("monte_carlo_posterior", size=10**4)
    metrics = {
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (us("import") / 1e3 - interpreter, "ms"),
        "cli.main_us": (us("main"), "us"),
        "cli.exit2": (counters["cli.exit2"], "count"),
        "cli.exit3": (counters["cli.exit3"], "count"),
        "scenario_io.parse_scenario_us": (us("parse_scenario"), "us"),
        "scenario_io.parse_rate_us": (us("parse_rate"), "us"),
        "scenario_io.format_sig_us": (us("format_sig"), "us"),
        "core.scenario_us": (us("Scenario"), "us"),
        "core.compute_posterior_us": (us("compute_posterior"), "us"),
        "core.decide_us": (us("decide"), "us"),
        "core.error_profile_us": (us("verdict_error_profile"), "us"),
        "core.degenerate": (tracer.errors("compute_posterior", "DegenerateEvidence"), "count"),
        "freqtree.build_tree_rounded_us": (us("build_tree:largest-remainder"), "us"),
        "freqtree.build_tree_exact_us": (us("build_tree:exact-rational"), "us"),
        "freqtree.min_population_us": (us("minimal_integral_population"), "us"),
        "freqtree.integral_share": (counters["freqtree.integral_share"], "ratio"),
        "render.tree_text_us": (us("render_tree_text"), "us"),
        "render.tree_svg_us": (us("render_tree_svg"), "us"),
        "render.bars_svg_us": (us("render_proportion_bars_svg"), "us"),
        "render.bytes": (counters["render.bytes"], "B"),
        "sweep.point_us": (us("sweep", per_unit=True), "us"),
        "sweep.csv_row_us": (us("write_sweep_csv", per_unit=True), "us"),
        "sweep.degenerate_points": (counters["sweep.degenerate_points"], "count"),
        "oracle.mc_ns_per_sample": (ns_per_sample, "ns"),
        "oracle.mc_call_overhead_us": (small_call - 10**4 * ns_per_sample / 1e3, "us"),
        "oracle.conditioned_ratio": (counters["oracle.conditioned_ratio"], "ratio"),
        "oracle.enumerate_us": (us("enumerate_posterior"), "us"),
    }
    for layer, entry in tracer.self_times().items():
        metrics[f"{layer}.self_ms"] = (entry["self_ms"], "ms")
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
    metrics["trace.primary_overhead_pct"] = (overhead[0], "%")
    metrics["trace.secondary_overhead_pct"] = (overhead[1], "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proofcalc" / "__init__.py").is_file():
        print(f"error: no proofcalc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    from spans import Tracer
    from workloads import WORKLOADS, layer_probe

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_only:
        try:
            workload.setup()
        finally:
            workload.close()
        return 0

    setup_times = time_setups(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        workload.setup()
        run_loop(workload, args.seconds, tracer)
        digest = workload.finish()
        peak_rss_mb = workload.peak_rss_mb()
        untraced = workload.e2e(False)
        if tracer is not None:
            traced = workload.e2e(True)
            overhead = tuple(100 * (t - u) / u for t, u in zip(traced, untraced))
            counters, probe_attempted, probe_problems = layer_probe(args.seed, ROOT, tracer)
            counters.update(workload.counters())
            workload.attempted += probe_attempted
            workload.failed += len({ident for ident, _ in probe_problems})
            workload.problems += probe_problems
    finally:
        workload.close()

    rows = {"setup_s": dict(_stats(setup_times), unit="s")}
    for name, (values, unit, percentile) in {**workload.samples(), **workload.ref_samples()}.items():
        rows[name] = dict(_stats(values, percentile), unit=unit)
    rows["error_rate"] = {"value": workload.failed / workload.attempted, "n": workload.attempted, "unit": "ratio"}
    rows["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    if tracer is None:
        metrics = {
            "primary_x": (untraced[0], "x"),
            "secondary_x": (untraced[1], "x"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (rows["setup_s"]["value"], "s"),
        }
    else:
        metrics = layer_metrics(tracer, counters, overhead)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    facts = machine_facts(args.seed)
    print(f"proofcalc benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"{'metric':<24} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>7}")
    for name, row in rows.items():
        cells = [f"{row[k]:>12.6g}" if k in row else f"{'':>12}" for k in ("value", "q1", "q3")]
        print(f"{name:<24} {row['unit']:<7} {' '.join(cells)} {row.get('n', ''):>7}")
    print(f"output digest  sha256:{digest}")
    if tracer is not None:
        print(f"{'layer':<12} {'calls':>9} {'self ms':>12}")
        for layer, entry in tracer.self_times().items():
            print(f"{layer:<12} {entry['calls']:>9} {entry['self_ms']:>12.3f}")
        print(f"tracing overhead  primary {overhead[0]:+.2f}%  secondary {overhead[1]:+.2f}%")
    for ident, problem in workload.problems[:MAX_LISTED_FAILURES]:
        print(f"FAILED {ident}: {problem}")

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "digest": digest,
        "rows": rows,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.problems[:MAX_LISTED_FAILURES],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    line = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": result["metrics"],
    }
    if any(isinstance(v["value"], float) and not math.isfinite(v["value"]) for v in line["metrics"].values()):
        line["correct"] = False
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
