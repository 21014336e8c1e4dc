"""The three workloads: cli-oneshot, exact-batch and oracle-check.

Each workload is a closed loop with one client. `setup()` makes the
inputs and warms up untimed; `step(tracer)` runs one timed unit and is
called until the run's time is up and `enough()` holds (so a digest
always covers the same outputs); `finish()` runs the output checks
outside the timed region. With a tracer, a step records spans; traced
and untraced steps are kept apart so the tracing overhead can be shown.

Set-up, checks and digests are all outside the timed regions.

On a shared host the speed drifts: on a 2-core VM it moved by up to a
third over minutes, for process start more than for computation. So the
steps also time a fixed reference operation that runs no proofcalc code
(a fresh interpreter importing proofcalc's dependencies, a pure-Python
Fraction loop, a NumPy uint64 loop). The end-to-end metrics are the
workload's latencies, each divided by the median reference time of the
steps around it (REF_WINDOW on each side). On that VM, over 20-25 s
windows, raw medians moved by 10-30% while such ratios moved by 1-7%.
The raw figures are reported beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import checks
import inputs

REQUEST_TIMEOUT_S = 60.0
REF_WINDOW = 5
#: What `import proofcalc` imports from outside the package; a fresh interpreter doing only this
#: is the reference for a CLI request.
DEPENDENCY_IMPORTS = "import argparse, csv, dataclasses, decimal, enum, fractions, re, xml.sax.saxutils, numpy"
_GAMMA = 0x9E3779B97F4A7C15


def python_reference() -> float:
    """ms for a fixed pure-Python Fraction loop: the machine-speed yardstick for Fraction work."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(1, k)
    return (perf_counter() - start) * 1e3


def numpy_reference() -> float:
    """ms for a fixed NumPy uint64 mix-and-compare over 2^18 values: the yardstick for array work."""
    import numpy as np

    start = perf_counter()
    with np.errstate(over="ignore"):
        z = np.arange(1, 1 << 18, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        np.count_nonzero((z >> np.uint64(11)).astype(np.float64) * 2.0**-53 < 0.5)
    return (perf_counter() - start) * 1e3


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _tree_counts(tree) -> Tuple:
    return (tree.population, tree.hypothesis_count, tree.complement_count, *tree.leaves)


def _modules(*names: str) -> tuple:
    """proofcalc submodules by name (the package's `sweep` attribute is the function, not the module)."""
    return tuple(importlib.import_module(f"proofcalc.{name}") for name in names)


def src_env(root: Path) -> Dict[str, str]:
    """The environment the test suite runs under: src on PYTHONPATH ahead of anything already there."""
    existing = os.environ.get("PYTHONPATH")
    path = str(root / "src") + (os.pathsep + existing if existing else "")
    return dict(os.environ, PYTHONPATH=path)


def spawn(argv: List[str], cwd: Path, env: Optional[Dict[str, str]] = None):
    """Run one process to exit; returns (seconds, exit code, stdout, stderr, peak RSS in KiB).

    Output goes to files in `cwd`, so a large output cannot block the
    child, and the child is reaped with wait4 to read its own peak RSS.
    A child still running after REQUEST_TIMEOUT_S is killed.
    """
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return elapsed, proc.returncode, out.read(), err.read(), usage.ru_maxrss


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.workdir = root / "bench" / "out" / f"work-{self.name}-{os.getpid()}"
        self.problems: List[Tuple[str, str]] = []
        self.attempted = 0
        self.failed = 0
        # reference timings in ms, one per step and kind; latency samples (step, ms) per traced flag
        self.refs: Dict[str, List[float]] = {}
        self.primary: Dict[bool, List[Tuple[int, float]]] = {False: [], True: []}
        self.secondary: Dict[bool, List[Tuple[int, float]]] = {False: [], True: []}

    def _ref(self, kind: str, ms: float) -> None:
        self.refs.setdefault(kind, []).append(ms)

    def _add(self, series: Dict[bool, list], traced: bool, kind: str, ms: float) -> None:
        series[traced].append((len(self.refs[kind]) - 1, ms))

    def _relative(self, samples: List[Tuple[int, float]], kind: str, percentile: int = 50) -> float:
        """The percentile of the samples, each divided by the median reference around its step."""
        refs = self.refs[kind]
        ratios = [ms / statistics.median(refs[max(0, step - REF_WINDOW): step + REF_WINDOW + 1]) for step, ms in samples]
        return statistics.median(ratios) if percentile == 50 else statistics.quantiles(ratios, n=100)[percentile - 1]

    @staticmethod
    def _raw(samples: List[Tuple[int, float]]) -> List[float]:
        return [ms for _, ms in samples]

    def ref_samples(self) -> Dict[str, Tuple[List[float], str, int]]:
        return {f"ref_{kind}_ms": (values, "ms", 50) for kind, values in self.refs.items()}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _fail(self, ident: str, problems: List[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend((ident, p) for p in problems)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def counters(self) -> Dict[str, float]:
        return {}


# --- cli-oneshot ------------------------------------------------------------------


class CliOneshot(Workload):
    """One fresh `python -m proofcalc ...` process per request, launched without a shell."""

    name = "cli-oneshot"

    def setup(self) -> None:
        self.requests, files = inputs.cli_requests(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        self.env = src_env(self.root)
        self.done = 0
        self.first: List[tuple] = []  # (request, code, stdout, stderr, file bytes, problems) of the first cycle
        self.digests: List[str] = []
        self.rss_kb = 0
        for request in self.requests[:2]:
            self._run(request)

    def _run(self, request):
        elapsed, code, stdout, stderr, rss = spawn(
            [sys.executable, "-m", "proofcalc", *request.argv], self.workdir, self.env
        )
        out = request.params.get("out")
        payload = b""
        if out and (self.workdir / out).exists():
            payload = (self.workdir / out).read_bytes()
            (self.workdir / out).unlink()
        return elapsed, code, stdout, stderr, rss, payload

    def enough(self) -> bool:
        return self.done >= len(self.requests)

    def step(self, tracer) -> None:
        index = self.done % len(self.requests)
        request = self.requests[index]
        if self.done % 2 == 0:
            self._ref("imports", spawn([sys.executable, "-c", DEPENDENCY_IMPORTS], self.workdir, self.env)[0] * 1e3)
        if tracer is None:
            elapsed, code, stdout, stderr, rss, payload = self._run(request)
        else:
            tracer.request = request.ident
            with tracer.span("cli", "request"):
                elapsed, code, stdout, stderr, rss, payload = self._run(request)
        self._add(self.primary, tracer is not None, "imports", elapsed * 1e3)
        self.rss_kb = max(self.rss_kb, rss)
        self.attempted += 1
        self.done += 1
        digest = _sha(" ".join(request.argv), code, stdout, payload)
        problems = []
        if code != request.expect:
            problems.append(f"exit code {code}, expected {request.expect}")
        if b"Traceback" in stderr:
            problems.append("traceback on stderr")
        if len(self.digests) < len(self.requests):
            self.digests.append(digest)
            self.first.append((request, code, stdout, stderr, payload, problems))
            return
        if digest != self.digests[index]:
            problems.append("output differs from the first run of this request")
        self._fail(request.ident, problems)

    def e2e(self, traced: bool) -> Tuple[float, float]:
        """p50 and p90 request latency, in starts of an interpreter that imports the dependencies."""
        values = self.primary[traced]
        return self._relative(values, "imports"), self._relative(values, "imports", 90)

    def samples(self) -> Dict[str, Tuple[List[float], str, int]]:
        latencies = self._raw(self.primary[False])
        return {"cli_p50_ms": (latencies, "ms", 50), "cli_p90_ms": (latencies, "ms", 90)}

    def peak_rss_mb(self) -> float:
        return self.rss_kb / 1024

    def finish(self) -> str:
        for request, code, stdout, stderr, payload, problems in self.first:
            if not problems and request.expect == 0:
                problems = check_cli_output(request, stdout.decode("utf-8"), payload)
            self._fail(request.ident, problems)
        return _sha(*self.digests)


def _row(text: str, name: str) -> List[str]:
    for line in text.splitlines():
        if line.startswith(name + "  "):
            return line[len(name):].split()
    return [""]


def check_cli_output(request, stdout: str, payload: bytes) -> List[str]:
    """The printed or written result of an exit-0 request, against the checks module."""
    kind, params = request.kind, request.params
    base, hit, alarm = request.rates.values
    posterior = checks.exact_posterior(base, hit, alarm)
    problems = []

    def expect(name: str, want: str) -> None:
        got = _row(stdout, name)[-1]
        if got != want:
            problems.append(f"{name}: printed {got!r}, expected {want!r}")

    if kind == "posterior":
        expect("joint hit", _frac(base * hit))
        expect("posterior", _frac(posterior))
    elif kind == "verdict":
        threshold = params["threshold"]
        wrong = 1 - posterior if checks.exceeds(posterior, threshold) else posterior
        expect("posterior", _frac(posterior))
        expect("verdict", checks.expected_verdict(posterior, threshold))
        expect("wrong-verdict probability", _frac(wrong))
    elif kind == "simulate":
        conditioned, hits = checks.mc_counts(base, hit, alarm, params["samples"], params["seed"])
        expect("samples", str(params["samples"]))
        expect("conditioned samples", str(conditioned))
        if conditioned:
            expect("estimate", _frac(Fraction(hits, conditioned)))
        expect("exact posterior", _frac(posterior))
    elif kind == "tree":
        exact = params["rounding"] == "exact-rational"
        problems += checks.check_tree(
            checks.parse_tree_text(stdout), params["population"], checks.leaf_joints(base, hit, alarm), exact
        )
    elif kind in ("svg-tree", "svg-bars"):
        problems += checks.check_svg(payload)
    elif kind == "sweep":
        param, grid = params["param"], params["grid"]
        problems += checks.check_sweep_csv(
            payload.decode("utf-8"), param, grid,
            checks.expected_sweep(base, hit, alarm, param, grid), inputs.HALF,
        )
    return problems


# --- exact-batch --------------------------------------------------------------------


class ExactBatch(Workload):
    """In-process Fraction work: a report phase and a sweep phase over one scenario list."""

    name = "exact-batch"
    SCENARIOS = 300

    def setup(self, count: Optional[int] = None) -> None:
        self.m = _modules("core", "freqtree", "oracle", "render", "scenario_io", "sweep")
        core = self.m[0]
        self.cases = inputs.exact_cases(self.seed, count or self.SCENARIOS)
        self.scenarios = [core.Scenario(*case.rates.values) for case in self.cases]
        self.points = sum(len(grid) for case in self.cases for _, grid in case.sweeps)
        self.passes = 0
        self.first_report: Optional[list] = None
        self.first_sweep: Optional[list] = None
        self.report_digests: List[str] = []
        self.sweep_digests: List[str] = []
        self.report_pass(self.cases[:10], None)
        self.sweep_pass(self.cases[:10], self.scenarios[:10], None)

    def report_pass(self, cases, tracer) -> list:
        core, freqtree, oracle, render, scenario_io, _ = self.m
        out = []
        for case in cases:
            if tracer is not None:
                tracer.request = case.ident
            document = scenario_io.parse_scenario(case.document)
            scenario = document.scenario
            threshold = document.threshold if document.threshold is not None else core.PREPONDERANCE
            breakdown = core.compute_posterior(scenario)
            verdict = core.decide(breakdown, threshold)
            profile = core.verdict_error_profile(breakdown, threshold)
            rounded = freqtree.build_tree(scenario, document.population, rounding=freqtree.LARGEST_REMAINDER)
            exact = freqtree.build_tree(scenario, document.population, rounding=freqtree.EXACT_RATIONAL)
            minimal = freqtree.minimal_integral_population(scenario, inputs.POPULATION_CAP)
            text = render.render_tree_text(rounded)
            svg = render.render_tree_svg(rounded)
            bars = render.render_proportion_bars_svg(scenario)
            enumerated = None
            if rounded.counts_exact and document.population <= 1000:
                enumerated = oracle.enumerate_posterior(scenario, document.population)
            out.append((document, breakdown, verdict, profile, rounded, exact, minimal, text, svg, bars, enumerated))
        return out

    def sweep_pass(self, cases, scenarios, tracer) -> list:
        sweep = self.m[5]
        out = []
        for case, scenario in zip(cases, scenarios):
            if tracer is not None:
                tracer.request = case.ident
            for parameter, grid in case.sweeps:
                table = sweep.sweep(scenario, parameter, grid, threshold=case.threshold)
                stream = io.StringIO()
                sweep.write_sweep_csv(table, stream)
                out.append(stream.getvalue())
        return out

    def enough(self) -> bool:
        return self.passes >= 1

    def step(self, tracer) -> None:
        traced = tracer is not None
        with tracer.instrumented() if traced else contextlib.nullcontext():
            self._ref("python", python_reference())
            start = perf_counter()
            report = self.report_pass(self.cases, tracer)
            self._add(self.primary, traced, "python", (perf_counter() - start) * 1e3 / len(self.cases))
            self._ref("python", python_reference())
            start = perf_counter()
            sweeps = self.sweep_pass(self.cases, self.scenarios, tracer)
            self._add(self.secondary, traced, "python", (perf_counter() - start) * 1e3 / self.points)
        self.passes += 1
        self.attempted += len(report) + len(sweeps)
        report_digests = [self._report_digest(item) for item in report]
        if self.first_report is None:
            self.first_report, self.first_sweep = report, sweeps
            self.report_digests, self.sweep_digests = report_digests, [_sha(csv) for csv in sweeps]
            return
        for case, got, want in zip(self.cases, report_digests, self.report_digests):
            if got != want:
                self._fail(case.ident, ["report differs from the first pass"])
        for i, (csv, want) in enumerate(zip(sweeps, self.sweep_digests)):
            if _sha(csv) != want:
                self._fail(f"{self.cases[i // 3].ident}/sweep{i % 3}", ["sweep CSV differs from the first pass"])

    @staticmethod
    def _report_digest(item) -> str:
        document, breakdown, verdict, profile, rounded, exact, minimal, text, svg, bars, enumerated = item
        values = (breakdown.posterior, verdict.outcome.value, profile.wrong_verdict_probability,
                  profile.error_kind.value, _tree_counts(exact), minimal, enumerated)
        return _sha(repr(values), text, svg, bars)

    def e2e(self, traced: bool) -> Tuple[float, float]:
        """Time per report scenario and per sweep point, in runs of the Python reference loop."""
        return self._relative(self.primary[traced], "python"), self._relative(self.secondary[traced], "python")

    def samples(self) -> Dict[str, Tuple[List[float], str, int]]:
        return {
            "report_scenarios_per_s": ([1e3 / ms for ms in self._raw(self.primary[False])], "1/s", 50),
            "sweep_points_per_s": ([1e3 / ms for ms in self._raw(self.secondary[False])], "1/s", 50),
        }

    def counters(self) -> Dict[str, float]:
        report = self.first_report
        degenerate = sum(csv.count(",degenerate,") for csv in self.first_sweep)
        rendered = sum(len(item[7].encode("utf-8")) + len(item[8]) + len(item[9]) for item in report)
        return {
            "freqtree.integral_share": sum(item[4].counts_exact for item in report) / len(report),
            "render.bytes": rendered / len(report),
            "sweep.degenerate_points": degenerate,
        }

    def finish(self) -> str:
        for case, item in zip(self.cases, self.first_report):
            self._fail(case.ident, check_report(case, item))
        csvs = iter(self.first_sweep)
        for case in self.cases:
            for k, (parameter, grid) in enumerate(case.sweeps):
                expected = checks.expected_sweep(*case.rates.values, parameter, grid)
                self._fail(
                    f"{case.ident}/sweep{k}",
                    checks.check_sweep_csv(next(csvs), parameter, grid, expected, case.threshold),
                )
        return _sha(*self.report_digests, *self.sweep_digests)


def check_report(case, item) -> List[str]:
    document, breakdown, verdict, profile, rounded, exact, minimal, text, svg, bars, enumerated = item
    base, hit, alarm = case.rates.values
    posterior = checks.exact_posterior(base, hit, alarm)
    joints = checks.leaf_joints(base, hit, alarm)
    problems = []
    if document.population != case.population or (document.threshold or inputs.HALF) != case.threshold:
        problems.append("parsed population or threshold differs from the document")
    if breakdown.posterior != posterior:
        problems.append(f"posterior {breakdown.posterior} != {posterior}")
    if verdict.outcome.value != checks.expected_verdict(posterior, case.threshold):
        problems.append(f"verdict {verdict.outcome.value} is wrong")
    wrong = 1 - posterior if checks.exceeds(posterior, case.threshold) else posterior
    if profile.wrong_verdict_probability != wrong:
        problems.append(f"wrong-verdict probability {profile.wrong_verdict_probability} != {wrong}")
    problems += checks.check_tree(_tree_counts(rounded), case.population, joints, exact=False)
    problems += checks.check_tree(_tree_counts(exact), case.population, joints, exact=True)
    integral = all((case.population * j).denominator == 1 for j in joints)
    if rounded.counts_exact != integral:
        problems.append(f"counts_exact is {rounded.counts_exact}, expected {integral}")
    if minimal != checks.min_integral_population(base, hit, alarm, inputs.POPULATION_CAP):
        problems.append(f"minimal integral population {minimal} is wrong")
    if checks.parse_tree_text(text) != _tree_counts(rounded):
        problems.append("text tree does not show the tree's counts")
    problems += checks.check_svg(svg) + checks.check_svg(bars)
    if enumerated is not None and enumerated != posterior:
        problems.append(f"enumerated posterior {enumerated} != {posterior}")
    return problems


# --- oracle-check ---------------------------------------------------------------------


class OracleCheck(Workload):
    """Seeded Monte Carlo in the call shape of acceptance criterion 6, at 10^6 and 10^4 samples."""

    name = "oracle-check"
    BIG = 10**6
    SMALL = 10**4
    SMALL_PER_STEP = 8
    SCALAR_CHECKS = 3

    def setup(self) -> None:
        self.m = _modules("core", "freqtree", "oracle")
        core, _, oracle = self.m
        self.cases = inputs.oracle_cases(self.seed)
        self.scenarios = [core.Scenario(*case.rates) for case in self.cases]
        self.big_seed = self.seed << 24
        self.small_seed = (self.seed << 24) + (1 << 23)
        self.big_done = self.small_done = 0
        self.first: List[tuple] = []  # (label, seed, samples, conditioned, hits) of the digested calls
        self.scalar: List[tuple] = []  # small calls to recompute with the scalar generator
        self.drawn = self.conditioned = 0
        oracle.monte_carlo_posterior(self.scenarios[0], self.BIG, seed=self.big_seed - 1)
        for k in range(4):
            oracle.monte_carlo_posterior(self.scenarios[k], self.SMALL, seed=self.small_seed - 1 - k)

    def enough(self) -> bool:
        return self.big_done >= 2 * len(self.cases)

    def _record(self, case, seed, result) -> Tuple[int, List[str]]:
        conditioned = result.samples_conditioned
        hits = result.estimate * conditioned
        self.drawn += result.samples_total
        self.conditioned += conditioned
        problems = []
        if hits.denominator != 1 or not 0 <= hits <= conditioned <= result.samples_total:
            problems.append(f"inconsistent counts {hits}/{conditioned}/{result.samples_total}")
        if len(self.first) < 2 * len(self.cases) * (1 + self.SMALL_PER_STEP):
            self.first.append((case.ident, seed, result.samples_total, conditioned, int(hits)))
        return int(hits), problems

    def step(self, tracer) -> None:
        core, freqtree, oracle = self.m
        traced = tracer is not None
        k = self.big_done
        index = k % len(self.cases)
        case, scenario = self.cases[index], self.scenarios[index]
        seed = self.big_seed + k
        if traced:
            tracer.request = f"mc{k}"
        with tracer.instrumented() if traced else contextlib.nullcontext():
            exact = core.compute_posterior(scenario).posterior
            population = freqtree.minimal_integral_population(scenario, 1000)
            enumerated = oracle.enumerate_posterior(scenario, population) if population else case.posterior
            self._ref("numpy", numpy_reference())
            self._ref("python", python_reference())
            start = perf_counter()
            result = oracle.monte_carlo_posterior(scenario, self.BIG, seed=seed)
            self._add(self.primary, traced, "numpy", (perf_counter() - start) * 1e3)
            small = []
            for _ in range(self.SMALL_PER_STEP):
                j = self.small_done
                small_index = j % len(self.cases)
                small_seed = self.small_seed + j
                start = perf_counter()
                small_result = oracle.monte_carlo_posterior(self.scenarios[small_index], self.SMALL, seed=small_seed)
                self._add(self.secondary, traced, "python", (perf_counter() - start) * 1e3)
                small.append((self.cases[small_index], small_seed, small_result))
                self.small_done += 1
        self.big_done += 1
        self.attempted += 1 + len(small)
        _, problems = self._record(case, seed, result)
        if exact != case.posterior or enumerated != case.posterior:
            problems.append(f"exact {exact} or enumerated {enumerated} != {case.posterior}")
        if not checks.within_se(result.estimate, result.standard_error, case.posterior):
            problems.append(f"estimate {float(result.estimate)} is more than 5 SE from {float(case.posterior)}")
        self._fail(f"{case.ident}@{seed}", problems)
        for small_case, small_seed, small_result in small:
            hits, problems = self._record(small_case, small_seed, small_result)
            if len(self.scalar) < self.SCALAR_CHECKS:
                self.scalar.append((small_case, small_seed, small_result.samples_conditioned, hits))
            self._fail(f"{small_case.ident}@{small_seed}", problems)

    def e2e(self, traced: bool) -> Tuple[float, float]:
        """A 10^6-sample call in NumPy reference loops; a 10^4-sample call in Python reference loops."""
        return self._relative(self.primary[traced], "numpy"), self._relative(self.secondary[traced], "python")

    def samples(self) -> Dict[str, Tuple[List[float], str, int]]:
        return {
            "mc_msamples_per_s": ([self.BIG / 1e3 / ms for ms in self._raw(self.primary[False])], "10^6/s", 50),
            "mc_small_call_p50_us": ([ms * 1e3 for ms in self._raw(self.secondary[False])], "us", 50),
        }

    def counters(self) -> Dict[str, float]:
        return {"oracle.conditioned_ratio": self.conditioned / self.drawn}

    def finish(self) -> str:
        for case, seed, conditioned, hits in self.scalar:
            want = checks.mc_counts(*case.rates, self.SMALL, seed)
            if (conditioned, hits) != want:
                self._fail(f"{case.ident}@{seed}", [f"counts {(conditioned, hits)} != scalar SplitMix64 {want}"])
        return _sha(repr(self.first))


WORKLOADS = {cls.name: cls for cls in (CliOneshot, ExactBatch, OracleCheck)}

PROBE_SPAWNS = 5
PROBE_SCENARIOS = 20
PROBE_MC_STEPS = 2


def layer_probe(seed: int, root: Path, tracer) -> Tuple[Dict[str, float], int, List[Tuple[str, str]]]:
    """A short traced pass through all seven layers, run after the timed loop of a traced run.

    It spawns bare interpreters and `import proofcalc` (the floor under
    every process and every set-up), runs the cli-oneshot request mix
    in-process through `proofcalc.cli.main`, and makes a reduced
    exact-batch pass and two oracle-check steps. Returns its counters,
    the number of operations it made and the problems its checks found.
    """
    (cli,) = _modules("cli")
    probe_dir = root / "bench" / "out" / f"work-probe-{os.getpid()}"
    probe_dir.mkdir(parents=True, exist_ok=True)
    env = src_env(root)
    counters: Dict[str, float] = {"cli.exit2": 0, "cli.exit3": 0}
    problems: List[Tuple[str, str]] = []
    exact, mc = ExactBatch(seed, root), OracleCheck(seed, root)
    cwd = os.getcwd()
    try:
        for _ in range(PROBE_SPAWNS):
            with tracer.span("cli", "interpreter"):
                spawn([sys.executable, "-c", "pass"], probe_dir, env)
            with tracer.span("cli", "import"):
                spawn([sys.executable, "-c", "import proofcalc"], probe_dir, env)
        requests, files = inputs.cli_requests(seed)
        for name, text in files.items():
            (probe_dir / name).write_text(text, encoding="utf-8")
        os.chdir(probe_dir)
        with tracer.instrumented():
            for request in requests:
                tracer.request = request.ident
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(list(request.argv))
                    except SystemExit as exc:
                        code = exc.code
                key = f"cli.exit{code}"
                if key in counters:
                    counters[key] += 1
                if code != request.expect:
                    problems.append((f"probe/{request.ident}", f"exit code {code}, expected {request.expect}"))
        os.chdir(cwd)
        exact.setup(PROBE_SCENARIOS)
        exact.step(tracer)
        exact.finish()
        counters.update(exact.counters())
        mc.setup()
        for _ in range(PROBE_MC_STEPS):
            mc.step(tracer)
        mc.finish()
        counters.update(mc.counters())
    finally:
        os.chdir(cwd)
        shutil.rmtree(probe_dir, ignore_errors=True)
        exact.close()
        mc.close()
    problems += [(f"probe/{ident}", problem) for ident, problem in exact.problems + mc.problems]
    return counters, len(requests) + exact.attempted + mc.attempted, problems
