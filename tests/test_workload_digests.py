"""Every benchmark workload's output bytes, pinned: each digest must equal the one `bench/results/baseline.json` holds.

A workload's digest covers what its first pass wrote: exact-batch's 300 report scenarios with their sweep CSVs,
cli-oneshot's requests with their exit codes, stdout and files, and oracle-check's seeded Monte Carlo counts. The
goldens pin 23 artifacts; this pins every one the benchmark makes. A change that alters output on purpose says why
and re-records the baseline, as it would a golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
BASELINE = json.loads((BENCH / "results" / "baseline.json").read_text())["digests"]


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, loaded by path, with bench/ on sys.path for the two modules it imports."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("proofcalc_bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize(("name", "seed"), [
    *[("exact-batch", seed) for seed in (1, 2, 3)],
    *[("oracle-check", seed) for seed in (1, 2, 3)],
    ("cli-oneshot", 1),  # a fresh process a request
])
def test_a_workload_writes_its_baseline_bytes(workloads, name, seed, monkeypatch):
    if name == "oracle-check":
        pytest.importorskip("numpy")  # its steps time a NumPy reference loop between their calls
    if name == "cli-oneshot":
        # Its reference start, an interpreter importing NumPy, is only timed and is outside the digest.
        monkeypatch.setattr(workloads, "DEPENDENCY_IMPORTS", "pass")
    workload = workloads.WORKLOADS[name](seed, BENCH.parent)
    try:
        workload.setup()  # as bench/run.py runs it: set-up, steps until enough, then the checks
        while not workload.enough():
            workload.step(None)
        digest = workload.finish()
    finally:
        workload.close()
    assert workload.problems == []
    assert digest == BASELINE[f"{name}/seed{seed}"]
