"""The names the benchmark's tracer wraps: each must exist, and a CLI request must call the hot ones through them.

`bench/spans.py` swaps each name in its TRACED table for a recording wrapper in every proofcalc module that
holds it. A name that is gone, or that the program stops calling through its module global, leaves that
layer's figure NaN, and a traced benchmark run reports itself incorrect although every output is right.
So these names are an API of the program until ROADMAP direction 3 gives the tracer another way in.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from proofcalc import cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
#: The names each traced request must reach; each gives a per-layer figure of the benchmark.
HOT_NAMES = ("parse_rate", "format_sig", "Scenario", "compute_posterior", "decide")
RATES = ["--base-rate", "0.4", "--hit-rate", "0.8", "--false-alarm-rate", "0.1"]


@pytest.fixture(scope="module")
def spans():
    """bench/spans.py, loaded by path: the tests import nothing else from the benchmark."""
    spec = importlib.util.spec_from_file_location("proofcalc_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer(spans):
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"proofcalc.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), (
                f"bench/spans.py traces proofcalc.{layer}.{name}, which is gone; keep the name, "
                "or move the benchmark off it first (ROADMAP direction 3)"
            )


def test_traced_cli_requests_record_a_span_for_each_hot_name(spans, tmp_path):
    tracer = spans.Tracer()
    with tracer.instrumented():
        assert cli.main(["posterior", *RATES]) == 0
        assert cli.main(["verdict", *RATES]) == 0
        argv = ["sweep", *RATES, "--param", "base_rate", "--from", "0.1", "--to", "0.8", "--steps", "3"]
        assert cli.main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    recorded = {record[spans.NAME] for record in tracer.spans}
    assert len(tracer.durations_us("main")) == 3
    for name in HOT_NAMES:
        assert name in recorded, (
            f"no span for {name}: a request no longer calls it through its module global, so its traced "
            "benchmark figure reads NaN; call it so, or move the benchmark off it first (ROADMAP direction 3)"
        )
