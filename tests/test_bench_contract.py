"""The benchmark's traced run relies on qimpute's module bindings.

``bench/tracing.py`` wraps the functions it lists at every qimpute module
attribute that binds them; a renamed function or a call that bypasses the
module binding would make the traced run fail or read 0.  These tests
import the tracer as it is and run one small fit under it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qimpute.harness
from qimpute.harness import ExperimentConfig

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_is_bound(tracing):
    for layer, functions in tracing.LAYERS.items():
        module = importlib.import_module(f"qimpute.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"qimpute.{layer}.{name}"


def test_traced_fit_reports_sign_map_times(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            qimpute.harness.run_experiment(
                ExperimentConfig("fit", n_min=3, n_max=3, out_dir=str(tmp_path)))
    finally:
        tracer.uninstall()
    self_s = tracer.self_times()
    metrics = tracing.layer_metrics(tracer, self_s)
    assert metrics["ansatz.fwd_us.linear.3"] > 0
    assert metrics["ansatz.adj_us.linear.3"] > 0
    # The optimizer's own evaluations go through the traced forward map.
    assert metrics["optimize.evals_per_fit"] > 0
    shares = tracing.unattributed_shares(tracer, self_s)
    assert tracing.check_ops(shares, tracing.UNATTRIBUTED_ALLOWANCE) == []
