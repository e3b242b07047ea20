"""The benchmark's traced run relies on qimpute's module bindings.

``bench/tracing.py`` wraps the functions it lists at every qimpute module
attribute that binds them; a renamed function or a call that bypasses the
module binding would make the traced run fail or read 0.  These tests
import the tracer as it is and run one small fit under it.  They also
load ``bench/workloads.py`` as it is and run its output checks on the
workload seeds whose near-exact fits exposed a cancelling distance.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import qimpute
import qimpute.harness
from qimpute.harness import ExperimentConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_layer_name_is_bound(tracing):
    for layer, functions in tracing.LAYERS.items():
        module = importlib.import_module(f"qimpute.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"qimpute.{layer}.{name}"


def _chain(node):
    """Dotted path of an attribute chain rooted at the name ``q``, else None."""
    if isinstance(node, ast.Name):
        return [] if node.id == "q" else None
    if isinstance(node, ast.Attribute):
        head = _chain(node.value)
        return None if head is None else head + [node.attr]
    return None


def test_every_workload_api_name_resolves():
    # The workloads reach qimpute only through the module object ``q``, so
    # an attribute path removed from the package would fail only at run time.
    tree = ast.parse((BENCH_DIR / "workloads.py").read_text())
    paths = {tuple(path) for node in ast.walk(tree) if (path := _chain(node))}
    assert ("mean_entropy",) in paths
    for path in sorted(paths):
        obj = qimpute
        for attr in path:
            assert hasattr(obj, attr), "qimpute." + ".".join(path)
            obj = getattr(obj, attr)


def test_traced_fit_reports_sign_map_times(tracing, tmp_path):
    # The config's checks run in no layer span, so they stay outside the op.
    config = ExperimentConfig("fit", n_min=3, n_max=3, out_dir=str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            qimpute.harness.run_experiment(config)
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


@pytest.mark.parametrize("seed", [39, 69])
def test_generalize_checks_pass_on_near_exact_fits(workloads, tmp_path, seed):
    # These seeds fit rows to within 1e-9, where a distance computed as
    # sqrt(1 - overlap) read 0 beneath a nonzero seen Hellinger distance.
    experiment_seed = workloads.derive(seed, "experiments", "seed", "generalize")
    op = workloads.ExperimentsWorkload(tmp_path).op(qimpute, "generalize", experiment_seed)
    assert op.check(op.run()) == []
