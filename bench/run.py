"""qimpute benchmark: one workload per process, checked outputs, one JSON line.

Run from the repository root:

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics with tracing off.
A run repeats the workload's list of ops in rounds, each round on the
same inputs, and times every op; an op's latency is its fastest time
over the rounds.
``--trace 1`` is the separate traced run: it runs rounds untraced for
half of ``--seconds``, then as many rounds again with span tracing at
every qimpute layer boundary, and reports the per-module metrics plus
the tracing overhead.  Metric names and units come from
BENCHMARK.json at the repository root; bench/README.md explains each
workload and which module metric should move which end-to-end metric.

The last line of standard output is the result object; the lines before
it repeat each metric with its unit, the extra figures that only some
workloads have, and the environment.  Results and span traces are also
written under .bench_out/ in the repository root.  The exit code is 0
only when every op ran and passed its output check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import (  # noqa: E402
    UNATTRIBUTED_ALLOWANCE, Tracer, check_ops, layer_metrics, unattributed_shares,
)
from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_PROBES = 7
OUT_DIR = ROOT / ".bench_out"


def import_qimpute():
    """Import the package from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qimpute

    if Path(qimpute.__file__).resolve().parent != src / "qimpute":
        raise ImportError(f"qimpute imported from {qimpute.__file__}, not from {src}")
    return qimpute


def benchmark_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(workload: str, seed: int) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads_var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                        if os.environ.get(v)), None)
    blas_threads = int(os.environ[threads_var]) if threads_var else nproc
    # getconf asks the C library, which reads the sizes from the CPU itself.
    getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30)
    caches = {}
    for line in getconf.stdout.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key.lower()] = int(value)
    if (ROOT / ".git").exists():
        described = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30,
        )
        git = described.stdout.strip() or "unavailable"
    else:
        git = "unavailable (not a git checkout)"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(blas_threads, nproc),
        "blas_threads_from": threads_var or "default (all cores)",
        "nproc": nproc,
        "cache_bytes": caches,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
        "git_describe": git,
        "load": "one process per workload, closed loop, one op at a time",
    }


@dataclass
class RunStats:
    rounds: list = field(default_factory=list)  # one list of op latencies per round
    distances: list = field(default_factory=list)  # optimized distances of the first round
    failed: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(latencies) for latencies in self.rounds)

    def typical(self) -> list:
        """Each op's fastest latency over the rounds.

        Host interference only ever adds time, so the minimum is the
        estimate of an op's cost that it disturbs least.
        """
        return [min(samples) for samples in zip(*self.rounds)]


def report_failure(label: str, messages: list) -> None:
    for message in messages:
        print(f"FAILED {label}: {message}", file=sys.stderr)


def run_rounds(wl, q, state, seed: int, budget_s: float | None, n_rounds: int | None = None,
               tracer: Tracer | None = None) -> RunStats:
    """Repeat the workload's ops: ``n_rounds`` times, or while rounds fit in ``budget_s``.

    Every round runs the same ops on the same inputs.  The host this was
    built on slows all work by up to 1.9x for seconds at a time, so each
    op's fastest time over several rounds is a steadier estimate of its
    cost than one pass over more inputs.  Each op is timed alone; its output
    check runs after the timer stops and outside any span.
    """
    stats = RunStats()
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        latencies = []
        for op in wl.ops(q, state, seed):
            span = tracer.root("op") if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    outcome = op.run()
            except Exception:
                latencies.append(time.perf_counter() - t0)
                stats.failed += 1
                report_failure(op.label, [traceback.format_exc()])
                continue
            latencies.append(time.perf_counter() - t0)
            try:
                errors = op.check(outcome)
            except Exception:
                errors = [traceback.format_exc()]
            if errors:
                stats.failed += 1
                report_failure(op.label, errors)
            elif not stats.rounds:
                stats.distances.extend(outcome.get("distances", ()))
        stats.rounds.append(latencies)
        if n_rounds is not None:
            if len(stats.rounds) >= n_rounds:
                return stats
            continue
        now = time.perf_counter()
        if (now - started) + (now - round_started) > budget_s:
            return stats


def setup_once(q, wl, seed: int):
    """Build the workload's inputs and complete one warm-up op."""
    state = wl.setup(q, seed)
    op = wl.warmup(q, state, seed)
    errors = op.check(op.run())
    if errors:
        raise RuntimeError(f"warm-up op failed: {errors}")
    return state


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time import + inputs + one warm-up op; print seconds."""
    started = time.perf_counter()
    q = import_qimpute()
    wl = make_workload(workload, OUT_DIR / "work" / f"{workload}-probe-{os.getpid()}")
    try:
        setup_once(q, wl, seed)
        print(repr(time.perf_counter() - started))
    finally:
        getattr(wl, "cleanup", lambda: None)()


def measure_setup(workload: str, seed: int) -> list:
    """Set-up time in fresh processes, so that the import is paid each time."""
    times = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(q, wl, workload: str, seed: int, seconds: float):
    setup_times = measure_setup(workload, seed)
    state = setup_once(q, wl, seed)
    stats = run_rounds(wl, q, state, seed, seconds)
    typical = stats.typical()
    metrics = {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {"failed_frac": (stats.failed / stats.attempted, "frac"),
              "ops": (stats.attempted, "count"), "rounds": (len(stats.rounds), "count")}
    # The 90th percentile of every timed op, reported only with at least
    # ten samples beyond it.
    if stats.attempted >= 100:
        every = [1e3 * t for latencies in stats.rounds for t in latencies]
        extras["op_p90_ms"] = (statistics.quantiles(every, n=10)[8], "ms")
    if stats.distances:
        extras["mean_distance"] = (statistics.fmean(stats.distances), "distance")
    labels = [op.label for op in wl.ops(q, state, seed)]
    details = {"setup_probe_s": setup_times, "op_s": dict(zip(labels, typical))}
    return stats, metrics, extras, details


def traced(q, wl, workload: str, seed: int, seconds: float):
    state = setup_once(q, wl, seed)
    plain = run_rounds(wl, q, state, seed, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            state = setup_once(q, wl, seed)
        spans = run_rounds(wl, q, state, seed, None, n_rounds=len(plain.rounds), tracer=tracer)
    finally:
        tracer.uninstall()
    self_s = tracer.self_times()
    metrics = layer_metrics(tracer, self_s)
    overhead = sum(spans.typical()) / sum(plain.typical()) - 1.0
    shares = unattributed_shares(tracer, self_s)
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.unattributed_frac"] = max(shares)
    errors = check_ops(shares, UNATTRIBUTED_ALLOWANCE)
    if errors:
        raise SystemExit("trace self-check failed:\n" + "\n".join(errors))
    traces = OUT_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{workload}-seed{seed}.csv"
    tracer.write_csv(trace_path, self_s)
    stats = RunStats(plain.rounds + spans.rounds, plain.distances + spans.distances,
                     plain.failed + spans.failed)
    extras = {"spans": (len(self_s), "count"), "ops": (stats.attempted, "count")}
    details = {"trace_csv": str(trace_path.relative_to(ROOT)),
               "computed_not_measured": ["ansatz.sign_entries", "ansatz.entries_per_s",
                                         "analysis.sample_entries"]}
    return stats, metrics, extras, details


def run_one(args) -> int:
    expected = benchmark_metrics(bool(args.trace))
    q = import_qimpute()
    env = environment(args.workload, args.seed)
    wl = make_workload(args.workload, OUT_DIR / "work" / f"{args.workload}-{os.getpid()}")
    measure = traced if args.trace else end_to_end
    try:
        stats, metrics, extras, details = measure(q, wl, args.workload, args.seed, args.seconds)
    finally:
        getattr(wl, "cleanup", lambda: None)()
    if set(metrics) != set(expected):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}"
        )
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in expected.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    for name, (value, unit) in extras.items():
        print(f"extra {name} {value!r} {unit}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in expected.items()},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, env=env, extras={k: v[0] for k, v in extras.items()}, details=details)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; print a per-workload summary."""
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(child.stderr)
        for line in child.stdout.splitlines()[:-1]:
            if line.startswith(("metric ", "extra ")):
                print(f"{workload} {line}")
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
