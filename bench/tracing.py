"""Span tracing at qimpute's layer boundaries, for the traced run only.

``Tracer.install`` replaces each traced layer function by a wrapper at
every name a qimpute module binds it under (``qimpute.optimize.effective_angles``,
``qimpute.analysis.sign_matrix``, ``qimpute.harness.minimize``, the package
re-exports, ...), so calls between layers are recorded without touching
the package's source.  Spans are kept in flat in-memory arrays while the
run lasts and written out as CSV when it ends.

A span is recorded only inside a root span (one op, or the traced
set-up), so the output checks that run between ops stay untraced.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from time import perf_counter

# Layer (qimpute module) -> traced public functions of that module.
LAYERS = {
    "ansatz": ("effective_angles", "project_signs", "sign_matrix", "flip_bits", "conditional_output"),
    "optimize": ("minimize", "objective", "gradient", "solve_exponential"),
    "analysis": ("gradient_statistics", "mean_entropy", "fit_entropy_curve"),
    "targets": ("gaussian_target", "majority_target", "random_target", "mask_fraction",
                "target_angles", "load_target_csv", "save_target_csv"),
    "metrics": ("hellinger", "state_distance", "worst_case_bound", "restricted_distance"),
    "oracle": ("gate_level_oracle",),
    "harness": ("run_experiment", "run_validate"),
    "cli": ("main",),
}

# Families and widths experiments' fits run; per-call forward and adjoint
# times are reported for each.
FIT_SHAPES = tuple(("linear", n) for n in range(2, 11)) + tuple(("quadratic", n) for n in range(2, 9))

# Largest share of one op's time allowed outside every layer span.
UNATTRIBUTED_ALLOWANCE = 0.05


def _ansatz_work(args, kwargs, result):
    ansatz = args[0] if args else kwargs["ansatz"]
    n_states = 1 << ansatz.n_inputs
    return (ansatz.kind, ansatz.n_inputs, ansatz.param_count * n_states)


def _sample_work(args, kwargs, result):
    # Both statistics return a dataclass carrying n_inputs and sample_count.
    return result.sample_count << result.n_inputs


def _fit_outcome(args, kwargs, result):
    return (result.iterations_used, result.converged)


def _experiment_output(args, kwargs, result):
    return (len(result.rows), result.csv_path.stat().st_size)


# Extra facts recorded per span, computed from the call's arguments and result.
_ANNOTATORS = {
    "ansatz.effective_angles": _ansatz_work,
    "ansatz.project_signs": _ansatz_work,
    "analysis.gradient_statistics": _sample_work,
    "analysis.mean_entropy": _sample_work,
    "optimize.minimize": _fit_outcome,
    "harness.run_experiment": _experiment_output,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span (one op, or the traced set-up) around a block."""
        span = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        annotate = _ANNOTATORS.get(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                self.extra[span] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every qimpute module binding it."""
        wrappers = {}
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"qimpute.{layer}")
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn_name}"))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qimpute" or key.startswith("qimpute.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        return [self.end[s] - self.start[s] - child[s] for s in range(len(self.start))]

    def write_csv(self, path, self_s: list[float]) -> None:
        """One row per span; ``op`` is the id of its root span (its op)."""
        root_of = []
        with open(path, "w") as handle:
            handle.write("span,name,parent,op,start_s,end_s,self_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for s in range(len(self.start)):
                parent = self.parent[s]
                root_of.append(s if parent < 0 else root_of[parent])
                handle.write(
                    f"{s},{self.names[self.name_of[s]]},{parent},{root_of[s]},"
                    f"{self.start[s] - t0!r},{self.end[s] - t0!r},{self_s[s]!r}\n"
                )


def layer_metrics(tracer: Tracer, self_s: list[float]) -> dict:
    """Per-module metrics from the recorded spans; see bench/README.md."""
    names = tracer.names
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    fwd: dict[tuple, list] = {}
    adj: dict[tuple, list] = {}
    sign_entries = 0
    sample_entries = 0
    under_minimize = [False] * len(self_s)
    evals_under_minimize = 0
    winning_iterations = 0
    converged = 0
    rows = 0
    csv_bytes = 0
    for span, s in enumerate(self_s):
        name = names[tracer.name_of[span]]
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + s
        parent = tracer.parent[span]
        under_minimize[span] = name == "optimize.minimize" or (parent >= 0 and under_minimize[parent])
        extra = tracer.extra.get(span)
        if name in ("ansatz.effective_angles", "ansatz.project_signs"):
            kind, n, entries = extra
            sign_entries += entries
            cell = (fwd if name == "ansatz.effective_angles" else adj).setdefault((kind, n), [0, 0.0])
            cell[0] += 1
            cell[1] += s
            if name == "ansatz.effective_angles" and under_minimize[span]:
                evals_under_minimize += 1
        elif name in ("analysis.gradient_statistics", "analysis.mean_entropy"):
            sample_entries += extra
        elif name == "optimize.minimize":
            winning_iterations += extra[0]
            converged += int(extra[1])
        elif name == "harness.run_experiment":
            rows += extra[0]
            csv_bytes += extra[1]

    def module_self(layer: str) -> float:
        return sum((v for k, v in self_total.items() if k.startswith(layer + ".")), 0.0)

    fits = calls.get("optimize.minimize", 0)
    sign_time = self_total.get("ansatz.effective_angles", 0.0) + self_total.get("ansatz.project_signs", 0.0)
    out = {}
    for fn in ("effective_angles", "project_signs", "sign_matrix", "flip_bits"):
        out[f"ansatz.{fn}.calls"] = calls.get(f"ansatz.{fn}", 0)
        out[f"ansatz.{fn}.self_s"] = self_total.get(f"ansatz.{fn}", 0.0)
    out["ansatz.conditional_output.self_s"] = self_total.get("ansatz.conditional_output", 0.0)
    out["ansatz.sign_entries"] = sign_entries
    out["ansatz.entries_per_s"] = sign_entries / sign_time if sign_time > 0 else 0.0
    for kind, n in FIT_SHAPES:
        for label, table in (("fwd", fwd), ("adj", adj)):
            count, total = table.get((kind, n), (0, 0.0))
            out[f"ansatz.{label}_us.{kind}.{n}"] = 1e6 * total / count if count else 0.0
    out["optimize.minimize.calls"] = fits
    out["optimize.minimize.self_s"] = self_total.get("optimize.minimize", 0.0)
    out["optimize.evals_per_fit"] = evals_under_minimize / fits if fits else 0.0
    out["optimize.iterations_per_fit"] = winning_iterations / fits if fits else 0.0
    out["optimize.converged_frac"] = converged / fits if fits else 0.0
    out["optimize.winning_iters_per_eval"] = (
        winning_iterations / evals_under_minimize if evals_under_minimize else 0.0
    )
    for fn in ("solve_exponential", "objective", "gradient"):
        out[f"optimize.{fn}.self_s"] = self_total.get(f"optimize.{fn}", 0.0)
    for fn in ("gradient_statistics", "mean_entropy"):
        out[f"analysis.{fn}.calls"] = calls.get(f"analysis.{fn}", 0)
        out[f"analysis.{fn}.self_s"] = self_total.get(f"analysis.{fn}", 0.0)
    out["analysis.sample_entries"] = sample_entries
    out["analysis.fit_entropy_curve.self_s"] = self_total.get("analysis.fit_entropy_curve", 0.0)
    out["targets.self_s"] = module_self("targets")
    out["metrics.self_s"] = module_self("metrics")
    out["oracle.gate_level_oracle.calls"] = calls.get("oracle.gate_level_oracle", 0)
    out["oracle.gate_level_oracle.self_s"] = self_total.get("oracle.gate_level_oracle", 0.0)
    out["harness.run_experiment.self_s"] = self_total.get("harness.run_experiment", 0.0)
    out["harness.run_validate.self_s"] = self_total.get("harness.run_validate", 0.0)
    out["harness.rows"] = rows
    out["harness.csv_bytes"] = csv_bytes
    out["cli.main.self_s"] = self_total.get("cli.main", 0.0)
    return out


def unattributed_shares(tracer: Tracer, self_s: list[float]) -> list[float]:
    """Each op's share of its time that no layer span covers.

    An op is a root span named "op"; its self time is the benchmark's own
    glue around the call plus the outermost wrapper's bookkeeping.
    """
    op_name = tracer.name_ids.get("op")
    return [
        self_s[span] / (tracer.end[span] - tracer.start[span])
        for span in range(len(self_s))
        if tracer.parent[span] < 0 and tracer.name_of[span] == op_name
    ]


def check_ops(shares: list[float], allowance: float) -> list[str]:
    """Self-check: every op's child spans cover all but ``allowance`` of it."""
    return [
        f"op {index}: {share:.4f} of its time is outside every layer span "
        f"(allowed {allowance})"
        for index, share in enumerate(shares)
        if share > allowance
    ]
