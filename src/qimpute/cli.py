"""Command-line front end.

One subcommand per experiment.  Values resolve in three layers: built-in
subcommand defaults, then a JSON config file (--config), then explicit
flags, with later layers winning; a config file may name no other
experiment than the subcommand's.  One table, ``_FLAGS``, declares every
flag with the config field it sets, and each subcommand accepts only the
flags of the fields its experiment reads (``harness.fields_read``).  Exit
codes: 0 on success, 1 when the validation suite fails, 2 on
configuration and usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    fields_read,
    run_experiment,
    run_validate,
)

__all__ = ["main"]

_DEFAULTS: dict[str, dict] = {
    "fit": {"ansatz": ["linear"], "n_min": 3, "n_max": 3, "target": "gaussian"},
    "sweep": {"ansatz": ["linear", "quadratic"], "n_min": 2, "n_max": 8, "target": "majority"},
    "generalize": {
        "ansatz": ["linear"], "n_min": 6, "n_max": 10, "target": "gaussian",
        "fractions": [0.1, 0.3, 0.5, 0.7],
    },
    "majority_ratios": {
        "ansatz": ["quadratic"], "n_min": 4, "n_max": 4, "target": "majority", "fraction": 0.7,
    },
    "bp_stats": {"ansatz": ["linear"], "n_min": 4, "n_max": 10, "target": "gaussian"},
    "entropy": {"ansatz": ["linear"], "n_min": 3, "n_max": 9},
    "validate": {},
}

# Long-running reproduction scale for the random-target sweep.
_FULL_SCALE = {"n_min": 2, "n_max": 16, "seeds": list(range(1, 101)), "target": "random"}


def _comma_list(item_type):
    def parse(text: str) -> list:
        return [item_type(item.strip()) for item in text.split(",") if item.strip()]

    parse.__name__ = f"comma-separated {item_type.__name__}"
    return parse


# flag -> (config field, value type, help).  A subcommand takes a flag when
# its experiment reads the field; --seed and --n are the one-value forms
# of --seeds and --n-min/--n-max.  --config (every subcommand) and
# --full-scale (sweep) set several fields and name none.  A bool type
# makes a switch.
_FLAGS = {
    "--config": (None, str, "JSON config file; flags override its values"),
    "--out": ("out_dir", str, "output directory (default $QIMPUTE_OUT_DIR or ./results)"),
    "--seed": ("seeds", int, "single experiment seed"),
    "--seeds": ("seeds", _comma_list(int), "comma-separated seed list"),
    "--ansatz": ("ansatz", _comma_list(str), "comma-separated ansatz kinds"),
    "--n": ("n_min", int, "single input width"),
    "--n-min": ("n_min", int, "smallest input width"),
    "--n-max": ("n_max", int, "largest input width"),
    "--target": ("target", str, "gaussian, majority, random or csv"),
    "--csv": ("target_csv", str, "target CSV path (implies --target csv)"),
    "--center": ("center", float, "gaussian target center override"),
    "--sigma": ("sigma", float, "gaussian target width override"),
    "--fraction": ("fraction", float, "masked fraction of inputs"),
    "--fractions": ("fractions", _comma_list(float), "comma-separated mask fractions"),
    "--samples": ("samples", int, "Monte Carlo sample count"),
    "--outcomes": ("outcomes", int, "sampled outcome count"),
    "--m-sweep-n": ("m_sweep_n", int, "also sweep gate count at this fixed width"),
    "--full-scale": (None, bool, "long-running full reproduction scale"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimpute",
        description="Simulate, optimize and analyze parity-phase imputation circuits.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _DEFAULTS:
        cmd = sub.add_parser(name.replace("_", "-"), help=f"run the {name} experiment")
        cmd.set_defaults(experiment=name)
        takes = fields_read(name)
        for flag, (field, kind, text) in _FLAGS.items():
            if field in takes or flag == "--config" or (flag, name) == ("--full-scale", "sweep"):
                parse = {"action": "store_true"} if kind is bool else {"type": kind}
                cmd.add_argument(flag, help=text, **parse)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = vars(args)
    data = dict(_DEFAULTS[args.experiment])
    data["experiment"] = args.experiment
    if flags.get("config"):
        try:
            with open(args.config) as handle:
                file_data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        if file_data.get("experiment", args.experiment) != args.experiment:
            raise ConfigError(f"config {args.config} is for experiment "
                              f"{file_data['experiment']!r}, not {args.experiment!r}")
        data.update(file_data)

    if flags.get("full_scale"):
        data.update(_FULL_SCALE)
    # In table order, so --seeds, --n-min and --n-max win over --seed and --n.
    for flag, (field, *_) in _FLAGS.items():
        value = flags.get(flag[2:].replace("-", "_"))
        if field is None or value is None:
            continue
        if flag == "--n":
            data["n_max"] = value
        data[field] = [value] if flag == "--seed" else value
    if flags.get("csv") is not None and flags.get("target") is None:
        data["target"] = "csv"
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if config.experiment == "validate":
            report, path = run_validate(config)
        else:
            output = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if config.experiment == "validate":
        for name, suite in report["suites"].items():
            status = "PASS" if suite["passed"] else "FAIL"
            details = {k: v for k, v in suite.items() if k != "passed"}
            print(f"{status} {name} {json.dumps(details)}")
        print(f"report written to {path}")
        return 0 if report["passed"] else 1

    print(f"{output.experiment_id}: {len(output.rows)} rows -> {output.csv_path}")
    if output.aggregates:
        print(json.dumps(output.aggregates, indent=2, sort_keys=True))
    for violation in output.bound_violations:
        print(f"warning: optimized distance exceeds capacity bound: {violation}", file=sys.stderr)
    return 0
