import argparse
import csv
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qimpute.harness
from qimpute.ansatz import MAX_ENTRIES, Ansatz, conditional_output, statevector
from qimpute.cli import _FLAGS, _build_parser, _resolve_config, main
from qimpute.harness import (
    BOUND_SLACK,
    ConfigError,
    ExperimentConfig,
    _Run,
    _validate_oracle,
    run_bp_stats,
    run_entropy,
    run_experiment,
    run_fit,
    run_generalize,
    run_majority_ratios,
    run_sweep,
    run_validate,
)
from qimpute.optimize import EXACT_FIT_DISTANCE, minimize
from qimpute.targets import majority_target, mask_fraction, save_target_csv, gaussian_target


# (experiment, config-file values the config rejects, part of the reason):
# unknown keys, values of the wrong type, and fields the experiment does
# not read set away from their defaults.
REJECTED_CONFIGS = (
    ("fit", {"optimizer": "x"}, "unknown config keys"),
    ("entropy", {"optimizer": "x"}, "unknown config keys"),
    ("fit", {"optimizer": {"max_iterations": 2.5}}, "unknown config keys"),
    ("fit", {"n_min": 2.5, "n_max": 3}, "n_min must be int"),
    ("bp_stats", {"samples": 150.5}, "samples must be int"),
    ("majority_ratios", {"outcomes": 2.5}, "outcomes must be int"),
    ("fit", {"center": "a"}, "center must be int or float"),
    ("fit", {"seeds": [1, 2]}, "reads one seed"),
    ("sweep", {"seeds": [1, 2]}, "reads one seed"),
    ("sweep", {"fraction": 0.5}, "does not read fraction"),
    ("fit", {"target": "majority", "center": 2}, "does not read center"),
    ("bp_stats", {"target": "random", "target_csv": "t.csv"}, "does not read target_csv"),
    ("entropy", {"target": "majority"}, "does not read target"),
    ("generalize", {"fraction": 0.5}, "does not read fraction"),
    ("generalize", {"fractions": []}, "at least one mask fraction"),
    ("majority_ratios", {"target": "gaussian"}, "cannot run on target 'gaussian'"),
    ("validate", {"n_min": 2}, "does not read n_min"),
)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "fit", "bogus": 1})

    def test_scalar_fields_coerced_to_tuples(self):
        config = ExperimentConfig.from_dict(
            {"experiment": "fit", "ansatz": "linear", "seeds": 3}
        )
        assert config.ansatz == ("linear",)
        assert config.seeds == (3,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "dream"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "fit", "ansatz": ["cubic"]})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "fit", "n_min": 4, "n_max": 2})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "fit", "fraction": 1.0})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "fit", "target": "csv"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "sweep", "n_min": 9, "n_max": 99})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "bp_stats", "samples": 50})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "entropy", "samples": 10})
        for width in (0, -3, 21):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({"experiment": "bp_stats", "m_sweep_n": width})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "bp_stats", "m_sweep_n": 17})
        # Every array a config sizes stays within MAX_ENTRIES; a huge width
        # is refused before 2^N is formed.
        too_many = [{"experiment": experiment, field: count}
                    for experiment, field in (("bp_stats", "samples"), ("entropy", "samples"),
                                              ("majority_ratios", "outcomes"))
                    for count in (MAX_ENTRIES + 1, 10**12)]
        for bad in ({"experiment": "fit", "n_min": 10**9, "n_max": 10**9},
                    {"experiment": "bp_stats", "m_sweep_n": 10**9}, *too_many):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "bp_stats", "ansatz": ["quadratic"], "n_min": 17, "n_max": 17})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "entropy", "ansatz": ["linear"], "n_min": 20, "n_max": 20})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "fit", "ansatz": ["exponential"], "n_min": 13, "n_max": 13})
        # Every fit runs on a cached dense sign matrix.
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "fit", "ansatz": ["linear"], "n_min": 20, "n_max": 20})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "sweep", "ansatz": ["quadratic"], "n_min": 17, "n_max": 17})
        for experiment, bad, reason in REJECTED_CONFIGS:
            with pytest.raises(ConfigError, match=reason):
                ExperimentConfig.from_dict({"experiment": experiment, **bad})


class TestFit:
    def test_schema_and_row_counts(self, tmp_path):
        config = ExperimentConfig(
            experiment="fit", ansatz=("linear",), n_min=3, n_max=3,
            target="gaussian", seeds=(1,), out_dir=str(tmp_path),
        )
        output = run_fit(config)
        rows = read_rows(output.csv_path)
        prob_rows = [r for r in rows if r["row_type"] == "prob"]
        summary_rows = [r for r in rows if r["row_type"] == "summary"]
        assert len(prob_rows) == 16
        assert len(summary_rows) == 1
        for row in rows:
            assert row["experiment"] == "fit"
            assert row["experiment_id"] == output.experiment_id
            assert row["seed"] == "1"
            assert row["ansatz"] == "linear"
            assert row["n"] == "3" and row["m"] == "4"
        d_h = float(summary_rows[0]["d_h"])
        assert d_h <= float(summary_rows[0]["bound"]) + BOUND_SLACK
        assert not output.bound_violations
        sidecar = json.loads(output.sidecar_path.read_text())
        assert sidecar["experiment_id"] == output.experiment_id
        assert sidecar["config"]["target"] == "gaussian"
        assert sidecar["wall_time_s"] > 0

    def test_failed_write_leaves_no_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cell cannot be written")

        run = _Run(ExperimentConfig(experiment="fit", out_dir=str(tmp_path)))
        with pytest.raises(RuntimeError):
            run.write([{"value": 1}] * 1000 + [{"value": Unprintable()}])
        assert list(tmp_path.iterdir()) == []

    def test_rerun_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            experiment="fit", ansatz=("linear",), n_min=2, n_max=2,
            seeds=(5,), out_dir=str(tmp_path),
        )
        first = run_fit(config).csv_path.read_bytes()
        second = run_fit(config).csv_path.read_bytes()
        assert first == second


# One small run of every data experiment, with empty cells among them.
SMALL_RUNS = {
    "fit": {"n_min": 2, "n_max": 2, "fraction": 0.5},
    "sweep": {"ansatz": ("linear", "quadratic"), "n_min": 2, "n_max": 3, "target": "majority"},
    "generalize": {"n_min": 3, "n_max": 3, "fractions": (0.0, 0.5)},
    "majority_ratios": {"n_min": 3, "n_max": 3, "target": "majority", "fraction": 0.5,
                        "outcomes": 64},
    "bp_stats": {"n_min": 3, "n_max": 3, "samples": 100, "m_sweep_n": 3},
    "entropy": {"n_min": 3, "n_max": 3, "samples": 100},
}


@pytest.mark.parametrize("experiment", SMALL_RUNS)
def test_csv_cells_are_the_rows_as_built(tmp_path, experiment):
    # Each line is the experiment, its id, then the row's values as the
    # csv module writes them: None (or a missing key) as '', a float as
    # its repr, an int or a str as its str.  No value is a bool or a numpy
    # scalar, whose text would differ.
    config = ExperimentConfig(experiment, out_dir=str(tmp_path), **SMALL_RUNS[experiment])
    output = run_experiment(config)
    with open(output.csv_path, newline="") as handle:
        header, *lines = csv.reader(handle)
    assert header == ["experiment", "experiment_id",
                      *dict.fromkeys(key for row in output.rows for key in row)]
    assert len(lines) == len(output.rows)
    for line, row in zip(lines, output.rows):
        assert line[:2] == [experiment, output.experiment_id]
        for column, cell in zip(header[2:], line[2:], strict=True):
            value = row.get(column)
            assert type(value) in (int, float, str, type(None)), (column, type(value))
            assert cell == ("" if value is None else repr(value) if type(value) is float
                            else str(value))


class TestSweep:
    def test_majority_rows_and_aggregates(self, tmp_path):
        config = ExperimentConfig(
            experiment="sweep", ansatz=("linear", "quadratic"), n_min=2, n_max=4,
            target="majority", seeds=(1,), out_dir=str(tmp_path),
        )
        output = run_sweep(config)
        rows = read_rows(output.csv_path)
        assert len(rows) == 6
        for row in rows:
            assert float(row["d_h"]) <= float(row["bound"]) + BOUND_SLACK
        cells = output.aggregates["cells"]
        by_key = {(c["ansatz"], c["n"]): c["d_h_mean"] for c in cells}
        for n in (2, 3, 4):
            assert by_key[("quadratic", n)] <= by_key[("linear", n)] + 1e-12

    def test_random_target_repeats_per_seed(self, tmp_path):
        config = ExperimentConfig(
            experiment="sweep", ansatz=("linear",), n_min=3, n_max=3,
            target="random", seeds=(1, 2, 3), out_dir=str(tmp_path),
        )
        output = run_sweep(config)
        assert len(output.rows) == 3
        cell = output.aggregates["cells"][0]
        assert cell["n_seeds"] == 3
        assert cell["d_h_var"] >= 0


class TestGeneralize:
    def test_zero_fraction_degenerates_to_full(self, tmp_path):
        # floor(0.1 * 2^3) is 0, so fraction 0.1 at N=3 hides nothing either
        for fractions in ((0.0,), (0.0, 0.1)):
            config = ExperimentConfig(
                experiment="generalize", ansatz=("linear",), n_min=3, n_max=3,
                target="gaussian", fractions=fractions, seeds=(1,), out_dir=str(tmp_path),
            )
            rows = read_rows(run_generalize(config).csv_path)
            assert len(rows) == len(fractions)
            for row in rows:
                assert row["d_h_unseen"] == ""
                assert float(row["d_h_seen"]) == pytest.approx(float(row["d_h_full"]), abs=1e-12)

    def test_masked_columns_populated(self, tmp_path):
        config = ExperimentConfig(
            experiment="generalize", ansatz=("linear",), n_min=4, n_max=4,
            target="gaussian", fractions=(0.5,), seeds=(1,), out_dir=str(tmp_path),
        )
        row = read_rows(run_generalize(config).csv_path)[0]
        for column in ("d_h_opt", "d_h_seen", "d_h_unseen", "d_h_full"):
            assert 0.0 <= float(row[column]) <= 1.0


class TestMajorityRatios:
    def test_requires_majority_target(self):
        with pytest.raises(ConfigError):
            run_majority_ratios(
                ExperimentConfig(experiment="majority_ratios", target="gaussian")
            )

    def test_ratio_identity_and_zero_fraction(self, tmp_path):
        config = ExperimentConfig(
            experiment="majority_ratios", ansatz=("quadratic",), n_min=3, n_max=3,
            target="majority", fraction=0.0, seeds=(1,), outcomes=512,
            out_dir=str(tmp_path),
        )
        row = read_rows(run_majority_ratios(config).csv_path)[0]
        assert row["hits_unseen"] == "0"
        total = int(row["hits_seen"]) + int(row["hits_unseen"])
        assert total == int(row["hits_total"])
        assert float(row["ratio_seen"]) + float(row["ratio_unseen"]) == pytest.approx(
            float(row["ratio_total"]), abs=1e-12
        )

    def test_sampler_matches_enumeration(self, tmp_path):
        # sampled rule-hit counts, seen, unseen and in all, stay within 4
        # binomial sigmas of the hit probabilities enumerated from the
        # circuit refitted to the masked target as the run fits it
        n_outcomes = 4096
        config = ExperimentConfig(
            experiment="majority_ratios", ansatz=("quadratic",), n_min=3, n_max=3,
            target="majority", fraction=0.5, seeds=(3,), outcomes=n_outcomes,
            out_dir=str(tmp_path),
        )
        row = run_majority_ratios(config).rows[0]
        full = majority_target(3)
        masked = mask_fraction(full, 0.5, seed=3)
        ansatz = Ansatz.quadratic(3)
        out = conditional_output(ansatz, minimize(ansatz, masked).best_params)
        hit = (out ** 2 / 8).sum(axis=1, where=full.probs > 0)
        seen = masked.seen_mask
        assert 0 < row["hits_unseen"] and 0 < hit[~seen].sum() < 1
        for expected, hits in ((hit[seen].sum(), row["hits_seen"]),
                               (hit[~seen].sum(), row["hits_unseen"]),
                               (hit.sum(), row["hits_total"])):
            sigma = np.sqrt(n_outcomes * expected * (1.0 - expected))
            assert abs(hits - n_outcomes * expected) <= 4.0 * sigma
        assert row["outcomes"] == n_outcomes


class TestStatsExperiments:
    def test_bp_stats_modes(self, tmp_path):
        config = ExperimentConfig(
            experiment="bp_stats", ansatz=("linear",), n_min=4, n_max=5,
            target="gaussian", samples=200, seeds=(1,), m_sweep_n=4,
            out_dir=str(tmp_path),
        )
        rows = read_rows(run_bp_stats(config).csv_path)
        vs_n = [r for r in rows if r["mode"] == "vs_n"]
        vs_m = [r for r in rows if r["mode"] == "vs_m"]
        assert len(vs_n) == 2
        assert len(vs_m) == 4 * 3 // 2 + 1
        assert vs_m[0]["m"] == "5" and vs_m[-1]["m"] == "11"

    def test_entropy_with_fit(self, tmp_path):
        config = ExperimentConfig(
            experiment="entropy", ansatz=("linear",), n_min=3, n_max=6,
            samples=300, seeds=(1,), out_dir=str(tmp_path),
        )
        output = run_entropy(config)
        assert len(output.rows) == 4
        fit = output.aggregates["fits"]["linear"]
        assert fit["a"] == 1.2
        assert not fit["degenerate"]


class TestValidate:
    def test_oracle_suite_catches_broken_analytic_path(self):
        def broken(ansatz, params):
            tweaked = np.asarray(params, dtype=float).copy()
            tweaked[1] = -tweaked[1]
            return statevector(ansatz, tweaked)

        good = _validate_oracle(statevector, draws=2)
        bad = _validate_oracle(broken, draws=2)
        assert good["passed"]
        assert not bad["passed"]
        assert bad["max_deviation"] > 1e-10

    def test_full_report(self, tmp_path):
        config = ExperimentConfig(experiment="validate", out_dir=str(tmp_path))
        report, path = run_validate(config)
        assert report["passed"]
        assert set(report["suites"]) == {
            "oracle_equivalence", "gradient_check", "bound_compliance", "exponential_exactness",
        }
        bounds = report["suites"]["bound_compliance"]
        assert bounds["runs_checked"] == 16
        assert bounds["violations"] == bounds["unconverged"] == []
        assert json.loads(path.read_text())["passed"]


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # Runs without --out would create ./results before failing.
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--target", "csv"]) == 2
        assert "config error" in capsys.readouterr().err
        # A CSV target that holds 4 of its 8 inputs.
        half_seen = tmp_path / "half_seen.csv"
        save_target_csv(mask_fraction(gaussian_target(3), 0.5, seed=1), str(half_seen))
        bad_bits = tmp_path / "bad_bits.csv"
        bad_bits.write_text("bitstring,output_bit,weight\n01x,0,1.0\n")
        short_row = tmp_path / "short_row.csv"
        short_row.write_text("bitstring,output_bit,weight\n01,0\n")
        too_wide = tmp_path / "too_wide.csv"
        too_wide.write_text("bitstring,output_bit,weight\n" + "0" * 24 + ",0,1\n")
        config_argvs = []
        for index, (experiment, bad, _) in enumerate(REJECTED_CONFIGS):
            path = tmp_path / f"bad{index}.json"
            path.write_text(json.dumps(bad))
            config_argvs.append([experiment.replace("_", "-"), "--config", str(path)])
        # A config file may not swap the subcommand's experiment.
        other_experiment = tmp_path / "other_experiment.json"
        other_experiment.write_text(json.dumps({"experiment": "sweep"}))
        config_argvs.append(["fit", "--config", str(other_experiment)])
        # An output directory below a file cannot be created.
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        config_argvs += [["fit", "--out", str(a_file / "sub")],
                         ["validate", "--out", str(a_file / "sub")]]
        for argv in (
            ["bp-stats", "--samples", "50"],
            ["entropy", "--samples", "10"],
            ["bp-stats", "--m-sweep-n", "0"],
            ["bp-stats", "--m-sweep-n", "-3"],
            ["bp-stats", "--ansatz", "quadratic", "--n", "17"],
            ["entropy", "--ansatz", "linear", "--n", "20"],
            ["fit", "--ansatz", "linear", "--n", "20"],
            ["sweep", "--ansatz", "quadratic", "--n", "17"],
            ["fit", "--csv", str(half_seen), "--n", "3", "--fraction", "0.5", "--out", str(tmp_path)],
            ["fit", "--csv", str(half_seen), "--n", "3", "--fraction", "0.9", "--out", str(tmp_path)],
            ["fit", "--seeds", "1,2"],
            ["sweep", "--target", "majority", "--seeds", "1,2"],
            ["fit", "--target", "majority", "--center", "2"],
            ["fit", "--sigma", "0"],
            ["bp-stats", "--sigma", "0"],
            ["fit", "--sigma", "-1"],
            ["fit", "--sigma", "nan"],
            ["fit", "--center", "nan"],
            ["fit", "--csv", os.devnull],
            ["fit", "--csv", str(bad_bits)],
            ["fit", "--csv", str(short_row), "--n", "2"],
            ["fit", "--csv", str(too_wide), "--n", "2"],
            ["fit", "--n", "1000000000"],
            ["bp-stats", "--m-sweep-n", "1000000000"],
            # Counts far above the cap (TestConfig covers MAX_ENTRIES + 1), so
            # that no run could allocate them even without the check.
            ["bp-stats", "--samples", str(10**12)],
            ["entropy", "--samples", str(10**12)],
            ["majority-ratios", "--outcomes", str(10**12)],
            *config_argvs,
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["fit", "validate"])
    @pytest.mark.parametrize("way", ["flag", "env"])
    def test_unusable_output_dir_refused_before_any_work(self, experiment, way, tmp_path,
                                                         capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started work")

        monkeypatch.setattr(qimpute.harness, "minimize", no_work)
        monkeypatch.setattr(qimpute.harness, "_validate_oracle", no_work)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        argv = [experiment]
        if way == "flag":
            argv += ["--out", str(a_file / "sub")]
        else:
            monkeypatch.setenv("QIMPUTE_OUT_DIR", str(a_file / "sub"))
        assert main(argv) == 2
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["csv", "json", "validation.json"])
    def test_directory_at_output_path_refused_before_any_work(self, output, tmp_path, capsys,
                                                              monkeypatch):
        # The finished file could not be renamed onto a directory, so the
        # run must stop at once, not after all its work.
        def no_work(*args, **kwargs):
            raise AssertionError("the run started work")

        argv = ["validate" if output == "validation.json" else "fit", "--out", str(tmp_path)]
        if output == "validation.json":
            (tmp_path / output).mkdir()
        else:
            run = _Run(_resolve_config(_build_parser().parse_args(argv)))
            (tmp_path / f"{run.experiment_id}.{output}").mkdir()
        monkeypatch.setattr(qimpute.harness, "minimize", no_work)
        monkeypatch.setattr(qimpute.harness, "_validate_oracle", no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "a directory is in the way" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, code", [
        (["--sigma", "1e300"], 2), (["--sigma", "1e-300"], 2), (["--center", "1e300"], 0),
    ])
    def test_gaussian_at_float_limits(self, argv, code, tmp_path, capsys):
        assert main(["fit", *argv, "--out", str(tmp_path)]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_csv_of_another_width_refused_before_sizing(self, tmp_path, capsys):
        # A 23-bit file is under the cap, so only the run's width refuses it
        # before its (2^23, 2) conditionals are sized.
        path = tmp_path / "w23.csv"
        path.write_text("bitstring,output_bit,weight\n" + "0" * 23 + ",0,1\n")
        tracemalloc.start()
        try:
            code = main(["fit", "--csv", str(path), "--n", "2", "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "23 input bits but the run asks for 2" in capsys.readouterr().err
        assert peak < 4 << 20

    def test_subcommands_reject_flags_their_runner_ignores(self, capsys):
        for argv in (
            ["validate", "--seed", "1"],
            ["validate", "--n", "3"],
            ["entropy", "--n", "3", "--center", "1.5"],
            ["entropy", "--target", "majority"],
            ["entropy", "--fraction", "0.5"],
            ["fit", "--full-scale"],
            ["fit", "--m-sweep-n", "4"],
            ["sweep", "--outcomes", "8"],
            ["bp-stats", "--fractions", "0.5"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                _build_parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_table_sets_config_fields(self, tmp_path, capsys):
        def resolve(*argv):
            return _resolve_config(_build_parser().parse_args(list(argv)))

        target_path = tmp_path / "target.csv"
        save_target_csv(gaussian_target(2), str(target_path))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"fraction": 0.25}))
        cases = {
            "--config": (["fit", "--config", str(config_path)], "fraction", 0.25),
            "--out": (["fit", "--out", "somewhere"], "out_dir", "somewhere"),
            "--seed": (["fit", "--seed", "7"], "seeds", (7,)),
            "--seeds": (["sweep", "--target", "random", "--seeds", "3,1,2"], "seeds", (3, 1, 2)),
            "--ansatz": (["fit", "--ansatz", "linear,quadratic"], "ansatz", ("linear", "quadratic")),
            "--n": (["fit", "--n", "4"], "n_max", 4),
            "--n-min": (["sweep", "--n-min", "3"], "n_min", 3),
            "--n-max": (["sweep", "--n-max", "5"], "n_max", 5),
            "--target": (["fit", "--target", "random"], "target", "random"),
            "--csv": (["fit", "--csv", str(target_path)], "target", "csv"),
            "--center": (["fit", "--center", "1.5"], "center", 1.5),
            "--sigma": (["bp-stats", "--sigma", "0.25"], "sigma", 0.25),
            "--fraction": (["majority-ratios", "--fraction", "0.25"], "fraction", 0.25),
            "--fractions": (["generalize", "--fractions", "0.1,0.3"], "fractions", (0.1, 0.3)),
            "--samples": (["entropy", "--samples", "200"], "samples", 200),
            "--outcomes": (["majority-ratios", "--outcomes", "64"], "outcomes", 64),
            "--m-sweep-n": (["bp-stats", "--m-sweep-n", "5"], "m_sweep_n", 5),
            "--full-scale": (["sweep", "--full-scale"], "n_max", 16),
        }
        assert set(cases) == set(_FLAGS)
        for flag, (argv, field, expected) in cases.items():
            assert getattr(resolve(*argv), field) == expected, flag
        assert resolve("fit", "--n", "4").n_min == 4
        assert resolve("fit", "--csv", str(target_path)).target_csv == str(target_path)
        # Quadratic N=16 (9.0M sign entries) stays within the sign-matrix guard.
        full = resolve("sweep", "--full-scale")
        assert (full.n_min, full.target, full.seeds) == (2, "random", tuple(range(1, 101)))
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--seeds", "a,b"])
        assert exit_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_one_seed_gets_one_id(self, tmp_path, capsys):
        for index, argv in enumerate((["--seed", "1"], ["--seeds", "1"])):
            assert main(["fit", *argv, "--out", str(tmp_path / str(index))]) == 0
        first, second = (list((tmp_path / str(i)).glob("fit-*.csv")) for i in (0, 1))
        assert [path.name for path in first] == [path.name for path in second]

    @pytest.mark.parametrize("argv, file_values, flags, cells", [
        (["majority-ratios"], {"fraction": 0}, ["--fraction", "0"], ["0.0"]),
        (["generalize"], {"fractions": [0, 0.5]}, ["--fractions", "0,0.5"], ["0.0", "0.5"]),
    ], ids=["fraction", "fractions"])
    def test_int_and_float_numbers_get_one_id(self, argv, file_values, flags, cells, tmp_path,
                                              capsys):
        # A config file's 0 and a flag's 0.0 are one number: one id, one cell text.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(file_values))
        written = []
        for way, extra in (("file", ["--config", str(config_path)]), ("flag", flags)):
            out = tmp_path / way
            assert main([*argv, *extra, "--n", "3", "--out", str(out)]) == 0
            (path,) = out.glob("*.csv")
            written.append((path.name, [row["fraction"] for row in read_rows(path)]))
        assert written[0] == written[1]
        assert written[0][1] == cells

    def test_readme_memory_budget_matches_check(self):
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        (cap,) = re.findall(r"holds more than 2\^(\d+) entries", readme)
        (counts,) = re.findall(r"`--outcomes` may not exceed (\d+)", readme)
        assert 1 << int(cap) == int(counts) == MAX_ENTRIES
        (widths,) = re.findall(r"first refused widths are linear N=(\d+), "
                               r"quadratic N=(\d+) and exponential N=(\d+)", readme)
        for kind, n in zip(("linear", "quadratic", "exponential"), map(int, widths)):
            ExperimentConfig("fit", ansatz=(kind,), n_min=n - 1, n_max=n - 1)
            with pytest.raises(ConfigError):
                ExperimentConfig("fit", ansatz=(kind,), n_min=n, n_max=n)

    def test_readme_flag_table_matches_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = {
            name: [] if flags == "none" else flags.strip("`").split()
            for name, flags in re.findall(r"^\| `([a-z-]+)` \| (.+?) \|$", readme, re.MULTILINE)
        }
        parser = _build_parser()
        (subcommands,) = (action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        accepted = {
            name: [flag for action in cmd._actions for flag in action.option_strings
                   if flag not in ("-h", "--help", "--config", "--out")]
            for name, cmd in subcommands.choices.items()
        }
        assert documented == accepted

    def test_fit_run(self, tmp_path, capsys):
        code = main([
            "fit", "--n", "2", "--seed", "1", "--out", str(tmp_path)
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows ->" in out
        written = list(tmp_path.glob("fit-*.csv"))
        assert len(written) == 1

    def test_flags_override_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_min": 2, "n_max": 2, "seeds": [9]}))
        code = main([
            "fit", "--config", str(config_path), "--seed", "4",
            "--out", str(tmp_path)
        ])
        assert code == 0
        rows = read_rows(next(tmp_path.glob("fit-*.csv")))
        assert rows[0]["seed"] == "4"
        assert rows[0]["n"] == "2"

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QIMPUTE_OUT_DIR", str(tmp_path / "from_env"))
        assert main(["fit", "--n", "2", "--seed", "1"]) == 0
        assert list((tmp_path / "from_env").glob("fit-*.csv"))

    def test_csv_target_through_cli(self, tmp_path, capsys):
        target_path = tmp_path / "target.csv"
        save_target_csv(gaussian_target(2), str(target_path))
        code = main([
            "fit", "--target", "csv", "--csv", str(target_path), "--n", "2",
            "--seed", "1", "--out", str(tmp_path)
        ])
        assert code == 0

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_every_fit_converges(self, seed, tmp_path, capsys, monkeypatch):
        # A near-exact fit polishes down to the float64 floor rather than
        # stalling just above EXACT_FIT_DISTANCE.
        import qimpute.harness as harness

        results = []
        fit = harness.minimize

        def recording(*args, **kwargs):
            results.append(fit(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "minimize", recording)
        for subcommand in ("fit", "sweep", "generalize", "majority-ratios"):
            assert main([subcommand, "--seed", seed, "--out", str(tmp_path)]) == 0
        assert len(results) == 36
        assert all(result.converged for result in results)
        near_exact = [r.final_distance for r in results if r.final_distance < 1e-6]
        assert near_exact
        assert all(distance < EXACT_FIT_DISTANCE for distance in near_exact)

    def test_experiment_dispatch_guard(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(experiment="validate"))
