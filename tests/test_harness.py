import csv
import json
import os

import numpy as np
import pytest

from qimpute.ansatz import Ansatz, conditional_output, statevector
from qimpute.cli import _FLAGS, _build_parser, _resolve_config, main
from qimpute.harness import (
    BOUND_SLACK,
    ConfigError,
    ExperimentConfig,
    _validate_oracle,
    classify_outcomes,
    run_bp_stats,
    run_entropy,
    run_experiment,
    run_fit,
    run_generalize,
    run_majority_ratios,
    run_sweep,
    run_validate,
    sample_outcomes,
)
from qimpute.optimize import OptimizeConfig
from qimpute.rng import stream
from qimpute.targets import majority_target, mask_fraction, save_target_csv, gaussian_target


# (experiment, config-file values whose types the config rejects)
BADLY_TYPED_CONFIGS = (
    ("fit", {"optimizer": "x"}),
    ("entropy", {"optimizer": "x"}),
    ("fit", {"optimizer": {"restarts": 2.5}}),
    ("fit", {"n_min": 2.5, "n_max": 3}),
    ("bp_stats", {"samples": 150.5}),
    ("majority_ratios", {"outcomes": 2.5}),
    ("fit", {"center": "a"}),
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

    def test_optimizer_subdict(self):
        config = ExperimentConfig.from_dict(
            {"experiment": "fit", "optimizer": {"restarts": 2, "init_scheme": "zeros"}}
        )
        assert config.optimizer == OptimizeConfig(restarts=2, init_scheme="zeros")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "fit", "optimizer": {"restarts": 0}})

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
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "bp_stats", "ansatz": ["quadratic"], "n_min": 17, "n_max": 17})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "entropy", "ansatz": ["linear"], "n_min": 20, "n_max": 20})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "fit", "ansatz": ["exponential"], "n_min": 13, "n_max": 13})
        for experiment, bad in BADLY_TYPED_CONFIGS:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({"experiment": experiment, **bad})


class TestFit:
    def test_schema_and_row_counts(self, tmp_path):
        config = ExperimentConfig(
            experiment="fit", ansatz=("linear",), n_min=3, n_max=3,
            target="gaussian", seeds=(1,), out_dir=str(tmp_path),
            optimizer=OptimizeConfig(restarts=3),
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

    def test_rerun_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            experiment="fit", ansatz=("linear",), n_min=2, n_max=2,
            seeds=(5,), out_dir=str(tmp_path), optimizer=OptimizeConfig(restarts=2),
        )
        first = run_fit(config).csv_path.read_bytes()
        second = run_fit(config).csv_path.read_bytes()
        assert first == second


class TestSweep:
    def test_majority_rows_and_aggregates(self, tmp_path):
        config = ExperimentConfig(
            experiment="sweep", ansatz=("linear", "quadratic"), n_min=2, n_max=4,
            target="majority", seeds=(1,), out_dir=str(tmp_path),
            optimizer=OptimizeConfig(restarts=5),
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
            optimizer=OptimizeConfig(restarts=3),
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
                optimizer=OptimizeConfig(restarts=3),
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
            optimizer=OptimizeConfig(restarts=3),
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
            out_dir=str(tmp_path), optimizer=OptimizeConfig(restarts=3),
        )
        row = read_rows(run_majority_ratios(config).csv_path)[0]
        assert row["hits_unseen"] == "0"
        total = int(row["hits_seen"]) + int(row["hits_unseen"])
        assert total == int(row["hits_total"])
        assert float(row["ratio_seen"]) + float(row["ratio_unseen"]) == pytest.approx(
            float(row["ratio_total"]), abs=1e-12
        )

    def test_sampler_matches_enumeration(self):
        # sampled rule-hit counts stay within 4 binomial sigmas of the
        # exhaustively enumerated hit probability
        full = majority_target(3)
        masked = mask_fraction(full, 0.5, seed=2)
        ansatz = Ansatz.quadratic(3)
        rng_params = stream(2, "params").uniform(0, 2 * np.pi, ansatz.param_count)
        out = conditional_output(ansatz, rng_params)
        joint = out.joint_probabilities().ravel()
        support = (full.probs.ravel() > 0).astype(float)
        expected = float(joint @ support)
        n_outcomes = 4096
        draws = sample_outcomes(out, n_outcomes, stream(3, "sampling"))
        report = classify_outcomes(draws, full, masked.seen_mask)
        sigma = np.sqrt(n_outcomes * expected * (1.0 - expected))
        assert abs(report.hits_total - n_outcomes * expected) < 4.0 * sigma
        assert report.outcomes == n_outcomes


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
        assert json.loads(path.read_text())["passed"]


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["fit", "--target", "csv"]) == 2
        assert "config error" in capsys.readouterr().err
        config_argvs = []
        for index, (experiment, bad) in enumerate(BADLY_TYPED_CONFIGS):
            path = tmp_path / f"bad{index}.json"
            path.write_text(json.dumps(bad))
            config_argvs.append([experiment.replace("_", "-"), "--config", str(path)])
        for argv in (
            ["bp-stats", "--samples", "50"],
            ["entropy", "--samples", "10"],
            ["bp-stats", "--m-sweep-n", "0"],
            ["bp-stats", "--m-sweep-n", "-3"],
            ["bp-stats", "--ansatz", "quadratic", "--n", "17"],
            ["entropy", "--ansatz", "linear", "--n", "20"],
            *config_argvs,
        ):
            assert main(argv) == 2
            assert "config error" in capsys.readouterr().err

    def test_subcommands_reject_flags_their_runner_ignores(self, capsys):
        for argv in (
            ["validate", "--seed", "1"],
            ["validate", "--n", "3"],
            ["entropy", "--n", "3", "--restarts", "3"],
            ["entropy", "--target", "majority"],
            ["entropy", "--fraction", "0.5"],
            ["fit", "--full-scale"],
            ["fit", "--m-sweep-n", "4"],
            ["sweep", "--outcomes", "8"],
            ["bp-stats", "--restarts", "2"],
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
        config_path.write_text(json.dumps({"optimizer": {"init_scheme": "zeros", "restarts": 1}}))
        cases = {
            "--config": (["fit", "--config", str(config_path)], "optimizer",
                         OptimizeConfig(init_scheme="zeros", restarts=1)),
            "--out": (["fit", "--out", "somewhere"], "out_dir", "somewhere"),
            "--seed": (["fit", "--seed", "7"], "seeds", (7,)),
            "--seeds": (["sweep", "--seeds", "3,1,2"], "seeds", (3, 1, 2)),
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
            "--restarts": (["fit", "--config", str(config_path), "--restarts", "3"], "optimizer",
                           OptimizeConfig(init_scheme="zeros", restarts=3)),
            "--full-scale": (["sweep", "--full-scale"], "n_max", 16),
        }
        assert set(cases) == set(_FLAGS)
        for flag, (argv, field, expected) in cases.items():
            assert getattr(resolve(*argv), field) == expected, flag
        assert resolve("fit", "--n", "4").n_min == 4
        assert resolve("fit", "--csv", str(target_path)).target_csv == str(target_path)
        full = resolve("sweep", "--full-scale")
        assert (full.n_min, full.target, full.seeds) == (2, "random", tuple(range(1, 101)))
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--seeds", "a,b"])
        assert exit_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_fit_run(self, tmp_path, capsys):
        code = main([
            "fit", "--n", "2", "--seed", "1", "--out", str(tmp_path), "--restarts", "2",
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
            "--out", str(tmp_path), "--restarts", "2",
        ])
        assert code == 0
        rows = read_rows(next(tmp_path.glob("fit-*.csv")))
        assert rows[0]["seed"] == "4"
        assert rows[0]["n"] == "2"

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QIMPUTE_OUT_DIR", str(tmp_path / "from_env"))
        assert main(["fit", "--n", "2", "--seed", "1", "--restarts", "2"]) == 0
        assert list((tmp_path / "from_env").glob("fit-*.csv"))

    def test_csv_target_through_cli(self, tmp_path, capsys):
        target_path = tmp_path / "target.csv"
        save_target_csv(gaussian_target(2), str(target_path))
        code = main([
            "fit", "--target", "csv", "--csv", str(target_path), "--n", "2",
            "--seed", "1", "--out", str(tmp_path), "--restarts", "2",
        ])
        assert code == 0

    def test_experiment_dispatch_guard(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(experiment="validate"))
