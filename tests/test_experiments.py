import filecmp
import json
import os

import numpy as np
import pytest

from fedfraud import cli, experiments
from fedfraud.errors import ConfigError
from fedfraud.experiments import ExperimentConfig, load_config, parse_ratio


def fast_overrides(tmp_path, **extra):
    base = dict(
        out=str(tmp_path / "out"),
        synthetic_n=2000,
        synthetic_fraud_fraction=0.15,
        synthetic_separation=3.0,
        synthetic_features=6,
        epochs=6,
        rounds=4,
        local_epochs=2,
        k_clients=3,
        hidden_sizes=(8,),
    )
    base.update(extra)
    return base


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.ratio == (1, 1)
        assert cfg.aggregation_mode == "fedavg_params"

    def test_parse_ratio(self):
        assert parse_ratio("1:100") == (1, 100)
        with pytest.raises(ConfigError):
            parse_ratio("abc")
        with pytest.raises(ConfigError):
            parse_ratio("0:5")

    def test_unknown_field_named_in_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"learning_rte": 0.1}')
        with pytest.raises(ConfigError, match="learning_rte"):
            load_config(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1, "threads": 2}')
        cfg = load_config(str(path), {"seed": 9, "threads": None})
        assert cfg.seed == 9
        assert cfg.threads == 2

    def test_echo_reproduces_config(self):
        cfg = ExperimentConfig(seed=5, ratio=(1, 4))
        echoed = json.loads(experiments.config_echo(cfg))
        again = load_config(None, echoed)
        assert again == cfg


class TestBenchmark:
    def test_separable_synthetic_all_models_strong(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, synthetic_separation=6.0, seed=0))
        rows = experiments.run_benchmark(cfg)
        assert [r["model"] for r in rows] == list(experiments.BENCHMARK_MODELS)
        for row in rows:
            assert row["auc"] >= 0.95, row

    def test_report_files_written(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=1))
        experiments.run_benchmark(cfg)
        for name in ("report.csv", "report.txt", "rounds.csv", "config.json",
                     "model_fed.json"):
            assert os.path.exists(os.path.join(cfg.out, name)), name

    def test_same_seed_byte_identical_reports(self, tmp_path):
        cfg_a = ExperimentConfig(**fast_overrides(tmp_path, seed=3))
        cfg_b = ExperimentConfig(**{**fast_overrides(tmp_path, seed=3),
                                    "out": str(tmp_path / "out2")})
        experiments.run_benchmark(cfg_a)
        experiments.run_benchmark(cfg_b)
        for name in ("report.csv", "report.txt", "rounds.csv"):
            assert filecmp.cmp(os.path.join(cfg_a.out, name),
                               os.path.join(cfg_b.out, name), shallow=False)


class TestFedVsCentral:
    def test_delta_reported(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=2))
        result = experiments.run_fed_vs_central(cfg)
        assert 0.0 <= result["auc_delta"] <= 1.0
        assert os.path.exists(os.path.join(cfg.out, "rounds.csv"))

    def test_label_skew_runs_and_reports(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, seed=2, partition_scheme="label_skew"))
        result = experiments.run_fed_vs_central(cfg)
        assert result["partition_scheme"] == "label_skew"


class TestSweep:
    def test_row_count_and_sorting(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, seed=0, synthetic_n=3000,
            sweep_sample_counts=(400, 800),
            sweep_ratios=("1:1", "1:3"),
            sweep_repeats=2,
            sweep_model="lr",
        ))
        rows = experiments.run_sweep(cfg)
        assert len(rows) == 2 * 2 * 2
        keys = [(r["sample_count"], r["ratio"], r["seed"]) for r in rows]
        assert keys == sorted(keys)

    def test_oversized_cell_skipped_with_warning(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, seed=0, synthetic_n=1000,
            sweep_sample_counts=(400, 5000),
            sweep_ratios=("1:1",),
            sweep_repeats=1,
            sweep_model="lr",
        ))
        with pytest.warns(UserWarning, match="skipping"):
            rows = experiments.run_sweep(cfg)
        assert {r["sample_count"] for r in rows} == {400}


class TestCli:
    def test_benchmark_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["benchmark", "--seed", "1", "--out", str(tmp_path / "o"),
                       "--config", _fast_cfg(tmp_path)])
        assert rc == 0
        assert "mlp_fed" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_field": 1}')
        rc = cli.main(["benchmark", "--config", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1), ("partition_scheme", "bogus"),
        ("aggregation_mode", "bogus"), ("batch_size", 0),
    ])
    def test_bad_config_value_exit_one_before_writing(self, tmp_path, capsys,
                                                      field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({field: value}))
        out = tmp_path / "o"
        rc = cli.main(["benchmark", "--config", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(value) in err
        assert not (out / "config.json").exists()

    def test_data_error_exit_two(self, tmp_path, capsys):
        rc = cli.main(["benchmark", "--data", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_gen_synthetic_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = cli.main(["gen-synthetic", "--seed", "7", "--n", "500",
                           "--fraud-fraction", "0.1", "--features", "4",
                           "--output", str(path),
                           "--out", str(tmp_path / "o")])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_synthetic_loads_back(self, tmp_path):
        from fedfraud import data as datamod
        out = tmp_path / "synth.csv"
        cli.main(["gen-synthetic", "--seed", "1", "--n", "300",
                  "--features", "3", "--output", str(out),
                  "--out", str(tmp_path / "o")])
        ds = datamod.load_csv(out)
        assert ds.n_samples == 300
        assert ds.n_features == 3

    def test_fed_vs_central_runs(self, tmp_path, capsys):
        rc = cli.main(["fed-vs-central", "--seed", "2",
                       "--out", str(tmp_path / "o"),
                       "--config", _fast_cfg(tmp_path)])
        assert rc == 0
        assert "delta" in capsys.readouterr().out


def _fast_cfg(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(dict(
        synthetic_n=1500, synthetic_fraud_fraction=0.15,
        synthetic_separation=3.0, synthetic_features=5,
        epochs=4, rounds=3, local_epochs=1, k_clients=3, hidden_sizes=[6],
    )))
    return str(path)
