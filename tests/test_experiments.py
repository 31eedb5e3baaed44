import csv
import dataclasses
import filecmp
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedfraud import cli, experiments, metrics
from fedfraud.errors import ConfigError, DomainError
from fedfraud.experiments import ExperimentConfig, load_config, parse_ratio
from fedfraud.numeric import Rng


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
        path.write_text('{"seed": 1, "rounds": 7}')
        cfg = load_config(str(path), {"seed": 9, "rounds": None})
        assert cfg.seed == 9
        assert cfg.rounds == 7

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


class TestCommandsAgree:
    def test_fed_vs_central_equals_benchmark_mlp_rows(self, tmp_path):
        # Both commands train mlp_central and mlp_fed on the same split with
        # the same seeds; only fed-vs-central scores the test set per round.
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=4))
        bench = dataclasses.replace(cfg, out=str(tmp_path / "bench"))
        fvc = dataclasses.replace(cfg, out=str(tmp_path / "fvc"))
        experiments.run_benchmark(bench)
        experiments.run_fed_vs_central(fvc)

        def read_csv(out, name):
            lines = (Path(out) / name).read_text().splitlines()
            return [line.split(",") for line in lines]

        bench_rows = read_csv(bench.out, "report.csv")
        assert read_csv(fvc.out, "report.csv") == [
            row for row in bench_rows if row[0] in ("model", "mlp_central", "mlp_fed")]
        assert ((Path(fvc.out) / "model_fed.json").read_bytes()
                == (Path(bench.out) / "model_fed.json").read_bytes())
        bench_rounds = read_csv(bench.out, "rounds.csv")
        fvc_rounds = read_csv(fvc.out, "rounds.csv")
        assert len(bench_rounds) == len(fvc_rounds) == cfg.rounds + 1
        assert [r[:3] for r in fvc_rounds] == [r[:3] for r in bench_rounds]
        assert all(r[3:] == [""] * 5 for r in bench_rounds[1:])
        assert all("" not in r for r in fvc_rounds)


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


    def test_mlp_fed_grid_point_matches_cells_trained_alone(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, seed=3, sweep_sample_counts=(600,),
            sweep_ratios=("1:1", "1:3"), sweep_repeats=3,
            sweep_model="mlp_fed"))
        rows = experiments.run_sweep(cfg)
        assert len(rows) == 2 * 3
        source = experiments.load_source(cfg)
        for row in rows:
            cell_cfg = dataclasses.replace(cfg, ratio=parse_ratio(row["ratio"]),
                                           seed=row["seed"])
            rng = Rng(row["seed"]).split("sweep", row["sample_count"], row["ratio"])
            pool = experiments._stratified_subsample(source, row["sample_count"], rng)
            train, test = experiments.prepare_splits(pool, cell_cfg, rng)
            [(scores, labels, _, _)] = experiments.train_model(
                "mlp_fed", cell_cfg, [(train, test, rng)])
            _, auc = metrics.roc_auc(scores, labels)
            assert auc == row["auc"]


class TestDivergedFit:
    def test_constant_scores_refused_for_gradient_trained_models(self):
        for name in ("lr", "mlp_central", "mlp_fed"):
            with pytest.raises(DomainError, match=f"{name}: every test score is 0.3;"):
                experiments._check_not_diverged(name, np.full(4, 0.3))
            experiments._check_not_diverged(name, np.array([0.3, 0.3, 0.4]))
        # A tree may legitimately be one leaf.
        experiments._check_not_diverged("dt", np.full(4, 0.3))


class TestTracedNames:
    def test_every_perfbench_patch_target_exists(self):
        # perfbench/traced.py patches functions by name; a renamed one would
        # silently drop its per-layer metrics.
        root = Path(__file__).resolve().parents[1]
        code = ("import json, sys; sys.path.insert(0, 'perfbench'); import traced; "
                "print(json.dumps(traced.install(traced.Recorder())))")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []

    def test_traced_runs_record_the_spans_layer_metrics_reads(self, tmp_path):
        # A name bound with `from ... import` escapes its patch: the run
        # still works but the layer's spans and metrics silently vanish.
        root = Path(__file__).resolve().parents[1]
        code = """
import json, sys
sys.path.insert(0, 'perfbench')
import traced
rec = traced.Recorder()
missing = traced.install(rec)
from fedfraud import cli
runs = {}
for command in ('benchmark', 'fed-vs-central'):
    rec.spans.clear()
    rc = cli.main([command, '--seed', '1', '--config', sys.argv[1],
                   '--out', sys.argv[2] + '/' + command])
    metrics, _ = traced.layer_metrics(rec.spans)
    names = {s['id']: s['name'] for s in rec.spans}
    runs[command] = {'rc': rc, 'spans': sorted(set(names.values())),
                     'calls': sorted({f"{names.get(s['parent'])} > {s['name']}"
                                      for s in rec.spans}),
                     'metrics': sorted(metrics)}
print(json.dumps({'missing': missing, 'runs': runs}))
"""
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code, _fast_cfg(tmp_path),
                               str(tmp_path)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["missing"] == []
        for command, run in result["runs"].items():
            assert run["rc"] == 0, command
            for span in ("federated.run_training", "federated.run_round",
                         "federated.local_update", "models.sgd_epoch",
                         "data.partition", "experiments.train_model",
                         "models.mlp_fit"):
                assert span in run["spans"], (command, span)
            # Both the central fit and the federated round step through it.
            for call in ("models.mlp_fit > models.sgd_epoch",
                         "federated.run_round > models.sgd_epoch"):
                assert call in run["calls"], (command, call)
            assert "models.sgd_steps" in run["metrics"], command


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
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("epochs", -3), ("test_fraction", 1.5), ("threshold", float("nan")),
        ("dirichlet_alpha", -1), ("fraud_concentration", 2.0),
        ("dt_min_samples_leaf", 0), ("sweep_repeats", 0),
        ("sweep_sample_counts", (0,)), ("synthetic_n", 0),
        ("synthetic_features", 0), ("synthetic_fraud_fraction", 1.5),
        ("synthetic_fraud_fraction", 0.0), ("synthetic_separation", -1.0),
        ("synthetic_separation", float("inf")),
        ("hidden_sizes", (0,)), ("hidden_sizes", (-1,)), ("batch_size", 1.5),
        ("rounds", 1.5), ("ratio", (0, 1)), ("k_clients", 2.5),
        ("dt_max_depth", 2.5), ("epochs", True), ("ratio", (1.5, 2)),
        ("seed", -1), ("k_clients", 0), ("rounds", -1), ("local_epochs", 0),
        ("participation", 0.0), ("participation", 1.5), ("local_epochs", -1),
        ("dt_max_depth", -1), ("sweep_ratios", ("1:0",)),
        ("threshold", "0.5"), ("participation", None), ("hidden_sizes", 16),
        ("sweep_ratios", "1:1"), ("data", 5), ("label_column", 3),
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
        assert field in err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-sampling", "--repeats", "1.5"], ["benchmark", "--seed", "abc"],
        ["benchmark", "--no-such-flag", "1"], ["gen-synthetic"],
    ], ids=["float_repeats", "bad_seed", "unknown_flag", "missing_output"])
    def test_bad_flag_exit_one_before_writing(self, tmp_path, capsys, argv):
        # A bad flag is a config error, as the same value in --config is.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)])
        assert exc.value.code == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--data", "--out"])
    def test_gen_synthetic_refuses_flags_it_does_not_read(self, tmp_path, capsys, flag):
        csv_path = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-synthetic", "--output", str(csv_path), flag, str(tmp_path / "x")])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not csv_path.exists() and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, field, value", [
        (["benchmark", "--ratio", "1:3"], "ratio", (1, 3)),
        (["benchmark", "--data", "in.csv"], "data", "in.csv"),
        (["benchmark", "--seed", "4"], "seed", 4),
        (["sweep-sampling", "--repeats", "2"], "sweep_repeats", 2),
        (["fed-vs-central", "--scheme", "label_skew"], "partition_scheme", "label_skew"),
        (["gen-synthetic", "--n", "123"], "synthetic_n", 123),
        (["gen-synthetic", "--fraud-fraction", "0.05"], "synthetic_fraud_fraction", 0.05),
        (["gen-synthetic", "--separation", "1.5"], "synthetic_separation", 1.5),
        (["gen-synthetic", "--features", "7"], "synthetic_features", 7),
    ])
    def test_flag_sets_its_config_field(self, tmp_path, monkeypatch, argv, field, value):
        runner, result = {
            "benchmark": ("run_benchmark", []),
            "sweep-sampling": ("run_sweep", []),
            "fed-vs-central": ("run_fed_vs_central",
                               {"central": {"auc": 0.5}, "federated": {"auc": 0.5},
                                "auc_delta": 0.0}),
            "gen-synthetic": ("run_gen_synthetic",
                              experiments.load_source(ExperimentConfig(synthetic_n=10))),
        }[argv[0]]
        seen = []
        monkeypatch.setattr(experiments, runner,
                            lambda cfg, *rest: seen.append(cfg) or result)
        out = str(tmp_path / "o")
        extra = (["--output", str(tmp_path / "s.csv")] if argv[0] == "gen-synthetic"
                 else ["--out", out])
        assert cli.main([*argv, *extra]) == 0
        [cfg] = seen
        assert getattr(cfg, field) == value
        assert "--out" not in extra or cfg.out == out

    def test_data_error_exit_two(self, tmp_path, capsys):
        rc = cli.main(["benchmark", "--data", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("content,message", [
        (b"V1,Caf\xe9,Class\n1.0,2.0,0\n", "not UTF-8 .*0xe9"),
        (b"V1,Class\n1.0,0\n2.0,1\ncaf\xe9,0\n", "not UTF-8 .*0xe9"),
        (b"V1,Class\n1.0,2\n", "label must be 0 or 1"),
    ], ids=["header", "body", "bad_label"])
    def test_non_utf8_csv_exit_two(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        out = tmp_path / "o"
        rc = cli.main(["benchmark", "--data", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and re.search(message, err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["benchmark", "fed-vs-central"])
    def test_diverged_fit_exit_three_before_report(self, tmp_path, capsys, command):
        # At this learning rate the central MLP's test scores are all equal.
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(dict(
            learning_rate=50, synthetic_n=2000, synthetic_features=5, epochs=4,
            rounds=3, local_epochs=1, k_clients=3, hidden_sizes=[6])))
        out = tmp_path / "o"
        rc = cli.main([command, "--seed", "1", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert re.search("mlp_central: every test score is .* diverged",
                         capsys.readouterr().err)
        assert not (out / "report.csv").exists()

    def test_diverged_sweep_cell_exit_three_before_sweep_csv(self, tmp_path, capsys):
        # At this learning rate every federated cell scores all test rows 0.
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(dict(
            learning_rate=5000, synthetic_n=3000, synthetic_features=5,
            sweep_sample_counts=[1000], sweep_repeats=2, rounds=2,
            local_epochs=1, hidden_sizes=[6])))
        out = tmp_path / "o"
        rc = cli.main(["sweep-sampling", "--seed", "1", "--config", str(path),
                       "--out", str(out)])
        assert rc == 3
        assert re.search("mlp_fed: .* diverged", capsys.readouterr().err)
        assert not (out / "sweep.csv").exists()

    def test_rounds_csv_scores_at_threshold_like_report(self, tmp_path):
        # The last round's global model is the final federated model, so its
        # rounds.csv row must equal report.csv's mlp_fed row at any threshold.
        path = tmp_path / "thr.json"
        path.write_text(json.dumps(dict(threshold=0.2, synthetic_n=3000,
                                        rounds=3, epochs=3)))
        out = tmp_path / "o"
        rc = cli.main(["fed-vs-central", "--seed", "1", "--config", str(path),
                       "--out", str(out)])
        assert rc == 0
        with open(out / "rounds.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        with open(out / "report.csv", newline="") as fh:
            [fed] = [r for r in csv.DictReader(fh) if r["model"] == "mlp_fed"]
        for col in ("auc", "accuracy", "precision", "recall", "f1"):
            assert last[col] == fed[col], col

    def test_benchmark_on_gen_synthetic_csv_equals_in_memory_source(self, tmp_path):
        cfg = _fast_cfg(tmp_path)
        csv_path = tmp_path / "synth.csv"
        assert cli.main(["gen-synthetic", "--seed", "3", "--config", cfg,
                         "--output", str(csv_path)]) == 0
        for name, extra in (("mem", []), ("csv", ["--data", str(csv_path)])):
            assert cli.main(["benchmark", "--seed", "3", "--config", cfg,
                             "--out", str(tmp_path / name), *extra]) == 0
        for report in ("report.csv", "rounds.csv", "model_fed.json"):
            assert ((tmp_path / "mem" / report).read_bytes()
                    == (tmp_path / "csv" / report).read_bytes()), report

    def test_non_finite_scores_exit_three_naming_the_model(self, tmp_path, capsys):
        # At this learning rate the central MLP overflows to NaN scores.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(
            learning_rate=500, synthetic_n=5000, epochs=4, rounds=3,
            local_epochs=1, k_clients=3, synthetic_features=5, hidden_sizes=[6])))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["benchmark", "--seed", "1", "--config", str(path),
                           "--out", str(out)])
        assert rc == 3
        # The refusal names the model; numpy's overflow warnings are not shown.
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert re.search("mlp_central: 204 of 204 test scores are not finite",
                         capsys.readouterr().err)
        assert not (out / "report.csv").exists()

    def test_gen_synthetic_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = cli.main(["gen-synthetic", "--seed", "7", "--n", "500",
                           "--fraud-fraction", "0.1", "--features", "4",
                           "--output", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_synthetic_loads_back(self, tmp_path):
        from fedfraud import data as datamod
        out = tmp_path / "synth.csv"
        cli.main(["gen-synthetic", "--seed", "1", "--n", "300",
                  "--features", "3", "--output", str(out)])
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
