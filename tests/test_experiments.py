import concurrent.futures
import csv
import dataclasses
import filecmp
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from fedfraud import cli, data, experiments, metrics
from fedfraud.errors import ConfigError, DataError, DomainError
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
        # the same seeds, and both score the test set per round.
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
        assert fvc_rounds == bench_rounds
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
                                           seed=row["seed"], sweep_repeats=1)
            [(train, test, rng)] = experiments._plan_point(
                row["sample_count"], row["ratio"], source.labels, cell_cfg)
            assert rng.seed == row["seed"]
            [(scores, labels, _, _)] = experiments.train_model(
                "mlp_fed", cell_cfg, [(*experiments.prepare_splits(source, train, test), rng)])
            _, auc = metrics.roc_auc(scores, labels)
            assert auc == row["auc"]

    def test_every_count_oversized_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(synthetic_n=1000, sweep_sample_counts=[5000, 3000],
                                        sweep_repeats=1)))
        out = tmp_path / "o"
        rc = cli.main(["sweep-sampling", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: sweep_sample_counts: every count exceeds the dataset size "
            "1000 (the largest is 5000)\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_grid_point_named_in_grid_order(self, tmp_path, workers):
        # Both points fail. At 2 workers the larger one is handed out first,
        # but the error raised is the one the in-process loop meets first.
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, sweep_sample_counts=(300, 600), sweep_ratios=("1:1",),
            sweep_repeats=2, rounds=2, k_clients=500))
        with pytest.raises(DataError, match=r"^sample_count 300, ratio 1:1: "
                                              r"cannot split \d+ rows into 500 shards$"):
            experiments.run_sweep(cfg, workers)
        assert not (Path(cfg.out) / "sweep.csv").exists()


    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_point_that_cannot_form_refused_before_any_trains(self, tmp_path,
                                                                   monkeypatch, workers):
        # The 20-row pool keeps 2 fraud and 2 legit rows at 1:1, too few for
        # a test set; the 600-row point comes first in a forked run, but no
        # grid point trains before the refusal.
        def no_training(*args):
            raise AssertionError("a grid point trained before the refusal")

        monkeypatch.setattr(experiments, "train_model", no_training)
        cfg = ExperimentConfig(out=str(tmp_path / "o"), sweep_sample_counts=(600, 20),
                               sweep_ratios=("1:1",), sweep_repeats=2)
        with pytest.raises(DataError, match=r"^sample_count 20, ratio 1:1: test set has "
                                              r"0 fraud and 0 legit rows "):
            experiments.run_sweep(cfg, workers)
        assert not (tmp_path / "o").exists()

    def test_k_clients_rule_applies_only_to_mlp_fed(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, sweep_sample_counts=(300, 600), sweep_ratios=("1:1",),
            sweep_repeats=2, sweep_model="lr", k_clients=5000))
        assert len(experiments.run_sweep(cfg)) == 2 * 2


SWEEP_GRID = dict(sweep_sample_counts=(300, 600, 1200), sweep_ratios=("1:1", "1:100"),
                  sweep_repeats=2)


def _sweep_at(tmp_path, workers, action, **extra):
    """run_sweep at `workers` under warnings.simplefilter(action): its rows,
    its sweep.csv bytes and the warnings shown."""
    cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=2, out=str(tmp_path / str(workers)),
                                            **{**SWEEP_GRID, **extra}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        rows = experiments.run_sweep(cfg, workers)
    shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return rows, (Path(cfg.out) / "sweep.csv").read_bytes(), shown


class TestSweepWorkers:
    """With workers, run_sweep forks its grid points; what it returns,
    writes and warns must be what the in-process run gives."""

    @pytest.mark.parametrize("model", ["mlp_fed", "lr", "dt"])
    def test_two_workers_match_in_process(self, tmp_path, model):
        alone = _sweep_at(tmp_path, 1, "always", sweep_model=model)
        assert len(alone[0]) == 3 * 2 * 2
        assert any("keeping all of them" in message for message, *_ in alone[2])
        assert _sweep_at(tmp_path, 2, "always", sweep_model=model) == alone

    def test_default_filter_shows_each_warning_once_at_any_worker_count(self, tmp_path):
        # Both repeats of a 1:100 point warn with the same text; the default
        # filter shows a text once per location, as warnings.warn would.
        alone = _sweep_at(tmp_path, 1, "default", sweep_model="lr")
        assert [message for message, *_ in alone[2]] == [
            f"ratio asks for {legit} legit rows but only {have} are available; "
            "keeping all of them" for legit, have in ((4300, 257), (8700, 513), (17300, 1027))]
        assert _sweep_at(tmp_path, 2, "default", sweep_model="lr")[2] == alone[2]

    def test_only_a_grid_of_two_or_more_points_starts_a_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        one = ExperimentConfig(**fast_overrides(
            tmp_path, sweep_sample_counts=(600,), sweep_ratios=("1:1",),
            sweep_repeats=2, sweep_model="lr"))
        assert len(experiments.run_sweep(one, 2)) == 2
        two = dataclasses.replace(one, sweep_ratios=("1:1", "1:3"))
        with pytest.raises(AssertionError, match="a pool was started"):
            experiments.run_sweep(two, 2)

    def test_killed_worker_raises_instead_of_waiting(self):
        parent = os.getpid()

        def task(i):
            if i == 0 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(BrokenProcessPool):
            experiments._fork_map(task, 3, 2, [0, 1, 2])

    def test_order_may_be_an_iterator(self):
        assert experiments._fork_map(lambda i: i * 10, 3, 2, reversed(range(3))) == [0, 10, 20]

    def test_only_the_program_passes_workers(self, monkeypatch, tmp_path):
        fed_vs_central = {"central": {"auc": 0.5}, "federated": {"auc": 0.5},
                          "auc_delta": 0.0}
        for command, runner, result in (("sweep-sampling", "run_sweep", []),
                                        ("benchmark", "run_benchmark", []),
                                        ("fed-vs-central", "run_fed_vs_central",
                                         fed_vs_central)):
            seen = []
            monkeypatch.setattr(experiments, runner,
                                lambda cfg, *rest: seen.append(rest) or result)
            argv = [command, "--out", str(tmp_path / "o")]
            assert cli.main(argv) == 0
            monkeypatch.setattr(sys, "argv", ["fedfraud", *argv])
            assert cli.main() == 0
            assert seen == [(1,), (cli._usable_cpus(),)], command

    def test_program_writes_what_main_with_argv_writes(self, tmp_path):
        path = tmp_path / "grid.json"
        grid = {**fast_overrides(tmp_path), **SWEEP_GRID}
        del grid["out"]
        path.write_text(json.dumps(grid))
        argv = ["sweep-sampling", "--seed", "1", "--config", str(path), "--out"]
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "fedfraud.cli", *argv, str(tmp_path / "program")],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main([*argv, str(tmp_path / "main")]) == 0
        assert ((tmp_path / "program" / "sweep.csv").read_bytes()
                == (tmp_path / "main" / "sweep.csv").read_bytes())


REPORTS = ("report.csv", "report.txt", "rounds.csv", "model_fed.json")


def _models_at(tmp_path, runner, workers, **extra):
    """runner(cfg, workers) under warnings.simplefilter("always"): what it
    returns, the bytes of its report files and the warnings shown."""
    cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=2, out=str(tmp_path / str(workers)),
                                            **extra))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner(cfg, workers)
    return (result, [(Path(cfg.out) / name).read_bytes() for name in REPORTS],
            [(str(w.message), w.category, w.filename, w.lineno) for w in caught])


class TestModelWorkers:
    """With workers, benchmark and fed-vs-central fork their models' fits;
    what they return, write and warn must be what the in-process run gives."""

    @pytest.mark.parametrize("runner,extra", [
        (experiments.run_benchmark, {"ratio": (1, 20)}),
        (experiments.run_fed_vs_central, {"ratio": (1, 20), "partition_scheme": "label_skew"}),
    ], ids=["benchmark", "fed_vs_central"])
    def test_two_workers_match_in_process(self, tmp_path, runner, extra):
        alone = _models_at(tmp_path, runner, 1, **extra)
        assert any("keeping all of them" in message for message, *_ in alone[2])
        assert _models_at(tmp_path, runner, 2, **extra) == alone

    def test_program_writes_what_main_with_argv_writes(self, tmp_path):
        argv = ["benchmark", "--seed", "1", "--config", _fast_cfg(tmp_path), "--out"]
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "fedfraud.cli", *argv, str(tmp_path / "program")],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert cli.main([*argv, str(tmp_path / "main")]) == 0
        for name in REPORTS:
            assert ((tmp_path / "program" / name).read_bytes()
                    == (tmp_path / "main" / name).read_bytes()), name

    def test_one_worker_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=1))
        for runner in (experiments.run_benchmark, experiments.run_fed_vs_central):
            runner(cfg)
            runner(cfg, 1)
            with pytest.raises(AssertionError, match="a pool was started"):
                runner(cfg, 2)

    def test_refusal_is_the_first_in_roster_order(self, tmp_path):
        # At this learning rate mlp_central and mlp_fed both diverge. mlp_fed
        # is handed out first, but the refusal is the first in roster order,
        # as the in-process loop gives it.
        cfg = ExperimentConfig(learning_rate=500, synthetic_n=5000, epochs=4, rounds=3,
                               local_epochs=1, k_clients=3, synthetic_features=5,
                               hidden_sizes=(6,), seed=1, out=str(tmp_path / "o"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="^mlp_central: 204 of 204 test scores "
                                                  "are not finite; "):
                experiments.run_benchmark(cfg, 2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()


def _split_digests(train, test):
    """SHA-256 of each split's standardized features and labels."""
    return tuple(hashlib.sha256(ds.features.tobytes() + ds.labels.astype(np.int64).tobytes())
                 .hexdigest() for ds in (train, test))


class TestSyntheticRowsTaken:
    """The synthetic feature stream is walked once per run, and only as far
    as the rows the run uses (data.SyntheticSource.take)."""

    @pytest.fixture
    def takes(self, monkeypatch):
        sizes = []
        take = data.SyntheticSource.take

        def counted(self, idx):
            sizes.append(np.asarray(idx).size)
            return take(self, idx)

        monkeypatch.setattr(data.SyntheticSource, "take", counted)
        return sizes

    def test_fed_vs_central_takes_only_train_and_test(self, tmp_path, takes):
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=1, synthetic_n=5000))
        experiments.run_fed_vs_central(cfg)
        fraud = experiments.load_source(cfg).fraud_count
        # At 1:1, train and test hold every fraud row and as many legit.
        assert takes == [2 * fraud]
        assert 2 * fraud < cfg.synthetic_n

    def test_forked_sweep_draws_every_row_once_in_the_parent(self, tmp_path, takes):
        cfg = ExperimentConfig(**fast_overrides(
            tmp_path, seed=1, sweep_sample_counts=(300, 600), sweep_repeats=1,
            sweep_ratios=("1:1",)))
        experiments.run_sweep(cfg, workers=2)
        assert takes == [cfg.synthetic_n]

    def test_gen_synthetic_draws_every_row_once(self, tmp_path, takes):
        cfg = ExperimentConfig(synthetic_n=700)
        experiments.run_gen_synthetic(cfg, str(tmp_path / "s.csv"))
        assert takes == [700]


def _ulb_shaped_source(tmp_path):
    """A small CSV shaped like the ULB file (Time, V1..V28, Amount; 50 of
    6 000 rows fraud), read back through load_csv."""
    gen = np.random.default_rng(11)
    labels = np.zeros(6000, dtype=np.intp)
    labels[gen.choice(6000, 50, replace=False)] = 1
    features = gen.standard_normal((6000, 30))
    features[labels == 1, 1:29] += 0.7
    names = ("Time", *(f"V{i}" for i in range(1, 29)), "Amount")
    path = tmp_path / "ulb.csv"
    data.write_csv(data.Dataset(features, labels, names), path)
    return data.load_csv(path)


ULB_DIGESTS = ("6935d1e4ab8348470a9540c6bc531f2637d34ce33b375b0b2fa6bae1ab4e0a4f",
               "201cfbf84f1cfd04d5c46b4fa38aedac9264cfa0e8aaa5361657bd5b1f004d6b")
SYNTHETIC_DIGESTS = {
    (1, 1): ("3d99c4c7473e9dc0c9babe5b0839146bd8eee4db9e40a7f45c9728fe93b7d724",
             "1a27cf26980ebee914c9f3a038a7063fc86802af48c48c2b268cc238ad145f4a"),
    (1, 50): ("655f5db44ff5db687cefe02b698e01d543adf529a7e09e9f4e8dbeb7f87b8ed0",
              "750f218d1c96421a9553d87d827cb50dfecdbcaefbc8fb410193a0c3b0f1704e"),
}
SWEEP_DIGESTS = [
    ("27a66f49993fdd4decf4529d914f07ce58190ec52d5084987eabf5c7800ea881",
     "db1bf7f43d85d171d171056cdb696cd0b45d9d883369338218c263a3da23a0d8"),
    ("d3a7672d48251393900658e08ab1ffbd406ef03a66b1b694311686b7b2512c97",
     "5b382f50916767d12a006d3a27601256223346422aa7aa7f5ed2ae68b30ef1f6"),
]


def _benchmark_cell(source, cfg, rng):
    """The standardized (train, test) that _run_models plans and takes."""
    return experiments.prepare_splits(source, *experiments.plan_cell(
        source.labels, np.arange(source.n_samples), cfg.ratio, cfg, "mlp_fed", rng))


class TestSplitStreamsPinned:
    """Planned cells' standardized train and test (plan_cell, then
    prepare_splits), pinned by digest: a refactor of resampling, splitting
    or standardizing must keep every stream and every arithmetic step."""

    def test_ulb_shaped_file_at_1_to_100(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=5, ratio=(1, 100)))
        train, test = _benchmark_cell(_ulb_shaped_source(tmp_path), cfg, Rng(5))
        assert (train.n_samples, train.fraud_count) == (4040, 40)
        assert (test.n_samples, test.fraud_count) == (1010, 10)
        assert _split_digests(train, test) == ULB_DIGESTS

    @pytest.mark.parametrize("ratio, warns", [((1, 1), False), ((1, 50), True)])
    def test_synthetic(self, tmp_path, ratio, warns):
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=2, ratio=ratio))
        source = experiments.load_source(cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train, test = _benchmark_cell(source, cfg, Rng(2))
        assert any("keeping all of them" in str(w.message) for w in caught) == warns
        assert _split_digests(train, test) == SYNTHETIC_DIGESTS[ratio]

    def test_sweep_pool(self, tmp_path):
        cfg = ExperimentConfig(**fast_overrides(tmp_path, seed=4, sweep_repeats=2))
        source = experiments.load_source(cfg)
        cells = experiments._plan_point(700, "1:3", source.labels, cfg)
        digests = [_split_digests(*experiments.prepare_splits(source, train, test))
                   for train, test, _ in cells]
        assert digests == SWEEP_DIGESTS


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


BLAS_PROBE = """
import json, os, sys
from fedfraud import cli
numpy_on_import = "numpy" in sys.modules
argv = ["gen-synthetic", "--n", "10", "--output", sys.argv[2]]
if sys.argv[1] == "program":
    sys.argv = ["fedfraud", *argv]
    rc = cli.main()
else:
    rc = cli.main(argv)
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status", encoding="utf-8") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps([rc, numpy_on_import, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def _without_blas_threads_env(**extra):
    """This process's environment without OPENBLAS_NUM_THREADS, with src on
    PYTHONPATH and `extra` added."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(root / "src"), **extra}


def _blas_probe(tmp_path, how, **env):
    """BLAS_PROBE run as `how` ("program": cli.main() with sys.argv set;
    else cli.main(argv)) in a new interpreter: whether importing fedfraud.cli
    loaded numpy, then OPENBLAS_NUM_THREADS and the process's thread count
    (None off Linux) after a tiny gen-synthetic."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, how, str(tmp_path / "s.csv")],
                          cwd=root, env=_without_blas_threads_env(**env),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, numpy_on_import, value, threads = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return numpy_on_import, value, threads


LINUX = sys.platform.startswith("linux")


class TestProgramBlasThreads:
    """Run as a program, fedfraud's only parallelism is its forked workers:
    numpy runs on one BLAS thread unless the caller set OPENBLAS_NUM_THREADS.
    Called as cli.main(argv), it keeps the caller's BLAS settings."""

    def test_importing_the_cli_loads_no_numpy(self, tmp_path):
        assert _blas_probe(tmp_path, "argv")[0] is False

    def test_program_runs_one_blas_thread(self, tmp_path):
        assert _blas_probe(tmp_path, "program")[1:] == ("1", 1 if LINUX else None)

    def test_program_keeps_the_callers_value(self, tmp_path):
        _, value, threads = _blas_probe(tmp_path, "program", OPENBLAS_NUM_THREADS="2")
        assert value == "2"
        if LINUX and len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS caps it at the CPUs
            assert threads == 2

    def test_main_with_argv_sets_nothing(self, tmp_path):
        assert _blas_probe(tmp_path, "argv")[1] is None

    def test_report_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # FedAvg shards of 1 152 rows and a 1 440-row test set: the clients'
        # loss passes and the scoring are matmuls that OpenBLAS splits over
        # its threads.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic_n": 8000, "synthetic_features": 30,
                                   "ratio": [1, 8], "rounds": 2, "epochs": 1,
                                   "local_epochs": 1}))
        root = Path(__file__).resolve().parents[1]
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "fedfraud.cli", "fed-vs-central", "--seed", "1",
                 "--config", str(cfg), "--out", str(tmp_path / threads)],
                cwd=root, env=_without_blas_threads_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for name in REPORTS:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name


class TestCli:
    def test_benchmark_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["benchmark", "--seed", "1", "--out", str(tmp_path / "o"),
                       "--config", _fast_cfg(tmp_path)])
        assert rc == 0
        assert "mlp_fed" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        # fraud_concentration was label_skew's own knob; label_skew now cuts
        # each class by dirichlet_alpha, and a config still holding it is refused.
        for config in ('{"no_such_field": 1}', '{"fraud_concentration": 0.8}'):
            bad = tmp_path / "bad.json"
            bad.write_text(config)
            out = tmp_path / "o"
            rc = cli.main(["benchmark", "--config", str(bad), "--out", str(out)])
            assert rc == 1
            assert "unknown config fields" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exit_one(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"seed": "\xff"}')
        out = tmp_path / "o"
        rc = cli.main(["benchmark", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: cannot read (")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["benchmark", "fed-vs-central", "sweep-sampling"])
    @pytest.mark.parametrize("body, counts", [
        ("", "0 fraud and 0 legit"), ("1.0,0\n2.0,0\n3.0,0\n", "0 fraud and 3 legit"),
    ], ids=["header_only", "all_legit"])
    def test_one_class_source_exit_two_before_writing(self, tmp_path, capsys,
                                                      command, body, counts):
        path = tmp_path / "one_class.csv"
        path.write_text("V1,Class\n" + body)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep_sample_counts": [2]}))
        out = tmp_path / "o"
        rc = cli.main([command, "--data", str(path), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and counts in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, extra, message", [
        (["benchmark"], {}, "test set has 0 fraud and 0 legit rows (ratio 1:1, "
                            "test_fraction 0.2); both classes are needed"),
        (["benchmark", "--ratio", "1:100"], {}, "test set has 0 fraud and 40 legit rows "
                                                "(ratio 1:100, test_fraction 0.2)"),
        (["benchmark", "--ratio", "100:1"], {}, "train set has 2 fraud and 0 legit rows "
                                                "(ratio 100:1, test_fraction 0.2)"),
        (["fed-vs-central"], {}, "test set has 0 fraud and 0 legit rows (ratio 1:1,"),
        (["sweep-sampling"], {}, "sample_count 500, ratio 1:1: test set has 0 fraud and "
                                 "0 legit rows (ratio 1:1, test_fraction 0.2)"),
        (["sweep-sampling"], {"sweep_ratios": ["100:1"]},
         "sample_count 500, ratio 100:1: train set has 1 fraud and 0 legit rows "
         "(ratio 100:1, test_fraction 0.2)"),
    ], ids=["benchmark", "benchmark_1_to_100", "benchmark_100_to_1", "fed_vs_central",
            "sweep_point", "sweep_point_100_to_1"])
    def test_unusable_split_exit_two_before_writing(self, tmp_path, capsys, argv, extra,
                                                    message):
        # Two fraud rows in 3 000: a resampled train or test set cannot hold
        # both classes, so no model could be fitted or scored on it.
        gen = np.random.default_rng(3)
        labels = np.zeros(3000, dtype=np.intp)
        labels[[10, 2000]] = 1
        path = tmp_path / "two_fraud.csv"
        data.write_csv(data.Dataset(gen.standard_normal((3000, 5)), labels), path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "rounds": 2, "k_clients": 2,
                                   "local_epochs": 1, "sweep_sample_counts": [500],
                                   "sweep_repeats": 1, **extra}))
        out = tmp_path / "o"
        rc = cli.main([*argv, "--data", str(path), "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["benchmark", "--seed", "1"],
         {"synthetic_n": 300, "k_clients": 100, "rounds": 2, "epochs": 1},
         "cannot split 40 rows into 100 shards"),
        (["sweep-sampling"],
         {"synthetic_n": 2000, "rounds": 2, "epochs": 1, "sweep_sample_counts": [50],
          "sweep_repeats": 2, "k_clients": 30},
         "sample_count 50, ratio 1:1: cannot split 8 rows into 30 shards"),
    ], ids=["benchmark", "sweep_point"])
    def test_train_set_smaller_than_k_clients_exit_two(self, tmp_path, capsys, monkeypatch,
                                                       argv, config, message):
        # Refused before any model trains: no central fit, and no warning
        # from scoring one.
        def no_fit(*args):
            raise AssertionError("a central model trained before the refusal")

        monkeypatch.setattr(experiments, "_fit_central", no_fit)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([*argv, "--config", str(cfg), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["benchmark", "fed-vs-central", "sweep-sampling"])
    def test_out_naming_a_file_exit_one_before_reading(self, tmp_path, capsys, command):
        # The source is missing too: the out check comes before it is read.
        out = tmp_path / "o"
        out.write_text("keep")
        rc = cli.main([command, "--data", str(tmp_path / "missing.csv"),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: out: {str(out)!r} exists and is not a directory\n")
        assert out.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]

    @pytest.mark.parametrize("command", ["benchmark", "fed-vs-central", "sweep-sampling"])
    @pytest.mark.parametrize("out, message", [
        ("", "out: must not be empty, got ''"),
        (os.path.join("f", "sub"), "out: 'f' exists and is not a directory"),
    ], ids=["empty", "under_a_file"])
    def test_unusable_out_exit_one_before_reading(self, tmp_path, monkeypatch, capsys,
                                                  command, out, message):
        # No directory can be made at `out`. The source is missing too: the
        # out check comes before it is read, not after training.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text("keep")
        rc = cli.main([command, "--data", "missing.csv", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert (tmp_path / "f").read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    def test_gen_synthetic_output_naming_a_directory_exit_one(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        rc = cli.main(["gen-synthetic", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: --output: {str(out)!r} is a directory\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("output, message", [
        ("", "--output: must not be empty, got ''"),
        (os.path.join("f", "s.csv"), "--output: 'f' exists and is not a directory"),
        (os.path.join("f", "sub", "s.csv"), "--output: 'f' exists and is not a directory"),
        (os.path.join("new", ""), f"--output: {os.path.join('new', '')!r} is a directory"),
        (os.path.join("new", "."), f"--output: {os.path.join('new', '.')!r} is a directory"),
    ], ids=["empty", "under_a_file", "under_a_missing_dir_under_a_file",
            "trailing_separator", "dot"])
    def test_gen_synthetic_unusable_output_exit_one_before_drawing(
            self, tmp_path, monkeypatch, capsys, output, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text("keep")

        def no_draw(*args, **kwargs):
            raise AssertionError("drew the data before refusing --output")

        monkeypatch.setattr(data, "make_synthetic", no_draw)
        rc = cli.main(["gen-synthetic", "--n", "100", "--output", output])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert (tmp_path / "f").read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    def test_gen_synthetic_creates_missing_folders(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for output in (os.path.join("nodir", "sub", "x.csv"), "x.csv"):
            assert cli.main(["gen-synthetic", "--n", "100", "--output", output]) == 0
            assert data.load_csv(output).n_samples == 100
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1), ("partition_scheme", "bogus"),
        ("aggregation_mode", "bogus"), ("batch_size", 0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("epochs", -3), ("test_fraction", 1.5), ("threshold", float("nan")),
        ("dirichlet_alpha", -1), ("dirichlet_alpha", float("inf")),
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
        ("sweep_sample_counts", ()), ("sweep_sample_counts", (100, 100)),
        ("sweep_ratios", ()), ("sweep_ratios", ("1:1", "1:1")),
        ("sweep_ratios", ("1:1", "01:1")), ("sweep_model", "bogus"),
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
        err = capsys.readouterr().err
        assert "config error:" in err
        assert err.startswith(f"usage: fedfraud {argv[0]} ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--data", "--out"])
    def test_gen_synthetic_refuses_flags_it_does_not_read(self, tmp_path, capsys, flag):
        csv_path = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-synthetic", "--output", str(csv_path), flag, str(tmp_path / "x")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert err.startswith("usage: fedfraud gen-synthetic ")
        assert f"config error: unrecognized arguments: {flag} " in err
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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_bad_row_in_a_pipe_exit_two(self, tmp_path, capsys):
        read_end, write_end = os.pipe()
        os.write(write_end, b"V1,Class\n1.0,0\nxyz,1\n")
        os.close(write_end)
        out = tmp_path / "o"
        try:
            rc = cli.main(["benchmark", "--data", f"/dev/fd/{read_end}", "--out", str(out)])
        finally:
            os.close(read_end)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: /dev/fd/{read_end}: ") and "'xyz'" in err
        assert not out.exists()

    def test_runtime_error_without_a_message_names_its_class(self, tmp_path, monkeypatch,
                                                             capsys):
        def fail(cfg, *rest):
            raise RuntimeError()

        monkeypatch.setattr(experiments, "run_benchmark", fail)
        assert cli.main(["benchmark", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "runtime error: RuntimeError\n"

    @pytest.mark.parametrize("content,message", [
        (b"V1,Caf\xe9,Class\n1.0,2.0,0\n", "not UTF-8 .*0xe9"),
        (b"V1,Class\n1.0,0\n2.0,1\ncaf\xe9,0\n", "not UTF-8 .*0xe9"),
        (b"V1,Class\n1.0,2\n", "label must be 0 or 1"),
        (b"Class\n0\n1\n0\n1\n", "no feature columns besides 'Class'"),
    ], ids=["header", "body", "bad_label", "label_only"])
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
        assert not out.exists()

    def test_diverged_sweep_cell_exit_three_before_sweep_csv(self, tmp_path, capsys):
        # At this learning rate every federated cell scores all test rows 0.
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(dict(
            learning_rate=5000, synthetic_n=3000, synthetic_features=5,
            sweep_sample_counts=[1000], sweep_repeats=2, rounds=2,
            local_epochs=1, hidden_sizes=[6])))
        out = tmp_path / "o"
        # Every cell is planned before the first trains, so the 1:100 point
        # warns even though the 1:1 point diverges first.
        with pytest.warns(UserWarning, match="keeping all of them"):
            rc = cli.main(["sweep-sampling", "--seed", "1", "--config", str(path),
                           "--out", str(out)])
        assert rc == 3
        assert re.search("mlp_fed: .* diverged", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["benchmark", "fed-vs-central"])
    def test_rounds_csv_scores_at_threshold_like_report(self, tmp_path, command):
        # The last round's global model is the final federated model, so its
        # rounds.csv row must equal report.csv's mlp_fed row at any threshold.
        path = tmp_path / "thr.json"
        path.write_text(json.dumps(dict(threshold=0.2, synthetic_n=3000,
                                        rounds=3, epochs=3)))
        out = tmp_path / "o"
        rc = cli.main([command, "--seed", "1", "--config", str(path),
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

    def test_benchmark_reports_equal_from_the_parse_and_from_the_sidecar(
            self, tmp_path, monkeypatch):
        cfg = _fast_cfg(tmp_path)
        csv_path = tmp_path / "synth.csv"
        sidecar = tmp_path / ".synth.csv.fedfraud.npy"
        assert cli.main(["gen-synthetic", "--seed", "3", "--config", cfg,
                         "--output", str(csv_path)]) == 0
        assert not sidecar.exists()
        argv = ["benchmark", "--seed", "3", "--config", cfg, "--data", str(csv_path)]
        assert cli.main([*argv, "--out", str(tmp_path / "cold")]) == 0
        assert sidecar.is_file()

        def no_parse(*args, **kwargs):
            raise AssertionError("parsed a file whose sidecar matches")

        monkeypatch.setattr(data.np, "loadtxt", no_parse)
        assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0
        for report in ("report.csv", "report.txt", "rounds.csv", "model_fed.json"):
            assert ((tmp_path / "cold" / report).read_bytes()
                    == (tmp_path / "warm" / report).read_bytes()), report

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

    def test_overflowing_column_exit_two_naming_it(self, tmp_path, capsys):
        # Its train mean overflows; before, the run exited 3 and blamed the
        # learning rate for the fit that the column's inf scores broke.
        gen = np.random.default_rng(2)
        features = gen.standard_normal((400, 3))
        features[:, 1] = 1e308
        labels = np.zeros(400, dtype=np.intp)
        labels[::10] = 1
        path = tmp_path / "huge.csv"
        data.write_csv(data.Dataset(features, labels), path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 2, "epochs": 2, "k_clients": 3}))
        out = tmp_path / "o"
        rc = cli.main(["benchmark", "--data", str(path), "--ratio", "1:9",
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "data error: feature column 'V2': train mean inf")
        assert not out.exists()

    def test_huge_test_cell_exit_two_naming_its_column_and_set(self, tmp_path, capsys):
        # Row 37 is legit and lands in the test set, so train's mean and std
        # are finite. Before, its score was inf and the run exited 3 with
        # "mlp_central: 1 of 80 test scores are not finite".
        gen = np.random.default_rng(0)
        features = gen.standard_normal((400, 3)) * 0.1
        labels = np.zeros(400, dtype=np.intp)
        labels[gen.choice(400, 40, replace=False)] = 1
        features[37, 0] = 1e308
        assert labels[37] == 0
        path = tmp_path / "huge.csv"
        data.write_csv(data.Dataset(features, labels, ("a", "b", "c")), path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 2, "epochs": 2, "k_clients": 3}))
        out = tmp_path / "o"
        rc = cli.main(["benchmark", "--data", str(path), "--ratio", "1:9",
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "data error: feature column 'a': a test cell standardizes to a non-finite value")
        assert not out.exists()

    def test_gen_synthetic_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = cli.main(["gen-synthetic", "--seed", "7", "--n", "500",
                           "--fraud-fraction", "0.1", "--features", "4",
                           "--output", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_synthetic_refuses_label_column_naming_a_feature(self, tmp_path,
                                                                 capsys):
        # Its header would name V1 twice, which load_csv refuses.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"label_column": "V1", "synthetic_n": 50}')
        out = tmp_path / "s.csv"
        rc = cli.main(["gen-synthetic", "--config", str(cfg), "--output", str(out)])
        assert rc == 1
        assert "config error: label_column: 'V1'" in capsys.readouterr().err
        assert not out.exists()

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
