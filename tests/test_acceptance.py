"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them).

Criteria needing the public ULB credit-card CSV skip with a notice when the
file is absent; point FEDFRAUD_ULB_CSV at it to enable them.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from fedfraud import cli, data, experiments, federated, metrics, models
from fedfraud.data import Dataset
from fedfraud.experiments import ExperimentConfig
from fedfraud.federated import FEDSGD, FedConfig, run_round
from fedfraud.models import (MlpHyperparams, MlpParams, init_mlp_params,
                             mlp_backward, mlp_forward, mlp_loss)
from fedfraud.numeric import Rng

from test_federated import make_shards
from test_metrics import pairwise_auc
from test_models import finite_difference_gradient

ULB_CSV = os.environ.get("FEDFRAUD_ULB_CSV", os.path.join("data", "creditcard.csv"))

needs_ulb = pytest.mark.skipif(
    not os.path.exists(ULB_CSV),
    reason=f"ULB credit-card CSV not found at {ULB_CSV}; set FEDFRAUD_ULB_CSV",
)


class gate:
    """Prints '[acceptance] <name>: PASS/FAIL (t)' around a criterion body."""

    def __init__(self, name, budget=None):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.1f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"{self.name} took {elapsed:.1f}s, budget {self.budget}s")
        return False


def test_01_gradient_correctness():
    with gate("1 gradient correctness (50 nets vs finite differences)", 10):
        rng = np.random.default_rng(0)
        case = checked = 0
        while checked < 50:
            case += 1
            n_in = int(rng.integers(2, 6))
            depth = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(2, 10)) for _ in range(depth))
            params = init_mlp_params(n_in, hidden, Rng(case))
            n_rows = int(rng.integers(2, 8))
            X = rng.normal(size=(n_rows, n_in))
            y = rng.integers(0, 2, size=n_rows)
            probs, activations = mlp_forward(params, X)
            # Central differences are invalid across the ReLU kink; skip
            # draws whose hidden pre-activations sit within reach of 0.
            if any(np.min(np.abs(a @ layer[:-1] + layer[-1])) < 1e-3 for a, layer in
                   zip(activations[:-2], params.layers)):
                continue
            grad = models.mlp_backward(params, activations, y)
            fd = finite_difference_gradient(params, X, y, step=1e-5)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad) + np.abs(fd))
            assert rel.max() <= 1e-5, f"case {case}: max rel err {rel.max():.2e}"
            checked += 1


def test_02_fedsgd_equals_centralized():
    with gate("2 fedsgd == pooled full-batch step (K=1..5)", 5):
        for k in range(1, 6):
            shards, pooled = make_shards(200 + 30 * k, k, seed=k)
            hp = MlpHyperparams(hidden_sizes=(4,), learning_rate=0.3)
            config = FedConfig(rounds=1, aggregation_mode=FEDSGD, hyperparams=hp)
            master = Rng(k)
            global_params = init_mlp_params(4, (4,), master)
            [report] = run_round([global_params], [shards], config, [master], 0)
            expected = (global_params.as_vector()
                        - 0.3 * mlp_backward(
                            global_params,
                            mlp_forward(global_params, pooled.features)[1],
                            pooled.labels))
            err = np.max(np.abs(report.params.as_vector() - expected))
            assert err <= 1e-12, f"K={k}: max deviation {err:.2e}"


def test_03_auc_oracle_equivalence():
    with gate("3 trapezoidal AUC == pairwise concordance (200 cases)", 5):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = rng.integers(0, 5, size=n) / 4.0  # quantized: real ties
            _, auc = metrics.roc_auc(scores, labels)
            assert auc == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)
            checked += 1


def test_04_metric_formulas():
    with gate("4 confusion-metric formulas + documented F1 discrepancy"):
        cm = metrics.ConfusionMatrix(tp=2, fp=1, fn=0, tn=3)
        assert metrics.accuracy(cm) == pytest.approx(5 / 6, abs=1e-15)

        f1 = 2 * 0.89 * 0.68 / (0.89 + 0.68)
        assert f1 == pytest.approx(0.771, abs=0.001)
        assert f1 == pytest.approx(0.77, abs=0.005)  # matches the printed row

        # The published DT row (PR=0.85, RE=0.57, F1=0.70) is internally
        # inconsistent: the formula yields ~0.682. Assert the inconsistency.
        dt_f1 = 2 * 0.85 * 0.57 / (0.85 + 0.57)
        assert dt_f1 == pytest.approx(0.682, abs=0.001)
        assert abs(dt_f1 - 0.70) > 0.005


@needs_ulb
def test_05_benchmark_reproduction(tmp_path):
    with gate("5 benchmark ordering + floors on ULB data (5 seeds)", 300):
        aucs = {"lr": [], "dt": [], "mlp_fed": []}
        f1s = []
        for seed in range(5):
            cfg = ExperimentConfig(data=ULB_CSV, seed=seed, ratio=(1, 1),
                                   out=str(tmp_path / f"s{seed}"))
            rows = {r["model"]: r for r in experiments.run_benchmark(cfg)}
            for name in aucs:
                aucs[name].append(rows[name]["auc"])
            f1s.append(rows["mlp_fed"]["f1"])
        mean = {k: float(np.mean(v)) for k, v in aucs.items()}
        assert mean["mlp_fed"] > mean["lr"] > mean["dt"], mean
        assert mean["mlp_fed"] >= 0.78, mean
        assert float(np.mean(f1s)) >= 0.70, f1s


@needs_ulb
def test_06_sampling_sweep_reproduction(tmp_path):
    with gate("6 sampling-ratio sweep qualitative shape on ULB data", 900):
        cfg = ExperimentConfig(data=ULB_CSV, seed=0, out=str(tmp_path / "sweep"))
        rows = experiments.run_sweep(cfg)
        means = {}
        for row in rows:
            means.setdefault((row["ratio"], row["sample_count"]), []).append(row["auc"])
        means = {k: float(np.mean(v)) for k, v in means.items()}
        grid = sorted(cfg.sweep_sample_counts)

        for ratio in ("1:1", "1:100"):
            series = [means[(ratio, n)] for n in grid if (ratio, n) in means]
            violations = [max(a - b, 0.0) for a, b in zip(series, series[1:])]
            big = [v for v in violations if v > 0.01]
            assert len(big) <= 1, (ratio, series)
        smallest, largest = grid[0], grid[-1]
        assert means[("1:1", smallest)] > means[("1:100", smallest)], means
        assert means[("1:100", largest)] >= means[("1:1", largest)] - 0.01, means


def test_07_federated_close_to_centralized(tmp_path):
    with gate("7 federated vs centralized AUC gap (synthetic, IID, K=5)", 60):
        cfg = ExperimentConfig(
            out=str(tmp_path / "fvc"), seed=0,
            synthetic_n=4000, synthetic_fraud_fraction=0.15,
            synthetic_separation=3.0, synthetic_features=8,
            k_clients=5, rounds=10, local_epochs=2, epochs=20,
        )
        result = experiments.run_fed_vs_central(cfg)
        assert result["auc_delta"] <= 0.03, result


def test_08_cli_determinism(tmp_path):
    with gate("8 CLI byte-identical reports across runs"):
        outs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / tag
            rc = cli.main(["benchmark", "--seed", "5",
                           "--out", str(out), "--config", _fast_cfg(tmp_path)])
            assert rc == 0
            outs.append(out)
        for name in ("report.csv", "report.txt", "rounds.csv", "model_fed.json"):
            for other in outs[1:]:
                assert filecmp.cmp(outs[0] / name, other / name,
                                   shallow=False), name

        sweeps = []
        for tag in ("sa", "sb"):
            out = tmp_path / tag
            rc = cli.main(["sweep-sampling", "--seed", "5", "--out", str(out),
                           "--config", _sweep_cfg(tmp_path)])
            assert rc == 0
            sweeps.append(out)
        assert filecmp.cmp(sweeps[0] / "sweep.csv", sweeps[1] / "sweep.csv",
                           shallow=False)


def test_09_privacy_boundary():
    with gate("9 aggregator sees only (vector, sample-count) pairs"):
        import inspect

        import fedfraud.aggregation as agg

        assert "Dataset" not in vars(agg)
        assert "ClientShard" not in vars(agg)
        for value in vars(agg).values():
            mod = str(getattr(value, "__module__", "") or "")
            assert "fedfraud.data" not in mod
        src = inspect.getsource(agg)
        assert "ClientShard" not in src and "Dataset" not in src
        assert list(inspect.signature(agg.aggregate).parameters) == ["contributions"]


def test_10_property_suites(tmp_path):
    with gate("10 randomized property suites (100 cases each)"):
        # partition conservation + disjointness
        for case in range(100):
            rng = Rng(case)
            ds = data.make_synthetic(120 + case, 0.25, 1.5, 3, rng)
            k = 1 + case % 6
            scheme = ("iid", "quantity_skew", "label_skew")[case % 3]
            shards = data.partition(ds, k, scheme, rng.split("p"))
            assert sum(s.data.n_samples for s in shards) == ds.n_samples
            seen = np.concatenate([np.asarray([hash(tuple(r)) for r in s.data.features])
                                   for s in shards])
            assert len(seen) == len(set(seen.tolist()))

        # resampling keeps every fraud row and never duplicates
        import warnings
        for case in range(100):
            rng = Rng(1000 + case)
            ds = data.make_synthetic(150, 0.2, 1.5, 3, rng)
            ratio = (1, 1 + case % 5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cap warnings are expected here
                out = ds.take(data.resample_ratio(ds.labels, ratio, rng.split("r")))
            assert out.fraud_count == ds.fraud_count
            rows = [tuple(r) for r in out.features]
            assert len(rows) == len(set(rows))

        # checkpoint round-trip is exact
        path = tmp_path / "ckpt.json"
        for case in range(100):
            rng = np.random.default_rng(case)
            depth = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(1, 8)) for _ in range(depth))
            params = init_mlp_params(int(rng.integers(1, 10)), hidden, Rng(case))
            models.save_checkpoint(params, path)
            back = models.load_checkpoint(path)
            assert back.layer_sizes == params.layer_sizes
            assert np.array_equal(back.as_vector(), params.as_vector())

        # AUC invariance under strictly monotone transforms
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            n = int(rng.integers(4, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = rng.uniform(size=n)
            _, auc = metrics.roc_auc(scores, labels)
            for transform in (lambda s: 3.0 * s + 1.0, np.exp,
                              lambda s: s ** 3 + s):
                _, auc2 = metrics.roc_auc(transform(scores), labels)
                assert auc2 == pytest.approx(auc, abs=1e-12)
            checked += 1


def _fast_cfg(tmp_path):
    import json
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(dict(
        synthetic_n=1500, synthetic_fraud_fraction=0.15,
        synthetic_separation=3.0, synthetic_features=5,
        epochs=4, rounds=3, local_epochs=1, k_clients=3, hidden_sizes=[6],
    )))
    return str(path)


def _sweep_cfg(tmp_path):
    import json
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(dict(
        synthetic_n=2000, synthetic_fraud_fraction=0.15,
        synthetic_separation=3.0, synthetic_features=5,
        epochs=4, rounds=2, local_epochs=1, k_clients=3, hidden_sizes=[6],
        sweep_sample_counts=[400, 800], sweep_ratios=["1:1", "1:3"],
        sweep_repeats=2, sweep_model="lr",
    )))
    return str(path)
