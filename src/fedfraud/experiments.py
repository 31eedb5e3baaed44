"""Experiment runners: model benchmark, sampling-ratio sensitivity sweep,
federated-vs-centralized comparison, synthetic data generation.

Every runner resolves its config up front, threads a single master seed
through all randomness, and writes deterministic report files (no
timestamps; floats serialized via repr) so a fixed seed reproduces output
byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from . import federated, metrics, models
from .errors import ConfigError, DomainError
from .numeric import Rng

RATIOS = {"1:1": (1, 1), "1:100": (1, 100)}


@dataclass
class ExperimentConfig:
    data: str | None = None            # CSV path; None -> synthetic source
    label_column: str = "Class"
    seed: int = 0
    out: str = "out"
    threads: int = 1
    test_fraction: float = 0.2
    ratio: tuple[int, int] = (1, 1)
    threshold: float = 0.5
    # MLP / LR hyperparameters
    hidden_sizes: tuple[int, ...] = (16, 8)
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 20                   # centralized training epochs
    # decision-tree baseline
    dt_max_depth: int | None = 8
    dt_min_samples_leaf: int = 5
    # federated setup
    k_clients: int = 5
    rounds: int = 10
    local_epochs: int = 2
    participation: float = 1.0
    aggregation_mode: str = federated.FEDAVG
    partition_scheme: str = "iid"
    dirichlet_alpha: float = 0.5
    fraud_concentration: float = 0.8
    # synthetic source (used when data is None and by gen-synthetic)
    synthetic_n: int = 20000
    synthetic_fraud_fraction: float = 0.1
    synthetic_separation: float = 3.0
    synthetic_features: int = 10
    # sampling-ratio sweep
    sweep_sample_counts: tuple[int, ...] = (500, 1000, 2000, 5000, 10000, 20000, 50000)
    sweep_ratios: tuple[str, ...] = ("1:1", "1:100")
    sweep_repeats: int = 5
    sweep_model: str = "mlp_fed"

    def __post_init__(self):
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        self.ratio = tuple(int(r) for r in self.ratio)
        self.sweep_sample_counts = tuple(int(n) for n in self.sweep_sample_counts)
        self.sweep_ratios = tuple(self.sweep_ratios)
        if len(self.ratio) != 2:
            raise ConfigError(f"ratio: expected two parts, got {self.ratio}")
        for r in self.sweep_ratios:
            parse_ratio(r)
        if self.sweep_model not in ("lr", "dt", "mlp_central", "mlp_fed"):
            raise ConfigError(f"sweep_model: unknown model {self.sweep_model!r}")
        if self.threads < 1:
            raise ConfigError(f"threads: must be >= 1, got {self.threads}")
        if self.partition_scheme not in datamod.PARTITION_SCHEMES:
            raise ConfigError(
                f"partition_scheme: expected one of {', '.join(datamod.PARTITION_SCHEMES)}, "
                f"got {self.partition_scheme!r}")
        try:
            self.fed_config()  # also builds hyperparams()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def hyperparams(self, epochs: int | None = None) -> models.MlpHyperparams:
        return models.MlpHyperparams(
            hidden_sizes=self.hidden_sizes,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs if epochs is None else epochs,
        )

    def fed_config(self) -> federated.FedConfig:
        return federated.FedConfig(
            k_clients=self.k_clients,
            rounds=self.rounds,
            local_epochs=self.local_epochs,
            participation=self.participation,
            aggregation_mode=self.aggregation_mode,
            hyperparams=self.hyperparams(epochs=self.local_epochs),
            seed=self.seed,
            threads=self.threads,
        )


def parse_ratio(text: str) -> tuple[int, int]:
    try:
        fraud, legit = (int(p) for p in str(text).split(":"))
    except ValueError:
        raise ConfigError(f"ratio: expected 'F:L' integers, got {text!r}")
    if fraud <= 0 or legit <= 0:
        raise ConfigError(f"ratio: parts must be positive, got {text!r}")
    return fraud, legit


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: top level must be an object")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    try:
        return ExperimentConfig(**values)
    except (TypeError, DomainError) as exc:
        raise ConfigError(str(exc))


def config_echo(cfg: ExperimentConfig) -> str:
    d = dataclasses.asdict(cfg)
    return json.dumps(d, sort_keys=True, indent=2, default=list)


# --- shared pipeline --------------------------------------------------------

def load_source(cfg: ExperimentConfig) -> datamod.Dataset:
    if cfg.data is not None:
        return datamod.load_csv(cfg.data, label_column=cfg.label_column)
    rng = Rng(cfg.seed).split("synthetic-source")
    return datamod.make_synthetic(cfg.synthetic_n, cfg.synthetic_fraud_fraction,
                                  cfg.synthetic_separation, cfg.synthetic_features,
                                  rng)


def prepare_splits(ds: datamod.Dataset, cfg: ExperimentConfig, rng: Rng):
    """Resample to the target ratio, split 80/20 stratified, standardize with
    train statistics. Returns (train, test)."""
    resampled = datamod.resample_ratio(ds, cfg.ratio, rng.split("resample"))
    train, test = datamod.stratified_split(resampled, cfg.test_fraction,
                                           rng.split("split"))
    std = datamod.fit_standardizer(train)
    return datamod.apply_standardizer(std, train), datamod.apply_standardizer(std, test)


def train_model(name: str, train: datamod.Dataset, cfg: ExperimentConfig,
                rng: Rng):
    """Train one model; returns (predict_proba callable, round reports or [])."""
    if name == "lr":
        clf = models.LogisticRegression(cfg.hyperparams()).fit(train, rng.split("lr"))
        return clf.predict_proba, []
    if name == "dt":
        clf = models.DecisionTree(cfg.dt_max_depth, cfg.dt_min_samples_leaf)
        clf.fit(train, rng.split("dt"))
        return clf.predict_proba, []
    if name == "mlp_central":
        clf = models.MlpClassifier(cfg.hyperparams()).fit(train, rng.split("mlp"))
        return clf.predict_proba, []
    if name == "mlp_fed":
        shards = datamod.partition(train, cfg.k_clients, cfg.partition_scheme,
                                   rng.split("partition"),
                                   dirichlet_alpha=cfg.dirichlet_alpha,
                                   fraud_concentration=cfg.fraud_concentration)
        params, reports = federated.run_training(shards, None, cfg.fed_config())

        def proba(features):
            p, _ = models.mlp_forward(params, features)
            return p

        proba.params = params
        return proba, reports
    raise ConfigError(f"unknown model {name!r}")


# --- report writing ---------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_rows_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_report_txt(path, rows):
    cols = ["model", "auc", "precision", "recall", "f1", "accuracy"]
    lines = [" ".join(f"{c:>12}" for c in cols)]
    for row in rows:
        cells = [row["model"]] + [f"{row[c]:.4f}" for c in cols[1:]]
        lines.append(" ".join(f"{c:>12}" for c in cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rounds_csv(path, reports: list[federated.RoundReport]):
    header = ["round", "participants", "train_loss", "auc", "accuracy",
              "precision", "recall", "f1"]
    rows = []
    for r in reports:
        m = r.test_metrics or {}
        rows.append([
            r.round_index,
            ";".join(str(i) for i in r.participant_ids),
            r.train_loss,
            m.get("auc", ""), m.get("accuracy", ""), m.get("precision", ""),
            m.get("recall", ""), m.get("f1", ""),
        ])
    write_rows_csv(path, header, rows)


def _write_common(cfg: ExperimentConfig, out: str):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(config_echo(cfg) + "\n")


# --- runners ----------------------------------------------------------------

BENCHMARK_MODELS = ("lr", "dt", "mlp_central", "mlp_fed")


def run_benchmark(cfg: ExperimentConfig) -> list[dict]:
    """Train all benchmark models on one shared split; write report files."""
    _write_common(cfg, cfg.out)
    source = load_source(cfg)
    rng = Rng(cfg.seed)
    train, test = prepare_splits(source, cfg, rng)

    rows = []
    fed_reports = []
    for name in BENCHMARK_MODELS:
        proba, reports = train_model(name, train, cfg, rng)
        row = {"model": name}
        row.update(metrics.summarize(proba(test.features), test.labels,
                                     cfg.threshold))
        rows.append(row)
        if name == "mlp_fed":
            fed_reports = reports
            models.save_checkpoint(proba.params,
                                   os.path.join(cfg.out, "model_fed.json"))

    header = ["model", "auc", "precision", "recall", "f1", "accuracy"]
    write_rows_csv(os.path.join(cfg.out, "report.csv"), header,
                   [[r[c] for c in header] for r in rows])
    write_report_txt(os.path.join(cfg.out, "report.txt"), rows)
    write_rounds_csv(os.path.join(cfg.out, "rounds.csv"), fed_reports)
    return rows


def run_fed_vs_central(cfg: ExperimentConfig) -> dict:
    """Same MLP trained centrally and federatedly; report the AUC delta and
    the per-round convergence series."""
    _write_common(cfg, cfg.out)
    source = load_source(cfg)
    rng = Rng(cfg.seed)
    train, test = prepare_splits(source, cfg, rng)

    central_proba, _ = train_model("mlp_central", train, cfg, rng)
    central = metrics.summarize(central_proba(test.features), test.labels,
                                cfg.threshold)

    shards = datamod.partition(train, cfg.k_clients, cfg.partition_scheme,
                               rng.split("partition"),
                               dirichlet_alpha=cfg.dirichlet_alpha,
                               fraud_concentration=cfg.fraud_concentration)
    params, reports = federated.run_training(shards, test, cfg.fed_config())
    fed_proba, _ = models.mlp_forward(params, test.features)
    fed = metrics.summarize(fed_proba, test.labels, cfg.threshold)

    result = {
        "central": central,
        "federated": fed,
        "auc_delta": abs(fed["auc"] - central["auc"]),
        "partition_scheme": cfg.partition_scheme,
    }
    rows = [dict(model="mlp_central", **central), dict(model="mlp_fed", **fed)]
    header = ["model", "auc", "precision", "recall", "f1", "accuracy"]
    write_rows_csv(os.path.join(cfg.out, "report.csv"), header,
                   [[r[c] for c in header] for r in rows])
    write_report_txt(os.path.join(cfg.out, "report.txt"), rows)
    write_rounds_csv(os.path.join(cfg.out, "rounds.csv"), reports)
    models.save_checkpoint(params, os.path.join(cfg.out, "model_fed.json"))
    return result


def _stratified_subsample(ds: datamod.Dataset, n: int, rng: Rng) -> datamod.Dataset:
    idx = []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(ds.labels == cls)
        take = int(round(n * cls_idx.size / ds.n_samples))
        take = min(max(take, 1), cls_idx.size)
        perm = cls_idx[rng.split("sub", cls).permutation(cls_idx.size)]
        idx.append(perm[:take])
    return ds.take(np.sort(np.concatenate(idx)))


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Sampling-ratio sensitivity: for each (sample_count, ratio, seed), draw
    a pool of sample_count rows, resample to the ratio, train, record AUC."""
    _write_common(cfg, cfg.out)
    source = load_source(cfg)

    rows = []
    for sample_count in cfg.sweep_sample_counts:
        if sample_count > source.n_samples:
            warnings.warn(
                f"sample_count {sample_count} exceeds dataset size "
                f"{source.n_samples}; skipping"
            )
            continue
        for ratio_name in cfg.sweep_ratios:
            ratio = parse_ratio(ratio_name)
            for rep in range(cfg.sweep_repeats):
                seed = cfg.seed + rep
                cell_cfg = dataclasses.replace(cfg, ratio=ratio, seed=seed)
                rng = Rng(seed).split("sweep", sample_count, ratio_name)
                pool = _stratified_subsample(source, sample_count, rng)
                train, test = prepare_splits(pool, cell_cfg, rng)
                proba, _ = train_model(cfg.sweep_model, train, cell_cfg, rng)
                _, auc = metrics.roc_auc(proba(test.features), test.labels)
                rows.append({"sample_count": sample_count, "ratio": ratio_name,
                             "seed": seed, "auc": auc})

    rows.sort(key=lambda r: (r["sample_count"], r["ratio"], r["seed"]))
    header = ["sample_count", "ratio", "seed", "auc"]
    write_rows_csv(os.path.join(cfg.out, "sweep.csv"), header,
                   [[r[c] for c in header] for r in rows])
    return rows


def run_gen_synthetic(cfg: ExperimentConfig, path: str) -> datamod.Dataset:
    rng = Rng(cfg.seed).split("synthetic-source")
    ds = datamod.make_synthetic(cfg.synthetic_n, cfg.synthetic_fraud_fraction,
                                cfg.synthetic_separation, cfg.synthetic_features,
                                rng)
    datamod.write_csv(ds, path, label_column=cfg.label_column)
    return ds
