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
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from . import federated, metrics, models
from .errors import ConfigError, DomainError
from .numeric import Rng


_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str}


def _typed(name: str, annotation: str, value):
    """`value` if it has the type that its field's annotation names, else a
    ConfigError naming the field. A bool is not a number and an int is a
    float; a list stands for a tuple, and is returned as one."""
    kind, _, rest = annotation.partition(" | ")
    if value is None and rest == "None":
        return value
    if kind.startswith("tuple["):  # tuple[T, ...] or tuple[T, T]
        entry, _, arity = kind[len("tuple["):-1].partition(", ")
        value = tuple(value) if isinstance(value, list) else value
        ok = (isinstance(value, tuple) and all(_is_a(entry, v) for v in value)
              and (arity == "..." or len(value) == kind.count(",") + 1))
    else:
        ok = _is_a(kind, value)
    if not ok:
        raise ConfigError(f"{name}: expected {annotation}, got {value!r}")
    return value


def _is_a(kind: str, value) -> bool:
    return isinstance(value, _SCALAR_TYPES[kind]) and not isinstance(value, bool)


BENCHMARK_MODELS = ("lr", "dt", "mlp_central", "mlp_fed")


@dataclass
class ExperimentConfig:
    data: str | None = None            # CSV path; None -> synthetic source
    label_column: str = "Class"
    seed: int = 0
    out: str = "out"
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
        # Every field takes only values of its annotated type: no float for
        # an int, nothing int() or a comparison would silently misread.
        for f in dataclasses.fields(self):
            setattr(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        try:
            for r in self.sweep_ratios:
                parse_ratio(r)
        except ConfigError as exc:
            raise ConfigError(f"sweep_ratios: {exc} (of {self.sweep_ratios!r})") from None
        if self.sweep_model not in BENCHMARK_MODELS:
            raise ConfigError(f"sweep_model: unknown model {self.sweep_model!r}")
        if self.partition_scheme not in datamod.PARTITION_SCHEMES:
            raise ConfigError(
                f"partition_scheme: expected one of {', '.join(datamod.PARTITION_SCHEMES)}, "
                f"got {self.partition_scheme!r}")
        checks = (
            ("seed", self.seed >= 0, "must be >= 0"),
            ("k_clients", self.k_clients >= 1, "must be >= 1"),
            ("local_epochs", self.local_epochs >= 1, "must be >= 1"),
            ("aggregation_mode", self.aggregation_mode in (federated.FEDAVG, federated.FEDSGD),
             f"must be {federated.FEDAVG!r} or {federated.FEDSGD!r}"),
            ("dt_max_depth", self.dt_max_depth is None or self.dt_max_depth >= 0,
             "must be >= 0 or null"),
            ("dt_min_samples_leaf", self.dt_min_samples_leaf >= 1, "must be >= 1"),
            ("ratio", all(r >= 1 for r in self.ratio), "parts must be >= 1"),
            ("test_fraction", 0.0 < self.test_fraction < 1.0, "must be in (0, 1)"),
            ("threshold", 0.0 <= self.threshold <= 1.0, "must be in [0, 1]"),
            ("dirichlet_alpha", 0.0 < self.dirichlet_alpha < math.inf,
             "must be positive and finite"),
            ("fraud_concentration", 0.0 <= self.fraud_concentration <= 1.0,
             "must be in [0, 1]"),
            ("sweep_repeats", self.sweep_repeats >= 1, "must be >= 1"),
            ("sweep_sample_counts", all(n >= 1 for n in self.sweep_sample_counts),
             "must all be >= 1"),
            ("synthetic_n", self.synthetic_n >= 1, "must be >= 1"),
            ("synthetic_fraud_fraction", 0.0 < self.synthetic_fraud_fraction < 1.0,
             "must be in (0, 1)"),
            ("synthetic_separation", 0.0 <= self.synthetic_separation < math.inf,
             "must be >= 0 and finite"),
            ("synthetic_features", self.synthetic_features >= 1, "must be >= 1"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ConfigError(f"{name}: {rule}, got {getattr(self, name)!r}")
        try:
            self.hyperparams()
            self.fed_config()
            self.decision_tree()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def hyperparams(self, epochs: int | None = None) -> models.MlpHyperparams:
        return models.MlpHyperparams(
            hidden_sizes=self.hidden_sizes,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs if epochs is None else epochs,
        )

    def decision_tree(self) -> models.DecisionTree:
        return models.DecisionTree(self.dt_max_depth, self.dt_min_samples_leaf)

    def fed_config(self) -> federated.FedConfig:
        return federated.FedConfig(
            rounds=self.rounds,
            participation=self.participation,
            aggregation_mode=self.aggregation_mode,
            hyperparams=self.hyperparams(epochs=self.local_epochs),
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
    return ExperimentConfig(**values)


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
    """Resample to the target ratio, hold out a stratified cfg.test_fraction
    of the rows as the test set, standardize both with train statistics.
    Returns (train, test)."""
    # The input and the resampled rows are dropped before standardizing, so
    # when the caller passes a temporary pool (run_sweep) only train and
    # test are held from then on.
    resampled = datamod.resample_ratio(ds, cfg.ratio, rng.split("resample"))
    del ds
    train, test = datamod.stratified_split(resampled, cfg.test_fraction,
                                           rng.split("split"))
    del resampled
    std = datamod.fit_standardizer(train)
    return datamod.apply_standardizer(std, train), datamod.apply_standardizer(std, test)


# A diverging fit overflows in numpy before its non-finite updates or test
# scores are refused by name, and that refusal is the message; so numpy's
# overflow warnings are silenced, once per call rather than per SGD step.
@np.errstate(over="ignore", invalid="ignore")
def train_model(name: str, cfg: ExperimentConfig, cells):
    """Train one model per cell with the settings of `cfg`, score its test
    set and refuse a diverged fit (_check_not_diverged); `cells` is an
    iterable of (train, test, rng). Returns one (test scores, test labels,
    round reports or [], final params for mlp_fed else None) per cell.

    mlp_fed trains the cells' federations side by side in one
    federated.run_training call, each on its cell's rng.seed as master seed.
    Each cell is partitioned as soon as it is drawn, so of a cell only its
    shards and test set stay held.
    """
    if name not in BENCHMARK_MODELS:
        raise ConfigError(f"unknown model {name!r}")
    if name == "mlp_fed":
        shards, tests, seeds = [], [], []
        for train, test, rng in cells:
            shards.append(datamod.partition(
                train, cfg.k_clients, cfg.partition_scheme,
                rng.split("partition"), dirichlet_alpha=cfg.dirichlet_alpha,
                fraud_concentration=cfg.fraud_concentration))
            tests.append(test)
            seeds.append(rng.seed)
        fits = federated.run_training(shards, cfg.fed_config(), seeds)
        results = [(models.mlp_forward(params, test.features)[0], test.labels,
                    reports, params)
                   for (params, reports), test in zip(fits, tests, strict=True)]
    else:
        results = [(_fit_central(name, train, cfg, rng).predict_proba(test.features),
                    test.labels, [], None) for train, test, rng in cells]
    for scores, *_ in results:
        _check_not_diverged(name, scores)
    return results


def _fit_central(name: str, train: datamod.Dataset, cfg: ExperimentConfig, rng: Rng):
    if name == "lr":
        return models.LogisticRegression(cfg.hyperparams()).fit(train, rng.split("lr"))
    if name == "dt":
        return cfg.decision_tree().fit(train)
    return models.MlpClassifier(cfg.hyperparams()).fit(train, rng.split("mlp"))


def _check_not_diverged(name: str, scores: np.ndarray) -> None:
    """Refuse a model whose test scores are not all finite, or a
    gradient-trained one whose test scores are all equal: its fit diverged,
    and its metrics would read as a plain bad model (or fail in the ROC
    with no model named). A tree may be a single leaf, so dt is not checked
    for equal scores."""
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise DomainError(f"{name}: {bad} of {scores.size} test scores are not "
                          "finite; the fit diverged (try a smaller learning_rate)")
    if name != "dt" and np.ptp(scores) == 0:
        raise DomainError(f"{name}: every test score is {float(scores[0])!r}; the fit "
                          "diverged (try a smaller learning_rate)")


# --- report writing ---------------------------------------------------------

REPORT_COLUMNS = ("model", "auc", "precision", "recall", "f1", "accuracy")


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
    lines = [" ".join(f"{c:>12}" for c in REPORT_COLUMNS)]
    for row in rows:
        cells = [row["model"]] + [f"{row[c]:.4f}" for c in REPORT_COLUMNS[1:]]
        lines.append(" ".join(f"{c:>12}" for c in cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rounds_csv(path, reports: list[federated.RoundReport],
                     round_metrics: list[dict]):
    """One row per round: its participants, train loss and the metrics dict
    round_metrics gives it ({} leaves the metric cells empty)."""
    header = ["round", "participants", "train_loss", "auc", "accuracy",
              "precision", "recall", "f1"]
    write_rows_csv(path, header, [
        [r.round_index, ";".join(str(i) for i in r.participant_ids), r.train_loss,
         *(m.get(c, "") for c in header[3:])]
        for r, m in zip(reports, round_metrics, strict=True)])


def _write_common(cfg: ExperimentConfig, out: str):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(config_echo(cfg) + "\n")


# --- runners ----------------------------------------------------------------

def _run_models(cfg: ExperimentConfig, names, score_rounds: bool) -> list[dict]:
    """Train `names` (mlp_fed among them) on one shared split and write
    report.csv, report.txt, rounds.csv and model_fed.json. Returns the
    report rows, one per model in the given order. With `score_rounds`,
    rounds.csv scores each round's global model on the test set at
    cfg.threshold, as report.csv scores the final models."""
    source = load_source(cfg)
    _write_common(cfg, cfg.out)
    rng = Rng(cfg.seed)
    train, test = prepare_splits(source, cfg, rng)

    rows = []
    for name in names:
        [(scores, _, reports, params)] = train_model(name, cfg, [(train, test, rng)])
        rows.append({"model": name,
                     **metrics.summarize(scores, test.labels, cfg.threshold)})
        if name == "mlp_fed":
            fed_reports, fed_params = reports, params
    round_metrics = [
        metrics.summarize(models.mlp_forward(r.params, test.features)[0],
                          test.labels, cfg.threshold) if score_rounds else {}
        for r in fed_reports]

    write_rows_csv(os.path.join(cfg.out, "report.csv"), REPORT_COLUMNS,
                   [[r[c] for c in REPORT_COLUMNS] for r in rows])
    write_report_txt(os.path.join(cfg.out, "report.txt"), rows)
    write_rounds_csv(os.path.join(cfg.out, "rounds.csv"), fed_reports, round_metrics)
    models.save_checkpoint(fed_params, os.path.join(cfg.out, "model_fed.json"))
    return rows


def run_benchmark(cfg: ExperimentConfig) -> list[dict]:
    """Train all benchmark models on one shared split; write report files."""
    return _run_models(cfg, BENCHMARK_MODELS, score_rounds=False)


def run_fed_vs_central(cfg: ExperimentConfig) -> dict:
    """Same MLP trained centrally and federatedly; report the AUC delta and
    the per-round convergence series (rounds.csv scores every round)."""
    central, fed = ({k: v for k, v in row.items() if k != "model"}
                    for row in _run_models(cfg, ("mlp_central", "mlp_fed"),
                                           score_rounds=True))
    return {
        "central": central,
        "federated": fed,
        "auc_delta": abs(fed["auc"] - central["auc"]),
        "partition_scheme": cfg.partition_scheme,
    }


def _stratified_subsample(ds: datamod.Dataset, n: int, rng: Rng) -> datamod.Dataset:
    idx = []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(ds.labels == cls)
        take = int(round(n * cls_idx.size / ds.n_samples))
        take = min(max(take, 1), cls_idx.size)
        perm = cls_idx[rng.split("sub", cls).permutation(cls_idx.size)]
        idx.append(perm[:take])
    return ds.take(np.sort(np.concatenate(idx)))


def _sweep_cells(source: datamod.Dataset, cfg: ExperimentConfig,
                 sample_count: int, ratio_name: str):
    """The sweep_repeats cells (train, test, rng) of one grid point, each
    drawn when the consumer asks for it; rng.seed is the cell's seed."""
    split_cfg = dataclasses.replace(cfg, ratio=parse_ratio(ratio_name))
    for rep in range(cfg.sweep_repeats):
        seed = cfg.seed + rep
        rng = Rng(seed).split("sweep", sample_count, ratio_name)
        train, test = prepare_splits(_stratified_subsample(source, sample_count, rng),
                                     split_cfg, rng)
        yield train, test, rng


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Sampling-ratio sensitivity: for each (sample_count, ratio, seed), draw
    a pool of sample_count rows, resample to the ratio, train, record AUC.
    The repeats of one (sample_count, ratio) grid point train in one
    train_model call."""
    source = load_source(cfg)
    _write_common(cfg, cfg.out)

    rows = []
    for sample_count in cfg.sweep_sample_counts:
        if sample_count > source.n_samples:
            warnings.warn(
                f"sample_count {sample_count} exceeds dataset size "
                f"{source.n_samples}; skipping"
            )
            continue
        for ratio_name in cfg.sweep_ratios:
            fits = train_model(cfg.sweep_model, cfg, _sweep_cells(
                source, cfg, sample_count, ratio_name))
            for rep, (scores, labels, _, _) in enumerate(fits):
                _, auc = metrics.roc_auc(scores, labels)
                rows.append({"sample_count": sample_count, "ratio": ratio_name,
                             "seed": cfg.seed + rep, "auc": auc})

    rows.sort(key=lambda r: (r["sample_count"], r["ratio"], r["seed"]))
    header = ["sample_count", "ratio", "seed", "auc"]
    write_rows_csv(os.path.join(cfg.out, "sweep.csv"), header,
                   [[r[c] for c in header] for r in rows])
    return rows


def run_gen_synthetic(cfg: ExperimentConfig, path: str) -> datamod.Dataset:
    ds = load_source(dataclasses.replace(cfg, data=None))
    datamod.write_csv(ds, path, label_column=cfg.label_column)
    return ds
