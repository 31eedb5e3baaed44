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
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from . import federated, metrics, models
from .errors import ConfigError, DataError, DomainError
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


def _distinct(values) -> bool:
    return 0 < len(set(values)) == len(values)


BENCHMARK_MODELS = ("lr", "dt", "mlp_central", "mlp_fed")


@dataclass
class ExperimentConfig:
    data: str | None = None            # CSV path; None -> synthetic source
    label_column: str = datamod.DEFAULT_LABEL_COLUMN
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
            ratios = [parse_ratio(r) for r in self.sweep_ratios]
        except ConfigError as exc:
            raise ConfigError(f"sweep_ratios: {exc} (of {self.sweep_ratios!r})") from None
        checks = (
            ("sweep_model", self.sweep_model in BENCHMARK_MODELS,
             f"expected one of {', '.join(BENCHMARK_MODELS)}"),
            ("partition_scheme", self.partition_scheme in datamod.PARTITION_SCHEMES,
             f"expected one of {', '.join(datamod.PARTITION_SCHEMES)}"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("out", self.out != "", "must not be empty"),
            ("k_clients", self.k_clients >= 1, "must be >= 1"),
            # fed_config() checks epochs in MlpHyperparams first, whose message
            # would name `epochs`: this row names the field that is wrong.
            ("local_epochs", self.local_epochs >= 1, "must be >= 1"),
            ("dt_max_depth", self.dt_max_depth is None or self.dt_max_depth >= 0,
             "must be >= 0 or null"),
            ("dt_min_samples_leaf", self.dt_min_samples_leaf >= 1, "must be >= 1"),
            ("ratio", all(r >= 1 for r in self.ratio), "parts must be >= 1"),
            ("test_fraction", 0.0 < self.test_fraction < 1.0, "must be in (0, 1)"),
            ("threshold", 0.0 <= self.threshold <= 1.0, "must be in [0, 1]"),
            ("dirichlet_alpha", 0.0 < self.dirichlet_alpha < math.inf,
             "must be positive and finite"),
            ("sweep_repeats", self.sweep_repeats >= 1, "must be >= 1"),
            ("sweep_sample_counts", all(n >= 1 for n in self.sweep_sample_counts),
             "must all be >= 1"),
            # A sweep.csv row is keyed by (sample_count, ratio, seed).
            ("sweep_sample_counts", _distinct(self.sweep_sample_counts),
             "must be non-empty with no count repeated"),
            ("sweep_ratios", _distinct(ratios), "must be non-empty with no ratio repeated"),
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
            self.fed_config()  # builds self.hyperparams() first
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def hyperparams(self) -> models.MlpHyperparams:
        return models.MlpHyperparams(
            hidden_sizes=self.hidden_sizes,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
        )

    def fed_config(self) -> federated.FedConfig:
        return federated.FedConfig(
            rounds=self.rounds,
            participation=self.participation,
            aggregation_mode=self.aggregation_mode,
            hyperparams=dataclasses.replace(self.hyperparams(), epochs=self.local_epochs),
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read ({exc})")
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
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2)


# --- shared pipeline --------------------------------------------------------

def load_source(cfg: ExperimentConfig) -> datamod.Dataset | datamod.SyntheticSource:
    """The CSV `cfg.data` as a Dataset, or else the synthetic source, whose
    features are drawn only as its rows are taken."""
    if cfg.data is not None:
        return datamod.load_csv(cfg.data, label_column=cfg.label_column)
    rng = Rng(cfg.seed).split("synthetic-source")
    return datamod.make_synthetic(cfg.synthetic_n, cfg.synthetic_fraud_fraction,
                                  cfg.synthetic_separation, cfg.synthetic_features,
                                  rng)


def _refuse_unless_under_a_directory(name: str, path: str) -> None:
    """ConfigError naming `name` unless the nearest existing part of `path`
    (itself, else its closest existing parent) is a directory, or none of
    it exists yet."""
    part = path
    while part and not os.path.lexists(part):
        part = os.path.dirname(part)
    if part and not os.path.isdir(part):
        raise ConfigError(f"{name}: {part!r} exists and is not a directory")


def _training_source(cfg: ExperimentConfig) -> datamod.Dataset | datamod.SyntheticSource:
    """load_source, refused unless it has fraud and legit rows: the training
    commands resample it to a fraud:legit ratio. An `out` whose nearest
    existing part is not a directory is refused first, before the source
    is read."""
    _refuse_unless_under_a_directory("out", cfg.out)
    source = load_source(cfg)
    fraud = source.fraud_count
    if not 0 < fraud < source.n_samples:
        raise DataError(f"{cfg.data or 'synthetic source'}: training needs fraud and legit "
                        f"rows, got {fraud} fraud and {source.n_samples - fraud} legit")
    return source


def plan_cell(labels: np.ndarray, pool: np.ndarray, ratio: tuple[int, int],
              cfg: ExperimentConfig, name: str, rng: Rng):
    """Model `name`'s (train ids, test ids), in the source's numbering: the
    rows `pool` resampled to `ratio`, a stratified cfg.test_fraction of them
    held out. A set without both classes is a DataError, and so is an
    mlp_fed train set with fewer rows than cfg.k_clients."""
    rows = pool[datamod.resample_ratio(labels[pool], ratio, rng.split("resample"))]
    train, test = (rows[ids] for ids in datamod.stratified_split(
        labels[rows], cfg.test_fraction, rng.split("split")))
    for set_name, ids in (("train", train), ("test", test)):
        fraud = int(labels[ids].sum())
        if not 0 < fraud < ids.size:
            raise DataError(f"{set_name} set has {fraud} fraud and {ids.size - fraud} legit "
                            f"rows (ratio {ratio[0]}:{ratio[1]}, test_fraction "
                            f"{cfg.test_fraction}); both classes are needed")
    if name == "mlp_fed":
        datamod.check_shardable(train.size, cfg.k_clients)
    return train, test


def prepare_splits(source, train_ids: np.ndarray, test_ids: np.ndarray):
    """The planned cell's rows (plan_cell) of `source` (load_source's), taken
    in one take call, as (train, test) standardized with train statistics."""
    taken = source.take(np.concatenate((train_ids, test_ids)))
    cut = train_ids.size
    return datamod.standardize(
        datamod.Dataset(taken.features[:cut], taken.labels[:cut], taken.feature_names),
        datamod.Dataset(taken.features[cut:], taken.labels[cut:], taken.feature_names))


# A diverging fit overflows in numpy before its non-finite updates or test
# scores are refused by name, and that refusal is the message; so numpy's
# overflow warnings are silenced, once per call rather than per SGD step.
@np.errstate(over="ignore", invalid="ignore")
def train_model(name: str, cfg: ExperimentConfig, cells):
    """Train one model per cell with the settings of `cfg`, score its test
    set and refuse a diverged fit (_check_not_diverged); `cells` is an
    iterable of (train, test, rng), the pair as prepare_splits gives it.
    Returns one (test scores, test labels, round reports or [], final
    params for mlp_fed else None) per cell.

    mlp_fed cuts each train set into cfg.k_clients shards as its cell
    arrives, then trains the federations side by side in one
    federated.run_training call, each on its cell's rng.seed as master seed.
    """
    if name not in BENCHMARK_MODELS:
        raise ConfigError(f"unknown model {name!r}")
    if name == "mlp_fed":
        cells = [(datamod.partition(train, cfg.k_clients, cfg.partition_scheme,
                                    rng.split("partition"),
                                    dirichlet_alpha=cfg.dirichlet_alpha), test, rng)
                 for train, test, rng in cells]
        fits = federated.run_training([shards for shards, _, _ in cells], cfg.fed_config(),
                                      [rng.seed for _, _, rng in cells])
        results = [(models.mlp_forward(params, test.features)[0], test.labels,
                    reports, params)
                   for (params, reports), (_, test, _) in zip(fits, cells, strict=True)]
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
        return models.DecisionTree(cfg.dt_max_depth, cfg.dt_min_samples_leaf).fit(train)
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
    return repr(float(v)) if isinstance(v, float) else str(v)


def write_rows_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


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
    round_metrics gives it."""
    header = ["round", "participants", "train_loss", "auc", "accuracy",
              "precision", "recall", "f1"]
    write_rows_csv(path, header, [
        [r.round_index, ";".join(str(i) for i in r.participant_ids), r.train_loss,
         *(m[c] for c in header[3:])]
        for r, m in zip(reports, round_metrics, strict=True)])


def _write_common(cfg: ExperimentConfig):
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(config_echo(cfg) + "\n")


# --- runners ----------------------------------------------------------------

def _run_models(cfg: ExperimentConfig, names: tuple, workers: int = 1) -> list[dict]:
    """Train `names` (mlp_fed among them) on one shared cell, planned for
    mlp_fed before any fit, then write config.json, report.csv, report.txt,
    rounds.csv and model_fed.json. Returns the report rows, one per model in
    the given order. rounds.csv scores each round's global model on the test
    set at cfg.threshold, as report.csv scores the final models.

    Each model is one task of _fork_map: with `workers` > 1 the fits run in
    forked processes that inherit the cell, handed out last model first, so
    that two workers start the two MLP fits side by side, and only each
    fit's train_model result comes back. Neither the rows, the files nor the
    warnings and refusals shown depend on `workers`."""
    rng = Rng(cfg.seed)
    source = _training_source(cfg)
    train, test = prepare_splits(source, *plan_cell(
        source.labels, np.arange(source.n_samples), cfg.ratio, cfg, "mlp_fed", rng))
    del source  # not held through the fits
    fits = _fork_map(lambda i: train_model(names[i], cfg, [(train, test, rng)])[0],
                     len(names), workers, reversed(range(len(names))))
    rows = [{"model": name, **metrics.summarize(scores, test.labels, cfg.threshold)}
            for name, (scores, *_) in zip(names, fits, strict=True)]
    _, _, fed_reports, fed_params = fits[names.index("mlp_fed")]
    round_metrics = [metrics.summarize(models.mlp_forward(r.params, test.features)[0],
                                       test.labels, cfg.threshold) for r in fed_reports]

    _write_common(cfg)
    write_rows_csv(os.path.join(cfg.out, "report.csv"), REPORT_COLUMNS,
                   [[r[c] for c in REPORT_COLUMNS] for r in rows])
    write_report_txt(os.path.join(cfg.out, "report.txt"), rows)
    write_rounds_csv(os.path.join(cfg.out, "rounds.csv"), fed_reports, round_metrics)
    models.save_checkpoint(fed_params, os.path.join(cfg.out, "model_fed.json"))
    return rows


def run_benchmark(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Train all benchmark models on one shared split, in up to `workers`
    forked processes; write report files."""
    return _run_models(cfg, BENCHMARK_MODELS, workers)


def run_fed_vs_central(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Same MLP trained centrally and federatedly, in up to `workers` forked
    processes; report the AUC delta."""
    central, fed = ({k: v for k, v in row.items() if k != "model"}
                    for row in _run_models(cfg, ("mlp_central", "mlp_fed"), workers))
    return {
        "central": central,
        "federated": fed,
        "auc_delta": abs(fed["auc"] - central["auc"]),
        "partition_scheme": cfg.partition_scheme,
    }


def _at_point(step, sample_count: int, ratio_name: str, *args):
    """step(sample_count, ratio_name, *args); its Data/DomainError names the grid point."""
    try:
        return step(sample_count, ratio_name, *args)
    except (DomainError, DataError) as exc:
        raise type(exc)(f"sample_count {sample_count}, ratio {ratio_name}: {exc}") from exc


def _plan_point(sample_count: int, ratio_name: str, labels: np.ndarray,
                cfg: ExperimentConfig) -> list:
    """A (train ids, test ids, rng) per repeat of one grid point, rng.seed its
    seed, planned for cfg.sweep_model on a pool of about sample_count rows at
    the source's class mix (at least one of each class), drawn on rng.split("sub")."""
    ratio = parse_ratio(ratio_name)

    def pool_count(n_c):
        return min(max(int(round(sample_count * n_c / labels.size)), 1), n_c)

    rngs = [Rng(cfg.seed + rep).split("sweep", sample_count, ratio_name)
            for rep in range(cfg.sweep_repeats)]
    return [(*plan_cell(labels, datamod.stratified_draw(labels, pool_count, rng.split("sub")),
                        ratio, cfg, cfg.sweep_model, rng), rng) for rng in rngs]


def _sweep_point(sample_count: int, ratio_name: str, source: datamod.Dataset,
                 cfg: ExperimentConfig, cells) -> list[float]:
    """The test AUC of each planned cell of one grid point, its rows taken as
    the cells arrive, trained in one train_model call."""
    fits = train_model(cfg.sweep_model, cfg, ((*prepare_splits(source, train, test), rng)
                                              for train, test, rng in cells))
    return [metrics.roc_auc(scores, labels)[1] for scores, labels, _, _ in fits]


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Sampling-ratio sensitivity: for each (sample_count, ratio, seed), draw
    a pool of sample_count rows, resample to the ratio, train, record AUC.
    A sample_count larger than the source is skipped with a warning, and a
    grid where every one is larger is a DataError. Every cell is planned in
    grid order before any trains; the grid points then train in up to
    `workers` forked processes, largest sample_count first (_fork_map).
    Neither the rows nor sweep.csv, written once all have trained, depend
    on `workers`."""
    source = _training_source(cfg)
    oversized = [n for n in cfg.sweep_sample_counts if n > source.n_samples]
    if len(oversized) == len(cfg.sweep_sample_counts):
        raise DataError(f"sweep_sample_counts: every count exceeds the dataset size "
                        f"{source.n_samples} (the largest is {max(oversized)})")
    for sample_count in oversized:
        warnings.warn(f"sample_count {sample_count} exceeds dataset size "
                      f"{source.n_samples}; skipping")
    points = [(sample_count, ratio_name) for sample_count in cfg.sweep_sample_counts
              if sample_count not in oversized for ratio_name in cfg.sweep_ratios]
    # Every row, drawn once here: the cells take their rows from it, and
    # forked workers share it.
    source = source.materialize()
    plans = [_at_point(_plan_point, *point, source.labels, cfg) for point in points]

    # Largest first, so that no big point starts last and runs alone.
    aucs = _fork_map(lambda i: _at_point(_sweep_point, *points[i], source, cfg, plans[i]),
                     len(points), workers,
                     sorted(range(len(points)), key=lambda i: -points[i][0]))
    _write_common(cfg)
    rows = [{"sample_count": sample_count, "ratio": ratio_name,
             "seed": cfg.seed + rep, "auc": auc}
            for (sample_count, ratio_name), point in zip(points, aucs, strict=True)
            for rep, auc in enumerate(point)]
    rows.sort(key=lambda r: (r["sample_count"], r["ratio"], r["seed"]))
    header = ["sample_count", "ratio", "seed", "auc"]
    write_rows_csv(os.path.join(cfg.out, "sweep.csv"), header,
                   [[r[c] for c in header] for r in rows])
    return rows


# --- forked workers ---------------------------------------------------------

# The task of the _fork_map call that is running. Its workers inherit it
# through fork, so only a task index goes down to them.
_fork_task = None


def _fork_map(task, count: int, workers: int, order) -> list:
    """[task(i) for i in range(count)]. With more than one worker and more
    than one task, the tasks run in min(workers, count) forked processes,
    handed out in `order`, an iterable over a permutation of the indices.
    A worker records its task's warnings and returns its exception as a
    value. The parent re-issues the warnings, then raises the first
    exception, in index order, so the caller sees what the in-process loop
    shows. No worker outlives the call."""
    if workers <= 1 or count <= 1:
        return [task(i) for i in range(count)]
    # Imported here, so that importing the package does not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = list(order)  # read twice below; an iterator would be spent by map
    global _fork_task
    _fork_task = task
    try:
        # fork, named: the workers inherit the task and its data without
        # pickling them, and Python 3.14 changes the default start method.
        # A killed worker makes map raise BrokenProcessPool, where
        # multiprocessing.Pool.map would wait forever for its task.
        with ProcessPoolExecutor(min(workers, count),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            done = dict(zip(order, pool.map(_run_forked, order), strict=True))
    finally:
        _fork_task = None
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    values = []
    for i in range(count):
        value, error, caught = done[i]
        for message, category, filename, lineno in caught:
            # With the module name and registry that warnings.warn uses, so
            # the parent's filters and its once-per-location rule apply.
            module = modules.get(filename)
            warnings.warn_explicit(
                message, category, filename, lineno, getattr(module, "__name__", None),
                None if module is None else vars(module).setdefault("__warningregistry__", {}))
        if error is not None:
            raise error
        values.append(value)
    return values


def _run_forked(i: int):
    """Task i of the running _fork_map, in a worker: (value, exception,
    warnings as (message, category, filename, lineno))."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent's filters decide
        try:
            value, error = _fork_task(i), None
        except Exception as exc:
            value, error = None, exc
    return value, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_gen_synthetic(cfg: ExperimentConfig, path: str) -> datamod.Dataset:
    """Draw the synthetic source and write it to the CSV `path`, creating
    its missing parent folders. A `path` that is empty, a directory, or
    under an existing non-directory is refused before anything is drawn."""
    if not path:
        raise ConfigError("--output: must not be empty, got ''")
    if os.path.isdir(path):
        raise ConfigError(f"--output: {path!r} is a directory")
    _refuse_unless_under_a_directory("--output", os.path.dirname(path))
    source = load_source(dataclasses.replace(cfg, data=None))
    if cfg.label_column in source.feature_names:
        raise ConfigError(f"label_column: {cfg.label_column!r} names a feature "
                          "column of the synthetic data")
    ds = source.materialize()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    datamod.write_csv(ds, path, label_column=cfg.label_column)
    return ds
