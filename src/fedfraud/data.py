"""Dataset loading, standardization, splitting, resampling, partitioning.

All transformations are pure: they return new Dataset objects and never
mutate their inputs. Everything that draws randomness takes an explicit Rng.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError
from .numeric import Rng

DEFAULT_LABEL_COLUMN = "Class"
PARTITION_SCHEMES = ("iid", "quantity_skew", "label_skew")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray    # (n_samples,) int, 1 = fraud
    feature_names: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        if len(self.labels) != self.features.shape[0]:
            raise DataError(
                f"label count {len(self.labels)} != row count {self.features.shape[0]}"
            )
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def fraud_count(self) -> int:
        return int(self.labels.sum())

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class DatasetStack:
    """Datasets that train side by side, one per entry of a K-stacked model
    (models.sgd_epoch). Members are sorted by row count, largest first, so
    at every batch position the members that still have rows form a prefix.
    """

    members: tuple[Dataset, ...]

    def __post_init__(self):
        sizes = [m.n_samples for m in self.members]
        if not sizes:
            raise DomainError("a dataset stack needs at least one member")
        if sizes != sorted(sizes, reverse=True):
            raise DomainError(f"stack members must be largest first, got sizes {sizes}")

    @property
    def n_samples(self) -> int:
        """Rows over all members."""
        return sum(m.n_samples for m in self.members)


@dataclass(frozen=True)
class ClientShard:
    client_id: int
    data: Dataset


@dataclass(frozen=True)
class StandardizationParams:
    mean: np.ndarray
    std: np.ndarray  # population std; zero entries mark constant columns


def load_csv(path, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Load a labeled CSV (header row, numeric cells, {0,1} label column).
    The features are every other column, by position, as a view of the one
    parsed table; a header that names a column twice is a DataError.

    The body is parsed in one np.loadtxt pass: cells may be quoted, blank
    lines are skipped, '#' starts no comment and extra trailing cells are
    ignored. A rejected file is rescanned so the DataError names its 1-based
    row (blank lines count). A file that is not UTF-8 text is a DataError too.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row")
            header = [h.strip().strip('"') for h in header]
            repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
            if repeated is not None:
                raise DataError(f"{path}: header names column {repeated!r} twice")
            if label_column not in header:
                raise DataError(f"{path}: label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)
            feat_idx = [i for i in range(len(header)) if i != label_idx]

            try:
                with warnings.catch_warnings():
                    # A header-only file is an empty dataset, not a warning.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                       usecols=feat_idx + [label_idx], dtype=np.float64,
                                       ndmin=2)
            except ValueError as exc:
                _raise_first_bad_row(path, feat_idx, label_idx)
                raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.start + 1]
        raise DataError(f"{path}: not UTF-8 text (cannot decode byte 0x{bad.hex()})") from exc

    features, labels = table[:, :-1], table[:, -1]
    if not (np.isfinite(features).all() and np.isin(labels, (0.0, 1.0)).all()):
        _raise_first_bad_row(path, feat_idx, label_idx)
        raise DataError(f"{path}: non-finite feature cell or label not 0 or 1")
    return Dataset(features, labels.astype(np.intp), tuple(header[i] for i in feat_idx))


def _cell_float(cell: str) -> float:
    """float() narrowed to the spellings np.loadtxt accepts."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(text)


def _raise_first_bad_row(path, feat_idx: list[int], label_idx: int) -> None:
    """Rescan a file the fast parse rejected; raise DataError naming the
    first bad row. Returns only if every row passes."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                feats = [_cell_float(row[i]) for i in feat_idx]
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: row {row_no}: bad feature cell ({exc})")
            try:
                lab = _cell_float(row[label_idx])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: row {row_no}: bad label cell ({exc})")
            if lab not in (0.0, 1.0):
                raise DataError(
                    f"{path}: row {row_no}: label must be 0 or 1, got {row[label_idx]!r}"
                )
            if not all(math.isfinite(v) for v in feats):
                raise DataError(f"{path}: row {row_no}: non-finite feature cell")


def write_csv(ds: Dataset, path, label_column: str = DEFAULT_LABEL_COLUMN) -> None:
    names = ds.feature_names or tuple(f"V{i+1}" for i in range(ds.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def fit_standardizer(train: Dataset) -> StandardizationParams:
    if train.n_samples == 0:
        raise DomainError("cannot fit standardizer on an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # population formula
    return StandardizationParams(mean, std)


def apply_standardizer(params: StandardizationParams, ds: Dataset) -> Dataset:
    denom = np.where(params.std > 0.0, params.std, 1.0)
    out = ds.features - params.mean
    out /= denom
    return Dataset(out, ds.labels, ds.feature_names)


def stratified_split(ds: Dataset, test_fraction: float, rng: Rng):
    """Split into (train, test) preserving per-class proportions within ±1."""
    if not 0.0 < test_fraction < 1.0:
        raise DomainError(f"test_fraction must be in (0,1), got {test_fraction}")
    test_idx = []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(ds.labels == cls)
        if cls_idx.size == 0:
            raise DomainError(f"class {cls} has no samples, cannot stratify")
        perm = cls_idx[rng.split("split", cls).permutation(cls_idx.size)]
        n_test = int(round(test_fraction * cls_idx.size))
        test_idx.append(perm[:n_test])
    test_idx = np.sort(np.concatenate(test_idx))
    mask = np.ones(ds.n_samples, dtype=bool)
    mask[test_idx] = False
    return ds.take(np.flatnonzero(mask)), ds.take(test_idx)


def resample_ratio(ds: Dataset, fraud_to_legit: tuple[int, int], rng: Rng) -> Dataset:
    """Undersample the majority class to a fraud:legit target ratio.

    All fraud rows are kept; legit rows are drawn uniformly without
    replacement, capped at what is available.
    """
    fraud_part, legit_part = fraud_to_legit
    if fraud_part <= 0 or legit_part <= 0:
        raise DomainError(f"ratio parts must be positive, got {fraud_to_legit}")
    fraud_idx = np.flatnonzero(ds.labels == 1)
    legit_idx = np.flatnonzero(ds.labels == 0)
    if fraud_idx.size == 0:
        raise DomainError("resample_ratio requires at least one fraud sample")
    want_legit = int(round(fraud_idx.size * legit_part / fraud_part))
    if want_legit > legit_idx.size:
        warnings.warn(
            f"ratio asks for {want_legit} legit rows but only {legit_idx.size} "
            "are available; keeping all of them"
        )
        keep_legit = legit_idx
    else:
        keep_legit = legit_idx[rng.split("resample").choice(legit_idx.size, want_legit)]
    idx = np.concatenate([fraud_idx, keep_legit])
    idx = idx[rng.split("resample-shuffle").permutation(idx.size)]
    return ds.take(idx)


def partition(train: Dataset, k: int, scheme: str, rng: Rng,
              dirichlet_alpha: float = 0.5,
              fraud_concentration: float = 0.8) -> list[ClientShard]:
    """Partition rows into k disjoint client shards.

    Schemes: "iid" (near-equal random), "quantity_skew" (Dirichlet sizes),
    "label_skew" (a fraction of fraud rows concentrated on ceil(k/2) shards).
    """
    if k < 1:
        raise DomainError(f"client count must be >= 1, got {k}")
    if train.n_samples < k:
        raise DomainError(f"cannot split {train.n_samples} rows into {k} shards")

    n = train.n_samples
    if scheme == "iid":
        perm = rng.split("partition").permutation(n)
        chunks = np.array_split(perm, k)
    elif scheme == "quantity_skew":
        perm = rng.split("partition").permutation(n)
        props = rng.split("partition-sizes").dirichlet([dirichlet_alpha] * k)
        cuts = np.floor(np.cumsum(props)[:-1] * n).astype(np.intp)
        chunks = [np.asarray(c, dtype=np.intp) for c in np.split(perm, cuts)]
        # Dirichlet tails can starve a shard; steal singletons from the largest.
        for i, c in enumerate(chunks):
            while chunks[i].size == 0:
                j = int(np.argmax([ch.size for ch in chunks]))
                chunks[i] = chunks[j][-1:]
                chunks[j] = chunks[j][:-1]
    elif scheme == "label_skew":
        chunks = _label_skew_chunks(train, k, rng, fraud_concentration)
    else:
        raise DomainError(f"unknown partition scheme {scheme!r}")

    return [ClientShard(i, train.take(np.sort(c))) for i, c in enumerate(chunks)]


def _label_skew_chunks(train: Dataset, k: int, rng: Rng, concentration: float):
    fraud = np.flatnonzero(train.labels == 1)
    legit = np.flatnonzero(train.labels == 0)
    fraud = fraud[rng.split("partition-fraud").permutation(fraud.size)]
    legit = legit[rng.split("partition-legit").permutation(legit.size)]

    heavy = math.ceil(k / 2)
    # With k = 1 there is no light shard to take the rest of the fraud rows.
    n_heavy_fraud = int(round(concentration * fraud.size)) if k > heavy else fraud.size
    heavy_fraud = np.array_split(fraud[:n_heavy_fraud], heavy)
    light_fraud = np.array_split(fraud[n_heavy_fraud:], k - heavy) if k > heavy else []

    chunks = [np.asarray(c, dtype=np.intp) for c in heavy_fraud + list(light_fraud)]
    # Top up with legit rows so shard sizes stay near-equal. This places every
    # legit row: sum(max(target - fraud, 0)) >= n - fraud.size = legit.size.
    targets = [len(c) for c in np.array_split(np.arange(train.n_samples), k)]
    pos = 0
    for i in range(k):
        need = max(targets[i] - chunks[i].size, 0)
        need = min(need, legit.size - pos)
        chunks[i] = np.concatenate([chunks[i], legit[pos:pos + need]])
        pos += need
    return chunks


def make_synthetic(n: int, fraud_fraction: float, separation: float,
                   n_features: int, rng: Rng) -> Dataset:
    """Two Gaussian clusters with class imbalance; cluster means are
    `separation` apart in Euclidean distance, so separation 0 means
    indistinguishable classes."""
    if n <= 0:
        raise DomainError(f"sample count must be positive, got {n}")
    if not 0.0 < fraud_fraction < 1.0:
        raise DomainError(f"fraud_fraction must be in (0,1), got {fraud_fraction}")
    if separation < 0 or n_features < 1:
        raise DomainError("separation must be >= 0 and n_features >= 1")
    labels = (rng.split("labels").uniform(0.0, 1.0, n) < fraud_fraction).astype(np.intp)
    feats = rng.split("features").normal(0.0, 1.0, (n, n_features))
    shift = separation / math.sqrt(n_features)
    feats[labels == 1] += shift
    names = tuple(f"V{i+1}" for i in range(n_features))
    return Dataset(feats, labels, names)
