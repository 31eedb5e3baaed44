"""Dataset loading, standardization, splitting, resampling, partitioning.

Splitting and resampling return row ids, the rest new Datasets; nothing
mutates its input. Everything that draws randomness takes an explicit Rng.
A source of rows is a Dataset (a loaded CSV) or a SyntheticSource, which
draws a row's features only when it is taken; both give their rows as
Datasets through take(ids) and materialize().
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import stat
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError
from .numeric import Rng

DEFAULT_LABEL_COLUMN = "Class"
PARTITION_SCHEMES = ("iid", "quantity_skew", "label_skew")
SYNTHETIC_CHUNK_ROWS = 8192  # rows of the feature stream drawn at a time by a take


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

    def materialize(self) -> "Dataset":
        """Every row as a Dataset: this one, not a copy."""
        return self


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


def load_csv(path, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Load a labeled CSV (header row, numeric cells, {0,1} label column),
    opened once and read only through that handle. The features are every
    other column, by position, as a view of the one parsed table; a header
    that names a column twice is a DataError.

    The body is parsed in one np.loadtxt pass: cells may be quoted, blank
    lines are skipped, '#' starts no comment and extra trailing cells are
    ignored. A rejected regular file is rescanned so the DataError names its
    1-based row (blank lines count); input that cannot be rewound (a pipe)
    is not, and its DataError carries numpy's message. The file is UTF-8
    text, after an optional byte-order mark; any other file is a DataError.

    A regular file is parsed once per content: its table is kept beside it
    in a hidden sidecar, `.<name>.fedfraud.npy` (the .npy table, then its
    key: a format tag and the SHA-256 of the file's bytes and of
    `label_column`), once a parse has passed every check. A later load of
    the same bytes reads it instead of parsing and runs the same checks; a
    sidecar that cannot be read or does not match is parsed over, one that
    cannot be written skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            sidecar, key = _sidecar_and_key(fh, path, label_column)
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
            if not feat_idx:
                raise DataError(f"{path}: no feature columns besides {label_column!r}")

            usecols = feat_idx + [label_idx]
            table = _read_sidecar(sidecar, key, len(usecols))
            parsed = table is None
            if parsed:
                try:
                    with warnings.catch_warnings():
                        # A header-only file is an empty dataset, not a warning.
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                           usecols=usecols, dtype=np.float64, ndmin=2)
                except ValueError as exc:
                    _raise_first_bad_row(fh, path, feat_idx, label_idx)
                    raise DataError(f"{path}: {exc}") from exc
            features, labels = table[:, :-1], table[:, -1]
            if not (np.isfinite(features).all() and np.isin(labels, (0.0, 1.0)).all()):
                _raise_first_bad_row(fh, path, feat_idx, label_idx)
                raise DataError(f"{path}: non-finite feature cell or label not 0 or 1")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.start + 1]
        raise DataError(f"{path}: not UTF-8 text (cannot decode byte 0x{bad.hex()})") from exc

    if parsed and sidecar is not None:
        _write_sidecar(sidecar, key, table)
    return Dataset(features, labels.astype(np.intp), tuple(header[i] for i in feat_idx))


_SIDECAR_TAG = b"fedfraud-table-1"


def _sidecar_and_key(fh, path, label_column: str):
    """The sidecar path and table key of the regular file open as `fh`, whose
    bytes are hashed and `fh` rewound; (None, None) for any other input."""
    import hashlib  # here, so that importing the package does not pay for it
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None, None
    digest = hashlib.sha256()
    while chunk := fh.buffer.read(1 << 20):
        digest.update(chunk)
    fh.seek(0)
    label_digest = hashlib.sha256(label_column.encode("utf-8")).hexdigest()
    key = b" ".join((_SIDECAR_TAG, digest.hexdigest().encode(), label_digest.encode()))
    folder, name = os.path.split(os.fspath(path))
    return os.path.join(folder, f".{name}.fedfraud.npy"), key


def _read_sidecar(sidecar, key: bytes, n_cols: int):
    """The (rows, n_cols) float64 table kept in `sidecar` under `key`, or
    None if there is none (no sidecar, another key, a short or foreign file)."""
    if sidecar is None:
        return None
    try:
        with open(sidecar, "rb") as fh:
            fh.seek(-len(key), os.SEEK_END)
            if fh.read() != key:
                return None
            fh.seek(0)
            table = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if table.dtype == np.float64 and table.ndim == 2 and table.shape[1] == n_cols:
        return table
    return None


def _write_sidecar(sidecar, key: bytes, table: np.ndarray) -> None:
    """Keep `table` in `sidecar` under `key`: written to a temporary file
    beside it, then renamed over it. Any OSError (a read-only folder, a
    full disk) skips the sidecar."""
    tmp = f"{sidecar}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, table)
            fh.write(key)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _cell_float(cell: str) -> float:
    """float() narrowed to the spellings np.loadtxt accepts."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(text)


def _raise_first_bad_row(fh, path, feat_idx: list[int], label_idx: int) -> None:
    """Rescan `fh`, the open file the parse rejected, from its start; raise
    DataError naming the first bad row. Returns if none is or `fh` cannot seek."""
    if not fh.seekable():
        return
    fh.seek(0)
    reader = csv.reader(fh)
    n_header = len(feat_idx) + 1  # every column is a feature or the label
    next(reader, None)
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < n_header:
            raise DataError(f"{path}: row {row_no}: {len(row)} cells, but the header "
                            f"has {n_header}")
        try:
            feats = [_cell_float(row[i]) for i in feat_idx]
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: bad feature cell ({exc})")
        try:
            lab = _cell_float(row[label_idx])
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: bad label cell ({exc})")
        if lab not in (0.0, 1.0):
            raise DataError(f"{path}: row {row_no}: label must be 0 or 1, "
                            f"got {row[label_idx]!r}")
        if not all(math.isfinite(v) for v in feats):
            raise DataError(f"{path}: row {row_no}: non-finite feature cell")


def write_csv(ds: Dataset, path, label_column: str = DEFAULT_LABEL_COLUMN) -> None:
    names = ds.feature_names or tuple(f"V{i+1}" for i in range(ds.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def standardize(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """`train`, then each of `others` (a test set), as new Datasets with
    every feature column centred on train's mean and divided by train's
    population std (a constant column is only centred). A column whose train
    mean or std overflows is a DataError naming it: scaled by an infinite
    std, it would be erased to ±0. So is a cell of any set that standardizes
    to a non-finite value: its model's scores could only be refused later,
    as a diverged fit."""
    if train.n_samples == 0:
        raise DomainError("cannot fit standardizer on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)  # population formula
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        col = int(bad[0])
        raise DataError(f"feature column {_column_name(train, col)!r}: train mean "
                        f"{float(mean[col])!r} and std {float(std[col])!r} must be finite "
                        "to standardize (a cell is too large)")
    denom = np.where(std > 0.0, std, 1.0)
    out = []
    for set_name, ds in zip(("train", *["test"] * len(others)), (train, *others)):
        with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
            features = ds.features - mean
            features /= denom
        bad = np.flatnonzero(~np.isfinite(features).all(axis=0))
        if bad.size:
            col = int(bad[0])
            raise DataError(f"feature column {_column_name(ds, col)!r}: a {set_name} cell "
                            "standardizes to a non-finite value with the train mean "
                            f"{float(mean[col])!r} and std {float(std[col])!r} (a cell is "
                            "too large)")
        out.append(Dataset(features, ds.labels, ds.feature_names))
    return tuple(out)


def _column_name(ds: Dataset, col: int) -> str:
    return ds.feature_names[col] if ds.feature_names else f"#{col + 1}"


def stratified_draw(labels: np.ndarray, count, rng: Rng) -> np.ndarray:
    """Sorted row ids: for each class c (0, then 1) of the n_c rows labelled
    c, the first count(n_c) of them in rng.split(c).gen.permutation order."""
    drawn = []
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        drawn.append(rows[rng.split(cls).gen.permutation(rows.size)][:count(rows.size)])
    return np.sort(np.concatenate(drawn))


def stratified_split(labels: np.ndarray, test_fraction: float, rng: Rng):
    """Row ids (train, test), each sorted; test holds round(test_fraction·n_c)
    of the n_c rows of each class c, drawn by stratified_draw on
    rng.split("split"), so per-class proportions hold within ±1."""
    if not 0.0 < test_fraction < 1.0:
        raise DomainError(f"test_fraction must be in (0,1), got {test_fraction}")
    test = stratified_draw(labels, lambda n_c: int(round(test_fraction * n_c)),
                           rng.split("split"))
    return np.delete(np.arange(labels.size), test), test


def resample_ratio(labels: np.ndarray, fraud_to_legit: tuple[int, int],
                   rng: Rng) -> np.ndarray:
    """Row ids that undersample the majority class to a fraud:legit target
    ratio, in shuffled order.

    All fraud rows are kept (with none, no ids are returned); legit rows are
    drawn uniformly without replacement, capped at what is available.
    """
    fraud_part, legit_part = fraud_to_legit
    if fraud_part <= 0 or legit_part <= 0:
        raise DomainError(f"ratio parts must be positive, got {fraud_to_legit}")
    fraud_idx = np.flatnonzero(labels == 1)
    legit_idx = np.flatnonzero(labels == 0)
    want_legit = int(round(fraud_idx.size * legit_part / fraud_part))
    if want_legit > legit_idx.size:
        warnings.warn(
            f"ratio asks for {want_legit} legit rows but only {legit_idx.size} "
            "are available; keeping all of them"
        )
        keep_legit = legit_idx
    else:
        keep_legit = legit_idx[rng.split("resample").gen.choice(legit_idx.size, want_legit,
                                                                  replace=False)]
    idx = np.concatenate([fraud_idx, keep_legit])
    return idx[rng.split("resample-shuffle").gen.permutation(idx.size)]


def check_shardable(n_rows: int, k: int) -> None:
    """DataError unless `n_rows` rows can be cut into k non-empty client
    shards: a train set with fewer rows than k cannot serve the run."""
    if n_rows < k:
        raise DataError(f"cannot split {n_rows} rows into {k} shards")


def partition(train: Dataset, k: int, scheme: str, rng: Rng,
              dirichlet_alpha: float = 0.5) -> list[ClientShard]:
    """Partition rows into k disjoint, non-empty client shards.

    Schemes: "iid" (near-equal random), "quantity_skew" (shard sizes drawn
    from Dir_k(dirichlet_alpha)) and "label_skew" (each class's rows cut by
    their own Dir_k(dirichlet_alpha) draw, on rng.split("class", c)). A
    Dirichlet tail can leave a shard empty; once the scheme has cut, each
    empty shard takes the last row of the largest one. Fewer than k rows is
    a DataError (check_shardable).
    """
    if k < 1:
        raise DomainError(f"client count must be >= 1, got {k}")
    check_shardable(train.n_samples, k)

    n = train.n_samples
    if scheme == "iid":
        chunks = np.array_split(rng.split("partition").gen.permutation(n), k)
    elif scheme == "quantity_skew":
        chunks = _dirichlet_cut(np.arange(n), k, dirichlet_alpha, rng)
    elif scheme == "label_skew":
        cuts = [_dirichlet_cut(np.flatnonzero(train.labels == c), k, dirichlet_alpha,
                               rng.split("class", c)) for c in (0, 1)]
        chunks = [np.concatenate(runs) for runs in zip(*cuts)]
    else:
        raise DomainError(f"unknown partition scheme {scheme!r}")
    # Runs once, on the combined shards: a class may have fewer rows than k.
    for i in range(k):
        while chunks[i].size == 0:
            j = int(np.argmax([c.size for c in chunks]))
            chunks[i], chunks[j] = chunks[j][-1:], chunks[j][:-1]

    return [ClientShard(i, train.take(np.sort(c))) for i, c in enumerate(chunks)]


def _dirichlet_cut(rows: np.ndarray, k: int, alpha: float, rng: Rng) -> list[np.ndarray]:
    """`rows`, permuted on rng.split("partition"), cut into k runs (some maybe
    empty) at the proportions of one Dir_k(alpha) draw on
    rng.split("partition-sizes")."""
    rows = rows[rng.split("partition").gen.permutation(rows.size)]
    props = rng.split("partition-sizes").gen.dirichlet([alpha] * k)
    return np.split(rows, np.floor(np.cumsum(props)[:-1] * rows.size).astype(np.intp))


def make_synthetic(n: int, fraud_fraction: float, separation: float,
                   n_features: int, rng: Rng) -> "SyntheticSource":
    """Two Gaussian clusters with class imbalance; cluster means are
    `separation` apart in Euclidean distance, so separation 0 means
    indistinguishable classes. The labels are drawn here, the features only
    as rows are taken (SyntheticSource)."""
    if n <= 0:
        raise DomainError(f"sample count must be positive, got {n}")
    if not 0.0 < fraud_fraction < 1.0:
        raise DomainError(f"fraud_fraction must be in (0,1), got {fraud_fraction}")
    if separation < 0 or n_features < 1:
        raise DomainError("separation must be >= 0 and n_features >= 1")
    labels = (rng.split("labels").gen.uniform(0.0, 1.0, n) < fraud_fraction).astype(np.intp)
    names = tuple(f"V{i+1}" for i in range(n_features))
    return SyntheticSource(labels, separation / math.sqrt(n_features), rng, names)


@dataclass(frozen=True)
class SyntheticSource:
    """make_synthetic's rows. Row i's features are row i of one
    (n_samples, n_features) standard-normal draw on rng.split("features"),
    plus `shift` in every column if the row is fraud. Only the taken rows
    are held: take walks that stream from its start, SYNTHETIC_CHUNK_ROWS
    rows at a time, up to the last row asked for, so a row has the same
    bytes however it is taken."""

    labels: np.ndarray  # (n_samples,) int, 1 = fraud
    shift: float
    rng: Rng
    feature_names: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return self.labels.size

    @property
    def fraud_count(self) -> int:
        return int(self.labels.sum())

    def take(self, idx) -> Dataset:
        """The rows `idx` (in that order, repeats kept) as a Dataset."""
        # numpy's rules for an index: a negative id counts from the end, and
        # one out of range is an IndexError.
        idx = np.arange(self.n_samples)[np.asarray(idx, dtype=np.intp)]
        order = np.argsort(idx, kind="stable")
        wanted = idx[order]
        features = np.empty((idx.size, len(self.feature_names)))
        gen = self.rng.split("features").gen
        stop = int(wanted[-1]) + 1 if idx.size else 0
        done = 0  # rows of `wanted` filled so far
        for start in range(0, stop, SYNTHETIC_CHUNK_ROWS):
            chunk = gen.normal(0.0, 1.0, (min(SYNTHETIC_CHUNK_ROWS, self.n_samples - start),
                                          len(self.feature_names)))
            end = int(np.searchsorted(wanted, start + chunk.shape[0]))
            features[order[done:end]] = chunk[wanted[done:end] - start]
            done = end
        labels = self.labels[idx]
        features[labels == 1] += self.shift
        return Dataset(features, labels, self.feature_names)

    def materialize(self) -> Dataset:
        """Every row as a Dataset, drawn in one walk of the stream."""
        return self.take(np.arange(self.n_samples))
