"""Fraud classifiers: MLP trained by backprop/SGD, logistic regression
(the same machinery with no hidden layers), and a CART decision tree.

All three expose fit / predict_proba, which gives fraud probabilities in
[0, 1]; turning them into labels at a threshold is metrics.confusion's job.

The MLP has one forward body (_forward) and one backward body (_backward).
Prediction and the FedSGD gradient (mlp_forward, mlp_backward) and every
SGD step (sgd_step, on a K-stack) go through them, and one epoch loop
(sgd_epoch) trains both a central model, as a stack of one, and a round's
FedAvg clients.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import Dataset, DatasetStack
from .errors import DataError, DomainError, ShapeError
from .numeric import Rng

PROB_EPS = 1e-12  # clamp before log so the loss stays finite
GATHER_BLOCK = 16  # batch positions per row gather in a lockstep epoch

CHECKPOINT_FORMAT = "fedfraud-mlp"
CHECKPOINT_VERSION = 1


@dataclass
class MlpHyperparams:
    hidden_sizes: tuple[int, ...] = (16, 8)
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 5

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if any(h < 1 for h in self.hidden_sizes):
            raise DomainError(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")


@dataclass
class MlpParams:
    """One array per layer plus a flat-vector codec.

    layer_sizes is (input_dim, hidden..., 1); layers[i] has shape
    (layer_sizes[i] + 1, layer_sizes[i+1]): the layer's weight rows, then
    its bias row. The flat vector is the layers raveled in order, so it
    holds each layer's weights row-major and then its biases.
    """

    layer_sizes: tuple[int, ...]
    layers: list[np.ndarray] = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return sum(layer.size for layer in self.layers)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([layer.ravel() for layer in self.layers])

    @classmethod
    def from_vector(cls, layer_sizes, vec: np.ndarray) -> "MlpParams":
        layer_sizes = tuple(int(s) for s in layer_sizes)
        vec = np.asarray(vec, dtype=np.float64)
        layers, pos = [], 0
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            size = (fan_in + 1) * fan_out
            if pos + size <= vec.size:  # else the length check below refuses it
                layers.append(vec[pos:pos + size].reshape(fan_in + 1, fan_out).copy())
            pos += size
        if pos != vec.size:
            raise ShapeError(f"vector length {vec.size} != parameter count {pos}")
        return cls(layer_sizes, layers)


def init_mlp_params(input_dim: int, hidden_sizes, rng: Rng) -> MlpParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    layer_sizes = (int(input_dim),) + tuple(int(h) for h in hidden_sizes) + (1,)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append(np.vstack([rng.split("init", i).gen.uniform(-s, s, (fan_in, fan_out)),
                                 np.zeros((1, fan_out))]))
    return MlpParams(layer_sizes, layers)


def _forward(layers, x):
    """The MLP forward pass: its activations, where activations[0] is x,
    activations[i] is the input to layer i (a hidden ReLU is done in place
    on its matmul result) and activations[-1] is the sigmoid output.

    One model: x is (b, d) and layers[i] is (fan_in + 1, fan_out), weight
    rows then bias row. A stack of K: x is (K, b, d) and layers[i] is
    (K, fan_in + 1, fan_out); entry k sees only x[k]. A stacked matmul makes
    the same gemm call per entry as a 2-D one, so each stack entry is
    bit-identical to a one-model pass on its rows.
    """
    activations = [x]
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = activations[-1] @ layer[..., :-1, :]
        z += layer[..., -1:, :]
        activations.append(kernels.sigmoid(z) if i == last else np.maximum(z, 0.0, out=z))
    return activations


def _backward(layers, activations, y):
    """The MLP backward pass: the gradient of the mean BCE loss over the rows
    of y, one array per layer in _forward's layout. Reads the activations,
    never writes them."""
    # Sigmoid + BCE collapse: dL/dz_out = (p - y) / rows. The subtraction
    # makes a new array, so the in-place ops below leave the activations intact.
    delta = activations[-1] - y[..., None]
    delta /= y.shape[-1]
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        g = grads[i] = np.empty_like(layers[i])
        np.matmul(activations[i].mT, delta, out=g[..., :-1, :])
        delta.sum(axis=-2, out=g[..., -1, :])
        if i > 0:
            delta = delta @ layers[i][..., :-1, :].mT
            # ReLU'(z) read off its output: max(z, 0) > 0 iff z > 0 (NaN, -0.0 too).
            delta *= activations[i] > 0.0
    return grads


def _rows(features, n_features: int) -> np.ndarray:
    """`features` as a float64 (rows, n_features) array, else ShapeError."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"input must be a 2-D (rows, features) array, got shape {x.shape}")
    if x.shape[1] != n_features:
        raise ShapeError(f"input has {x.shape[1]} features, model expects {n_features}")
    return x


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Forward pass; returns (fraud probabilities, activations for mlp_backward)."""
    activations = _forward(params.layers, _rows(x, params.layer_sizes[0]))
    return activations[-1][:, 0], activations


def mlp_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy."""
    probs = np.asarray(probs, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if probs.shape != labels.shape:
        raise ShapeError(f"loss shape mismatch: {probs.shape} vs {labels.shape}")
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def mlp_backward(params: MlpParams, activations, labels: np.ndarray) -> np.ndarray:
    """Exact gradient of the mean BCE loss, flattened in parameter order."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n = activations[0].shape[0]
    if labels.size != n:
        raise ShapeError(f"{labels.size} labels for activations of {n} rows")
    return MlpParams(params.layer_sizes,
                     _backward(params.layers, activations, labels)).as_vector()


def sgd_step(layers, x, y, lr) -> None:
    """One in-place mini-batch SGD step on a stack of K models: _forward and
    _backward on x (K, b, d) and y (K, b), then `-= lr * grad` on each
    layers[i]."""
    for layer, grad in zip(layers, _backward(layers, _forward(layers, x), y)):
        grad *= lr
        layer -= grad


def sgd_epoch(params: MlpParams, ds: Dataset | DatasetStack, hp: MlpHyperparams,
              rng) -> None:
    """One epoch of mini-batch SGD (sgd_step) over a random permutation of
    each member of a DatasetStack. Works in place on params.layers and
    returns nothing; `ds` is only read.

    For a stack of K members, params holds K-stacked layers (as sgd_step
    takes them) and `rng` is a sequence of K Rngs. Entry k trains on member
    k in the order of rng[k].gen.permutation, and all entries train in
    lockstep: at each batch position one stacked sgd_step serves every
    member with the same batch size. A single Dataset with one model's
    params and one Rng is the one-member case: it trains on [None] views of
    the params' arrays, so the updates land in them.
    """
    if isinstance(ds, Dataset):
        ds, rng = DatasetStack((ds,)), [rng]
        params = MlpParams(params.layer_sizes, [layer[None] for layer in params.layers])
    members = ds.members
    for member in members:
        if member.n_samples == 0:
            raise DomainError("cannot train on an empty shard")
        if member.n_features != params.layer_sizes[0]:
            raise ShapeError(f"input has {member.n_features} features, model "
                             f"expects {params.layer_sizes[0]}")
    if len(rng) != len(members) or params.layers[0].shape[0] != len(members):
        raise ShapeError(f"{len(members)} stack members need as many rngs and "
                         f"stacked models, got {len(rng)} and "
                         f"{params.layers[0].shape[0]}")
    features = [np.asarray(m.features, dtype=np.float64) for m in members]
    labels = [m.labels for m in members]
    sizes = [m.n_samples for m in members]
    orders = [r.gen.permutation(n) for r, n in zip(rng, sizes)]
    # Each step reads its batches as views of x_block / y_block. Every
    # GATHER_BLOCK batch positions, each member with rows left copies its
    # next GATHER_BLOCK batches of rows, in permutation order, into its entry.
    block = GATHER_BLOCK * hp.batch_size
    x_block = np.empty((len(members), min(block, sizes[0]), features[0].shape[1]))
    y_block = np.empty(x_block.shape[:2])
    for start in range(0, sizes[0], hp.batch_size):
        offset = start % block
        # Members with rows left are a prefix; those sharing a batch size
        # are a contiguous range of it, and train on views of the stack.
        batch_sizes = [min(hp.batch_size, n - start) for n in sizes if n > start]
        if offset == 0:
            for k in range(len(batch_sizes)):
                rows = orders[k][start:start + block]
                # The rows are a permutation slice, always in range; "clip"
                # lets take write into out without a buffer.
                np.take(features[k], rows, axis=0, out=x_block[k, :rows.size],
                        mode="clip")
                y_block[k, :rows.size] = labels[k][rows]
        lo = 0
        for size, same in itertools.groupby(batch_sizes):
            hi = lo + len(list(same))
            # A group that is the whole stack (always, for one member) steps
            # on the params themselves: slicing every layer per step costs
            # a few percent of a central MLP fit.
            whole = hi - lo == len(members)
            sgd_step(params.layers if whole else [layer[lo:hi] for layer in params.layers],
                     x_block[lo:hi, offset:offset + size],
                     y_block[lo:hi, offset:offset + size], hp.learning_rate)
            lo = hi


class MlpClassifier:
    """Feed-forward fraud classifier: ReLU hidden layers, sigmoid output."""

    def __init__(self, hyperparams: MlpHyperparams | None = None):
        self.hp = hyperparams or MlpHyperparams()
        self.params: MlpParams | None = None

    def fit(self, train: Dataset, rng: Rng) -> "MlpClassifier":
        self.params = init_mlp_params(train.n_features, self.hp.hidden_sizes, rng)
        for epoch in range(self.hp.epochs):
            sgd_epoch(self.params, train, self.hp, rng.split("epoch", epoch))
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.params is None:
            raise DomainError("model is not fitted")
        probs, _ = mlp_forward(self.params, features)
        return probs


class LogisticRegression(MlpClassifier):
    """Linear map + sigmoid, trained by the same SGD machinery."""

    def __init__(self, hyperparams: MlpHyperparams | None = None):
        super().__init__(dataclasses.replace(hyperparams or MlpHyperparams(),
                                             hidden_sizes=()))


# --- decision tree ----------------------------------------------------------

class DecisionTree:
    """Binary CART tree with Gini impurity splits and midpoint thresholds.

    A fitted tree is five flat node arrays; node 0 is the root. Node i
    sends a row to left[i] if row[feature[i]] <= threshold[i], else to
    right[i]. A leaf has feature, left and right -1; proba[i] is the fraud
    fraction of the training rows that reached node i.
    """

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1):
        if max_depth is not None and max_depth < 0:
            raise DomainError(f"max_depth must be >= 0 or None, got {max_depth}")
        if min_samples_leaf < 1:
            raise DomainError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.n_features: int | None = None
        self.feature = self.threshold = self.left = self.right = self.proba = None

    def fit(self, train: Dataset) -> "DecisionTree":
        """Grow the tree depth first from an explicit stack. Each feature is
        argsorted once at the root; a split partitions its node's (d, m)
        sorted row ids stably into the children's, which keeps each child's
        rows sorted by value. The pending nodes' rows are disjoint, so their
        arrays hold at most (d, n) ids.

        The order of rows with equal values is whatever the sort gives, and
        it changes no node: with 0/1 labels the prefix counts at every valid
        threshold (between two distinct values) are the same in any order,
        the other positions are masked, a node's proba is an exact mean of
        0/1 values, and a midpoint does not depend on which of -0.0 and 0.0
        ends a run of equal values."""
        if train.n_samples == 0:
            raise DomainError("cannot fit a tree on an empty dataset")
        XT = np.ascontiguousarray(train.features.T, dtype=np.float64)
        y = train.labels.astype(np.float64)
        goes_left = np.zeros(train.n_samples, dtype=bool)  # read at node rows only
        leaf = (-1, 0.0, -1, -1, 0.0)  # feature, threshold, left, right, proba
        nodes = [list(leaf)]
        stack = [(0, np.argsort(XT, axis=1), 0)]
        while stack:
            node, order, depth = stack.pop()
            rows = order[0]
            proba = nodes[node][4] = float(y[rows].mean())
            if (proba in (0.0, 1.0)
                    or (self.max_depth is not None and depth >= self.max_depth)
                    or rows.size < 2 * self.min_samples_leaf):
                continue
            f, t, _ = kernels.best_split(XT, y, order, self.min_samples_leaf)
            if f < 0:
                continue
            goes_left[rows] = XT[f, rows] <= t
            sel = goes_left[order]
            n_left = int(sel[0].sum())
            if n_left in (0, rows.size):
                continue
            nodes[node][:4] = f, t, len(nodes), len(nodes) + 1
            nodes += [list(leaf), list(leaf)]
            d = len(order)
            lo, hi = order[sel].reshape(d, n_left), order[~sel].reshape(d, -1)
            del order, rows, sel
            stack += [(len(nodes) - 1, hi, depth + 1), (len(nodes) - 2, lo, depth + 1)]
        self.n_features = XT.shape[0]
        feature, threshold, left, right, proba = zip(*nodes)
        self.feature, self.left, self.right = (np.array(a, dtype=np.intp)
                                               for a in (feature, left, right))
        self.threshold, self.proba = np.array(threshold), np.array(proba)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Walk all rows down together, one vectorized step per depth."""
        if self.proba is None:
            raise DomainError("model is not fitted")
        X = _rows(features, self.n_features)
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            inner = self.feature[at] >= 0
            rows, at = rows[inner], at[inner]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.proba[node]


# --- checkpoint format ------------------------------------------------------
# Versioned JSON: {"format", "version", "layer_sizes", "params"}; params is
# the flat vector, serialized as repr-round-trip floats (exact for float64).

def save_checkpoint(params: MlpParams, path) -> None:
    record = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "params": params.as_vector().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def load_checkpoint(path) -> MlpParams:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: not a model checkpoint")
    if record.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {record.get('version')}")
    return MlpParams.from_vector(record["layer_sizes"],
                                 np.asarray(record["params"], dtype=np.float64))
