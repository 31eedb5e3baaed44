"""Fraud classifiers: MLP trained by backprop/SGD, logistic regression
(the same machinery with no hidden layers), and a CART decision tree.

All three expose fit / predict_proba / predict; probabilities are fraud
probabilities in (0,1) and predict(x, threshold) is 1 iff proba >= threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import Dataset
from .errors import DataError, DomainError, ShapeError
from .numeric import Rng, relu, relu_deriv, sigmoid

PROB_EPS = 1e-12  # clamp before log so the loss stays finite

CHECKPOINT_FORMAT = "fedfraud-mlp"
CHECKPOINT_VERSION = 1


@dataclass
class MlpHyperparams:
    hidden_sizes: tuple[int, ...] = (16, 8)
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 5

    def __post_init__(self):
        if self.learning_rate < 0:
            raise DomainError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)


@dataclass
class MlpParams:
    """Per-layer weights/biases plus a flat-vector codec.

    layer_sizes is (input_dim, hidden..., 1); weights[i] has shape
    (layer_sizes[i], layer_sizes[i+1]).
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def as_vector(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, layer_sizes, vec: np.ndarray) -> "MlpParams":
        layer_sizes = tuple(int(s) for s in layer_sizes)
        vec = np.asarray(vec, dtype=np.float64)
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            weights.append(vec[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out).copy())
            pos += fan_in * fan_out
            biases.append(vec[pos:pos + fan_out].copy())
            pos += fan_out
        if pos != vec.size:
            raise ShapeError(f"vector length {vec.size} != parameter count {pos}")
        return cls(layer_sizes, weights, biases)

    def copy(self) -> "MlpParams":
        return MlpParams(self.layer_sizes,
                         [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])


def init_mlp_params(input_dim: int, hidden_sizes, rng: Rng) -> MlpParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    layer_sizes = (int(input_dim),) + tuple(int(h) for h in hidden_sizes) + (1,)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.split("init", i).uniform(-s, s, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layer_sizes, weights, biases)


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Forward pass; returns (fraud probabilities, caches for backprop)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != params.layer_sizes[0]:
        raise ShapeError(
            f"input has {x.shape[1]} features, model expects {params.layer_sizes[0]}"
        )
    activations = [x]
    pre_acts = []
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        pre_acts.append(z)
        h = sigmoid(z) if i == last else relu(z)
        activations.append(h)
    probs = h[:, 0]
    return probs, (activations, pre_acts)


def mlp_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy."""
    probs = np.asarray(probs, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if probs.shape != labels.shape:
        raise ShapeError(f"loss shape mismatch: {probs.shape} vs {labels.shape}")
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def mlp_backward(params: MlpParams, caches, labels: np.ndarray) -> np.ndarray:
    """Exact gradient of the mean BCE loss, flattened in parameter order."""
    activations, pre_acts = caches
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n = activations[0].shape[0]
    if labels.size != n:
        raise ShapeError(f"{labels.size} labels for a cache of {n} rows")

    # Sigmoid + BCE collapse: dL/dz_out = (p - y) / n.
    delta = (activations[-1] - labels.reshape(-1, 1)) / n
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.weights)
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * relu_deriv(pre_acts[i - 1])

    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)


def full_batch_gradient(params: MlpParams, ds: Dataset) -> np.ndarray:
    probs, caches = mlp_forward(params, ds.features)
    return mlp_backward(params, caches, ds.labels)


def sgd_epoch(params: MlpParams, ds: Dataset, hp: MlpHyperparams, rng: Rng) -> None:
    """One epoch of mini-batch SGD over a random permutation of `ds`.

    Works in place: each params.weights[i] / params.biases[i] array is
    updated with `-= learning_rate * grad`, and nothing is returned. Each
    step does the arithmetic of mlp_forward + mlp_backward in the same order,
    so the parameters are bit-identical to `as_vector() - lr * grad` steps.
    `ds` is only read.
    """
    if ds.n_samples == 0:
        raise DomainError("cannot train on an empty shard")
    if ds.n_features != params.layer_sizes[0]:
        raise ShapeError(
            f"input has {ds.n_features} features, model expects {params.layer_sizes[0]}"
        )
    features = np.asarray(ds.features, dtype=np.float64)
    labels = np.asarray(ds.labels, dtype=np.float64)
    weights, biases = params.weights, params.biases
    last = len(weights) - 1
    lr = hp.learning_rate
    order = rng.permutation(ds.n_samples)
    for start in range(0, ds.n_samples, hp.batch_size):
        idx = order[start:start + hp.batch_size]
        # Forward: activations[i] is the input to layer i. A ReLU output is
        # > 0 exactly where its pre-activation is, so it doubles as the mask.
        activations = [features[idx]]
        for w, b in zip(weights[:last], biases[:last]):
            z = activations[-1] @ w
            z += b
            activations.append(np.maximum(z, 0.0, out=z))
        z = activations[-1] @ weights[last]
        z += biases[last]
        # Backward: sigmoid + BCE collapse to dL/dz_out = (p - y) / n.
        delta = kernels.sigmoid(z)
        delta -= labels[idx].reshape(-1, 1)
        delta /= idx.size
        for i in range(last, -1, -1):
            grad_w = activations[i].T @ delta
            grad_b = delta.sum(axis=0)
            if i > 0:
                delta = delta @ weights[i].T
                delta *= activations[i] > 0.0
            grad_w *= lr
            weights[i] -= grad_w
            grad_b *= lr
            biases[i] -= grad_b


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

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(features) >= threshold).astype(np.intp)


class LogisticRegression(MlpClassifier):
    """Linear map + sigmoid, trained by the same SGD machinery."""

    def __init__(self, hyperparams: MlpHyperparams | None = None):
        hp = hyperparams or MlpHyperparams()
        super().__init__(MlpHyperparams(hidden_sizes=(),
                                        learning_rate=hp.learning_rate,
                                        batch_size=hp.batch_size,
                                        epochs=hp.epochs))


# --- decision tree ----------------------------------------------------------

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    proba: float = 0.0  # fraud fraction at this node; used when it is a leaf
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """Binary CART tree with Gini impurity splits and midpoint thresholds."""

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1):
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.root: TreeNode | None = None

    def fit(self, train: Dataset, rng: Rng | None = None) -> "DecisionTree":
        if train.n_samples == 0:
            raise DomainError("cannot fit a tree on an empty dataset")
        X = np.ascontiguousarray(train.features, dtype=np.float64)
        y = train.labels.astype(np.float64)
        self.root = self._build(X, y, depth=0)
        return self

    def _build(self, X, y, depth) -> TreeNode:
        node = TreeNode(proba=float(y.mean()))
        if node.proba in (0.0, 1.0):
            return node
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        if y.size < 2 * self.min_samples_leaf:
            return node
        f, t, _ = kernels.best_split(X, y, self.min_samples_leaf)
        if f < 0:
            return node
        mask = X[:, f] <= t
        if not mask.any() or mask.all():
            return node
        node.feature, node.threshold = f, t
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise DomainError("model is not fitted")
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.proba
        return out

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(features) >= threshold).astype(np.intp)


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
