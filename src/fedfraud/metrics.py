"""Thresholded confusion-matrix metrics and threshold-free ROC/AUC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class MetricResult(NamedTuple):
    value: float
    degenerate: bool = False  # True when the defining denominator was zero


def confusion(probs, labels, threshold: float = 0.5) -> ConfusionMatrix:
    probs = np.asarray(probs, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if probs.shape != labels.shape:
        raise ShapeError(f"length mismatch: {probs.shape} vs {labels.shape}")
    pred = probs >= threshold
    pos = labels == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise DomainError("accuracy of an empty confusion matrix is undefined")
    return (cm.tp + cm.tn) / cm.total


def precision(cm: ConfusionMatrix) -> MetricResult:
    denom = cm.tp + cm.fp
    if denom == 0:
        return MetricResult(0.0, degenerate=True)
    return MetricResult(cm.tp / denom)


def recall(cm: ConfusionMatrix) -> MetricResult:
    denom = cm.tp + cm.fn
    if denom == 0:
        return MetricResult(0.0, degenerate=True)
    return MetricResult(cm.tp / denom)


def f1(cm: ConfusionMatrix) -> MetricResult:
    p, r = precision(cm).value, recall(cm).value
    if p + r == 0.0:
        return MetricResult(0.0, degenerate=True)
    return MetricResult(2.0 * p * r / (p + r))


def roc_auc(probs, labels):
    """ROC curve and trapezoidal AUC with tied scores grouped into one step.

    Returns (curve, auc) where curve is an (m, 2) array of (FPR, TPR) points
    including (0,0) and (1,1). Grouping ties makes the trapezoid area equal
    the pairwise concordance probability (ties counted half). Raises
    DomainError on a non-finite score or when a class is absent.
    """
    scores = np.asarray(probs, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ShapeError(f"length mismatch: {scores.shape} vs {labels.shape}")
    finite = np.isfinite(scores)
    if not finite.all():
        raise DomainError(f"ROC requires finite scores; {int(np.sum(~finite))} of "
                          f"{scores.size} are not (first at index {int(np.argmin(finite))})")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("ROC requires both classes present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order] == 1
    # Threshold indices: last position of each tied score group.
    distinct = np.flatnonzero(s[1:] != s[:-1])
    last = np.concatenate([distinct, [s.size - 1]])
    tps = np.cumsum(y)[last]
    fps = 1 + last - tps
    tpr = np.concatenate([[0.0], tps / n_pos, [1.0]])
    fpr = np.concatenate([[0.0], fps / n_neg, [1.0]])
    curve = np.column_stack([fpr, tpr])
    auc = float(np.trapezoid(tpr, fpr))
    return curve, auc


def summarize(probs, labels, threshold: float = 0.5) -> dict:
    """All benchmark metrics at once: auc, accuracy, precision, recall, f1."""
    cm = confusion(probs, labels, threshold)
    _, auc = roc_auc(probs, labels)
    return {
        "auc": auc,
        "accuracy": accuracy(cm),
        "precision": precision(cm).value,
        "recall": recall(cm).value,
        "f1": f1(cm).value,
    }
