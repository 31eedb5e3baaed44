import warnings

import numpy as np
import pytest

from fedfraud import metrics
from fedfraud.errors import DomainError, ShapeError
from fedfraud.metrics import ConfusionMatrix, confusion, roc_auc


def pairwise_auc(scores, labels):
    """O(n^2) concordance oracle: P(score_pos > score_neg) + half the ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_scores(self):
        cm = confusion([0.9, 0.8, 0.1], [1, 1, 0], 0.5)
        assert (cm.fp, cm.fn) == (0, 0)
        assert (cm.tp, cm.tn) == (2, 1)

    def test_zero_threshold_all_positive(self):
        cm = confusion([0.0, 0.3, 0.9], [1, 0, 1], 0.0)
        assert (cm.fn, cm.tn) == (0, 0)
        assert (cm.tp, cm.fp) == (2, 1)

    def test_hand_enumeration(self):
        probs = [0.7, 0.4, 0.6, 0.2]
        labels = [1, 1, 0, 0]
        cm = confusion(probs, labels, 0.5)
        # per-sample: tp, fn, fp, tn
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_counts_sum_to_total_at_every_threshold(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=50)
        labels = (rng.uniform(size=50) > 0.5).astype(int)
        for theta in np.linspace(0, 1, 11):
            assert confusion(probs, labels, theta).total == 50

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([0.5], [1, 0])


class TestScalarMetrics:
    def test_accuracy_hand_case(self):
        assert metrics.accuracy(ConfusionMatrix(2, 1, 0, 3)) == pytest.approx(5 / 6)

    def test_accuracy_extremes(self):
        assert metrics.accuracy(ConfusionMatrix(5, 0, 0, 5)) == 1.0
        assert metrics.accuracy(ConfusionMatrix(0, 5, 5, 0)) == 0.0

    def test_accuracy_empty_rejected(self):
        with pytest.raises(DomainError):
            metrics.accuracy(ConfusionMatrix(0, 0, 0, 0))

    def test_precision(self):
        assert metrics.precision(ConfusionMatrix(8, 2, 0, 0)).value == 0.8
        assert metrics.precision(ConfusionMatrix(3, 0, 1, 0)).value == 1.0

    def test_precision_degenerate(self):
        result = metrics.precision(ConfusionMatrix(0, 0, 2, 3))
        assert result.value == 0.0
        assert result.degenerate

    def test_recall(self):
        assert metrics.recall(ConfusionMatrix(6, 0, 4, 0)).value == 0.6
        assert metrics.recall(ConfusionMatrix(3, 1, 0, 0)).value == 1.0

    def test_recall_degenerate(self):
        result = metrics.recall(ConfusionMatrix(0, 2, 0, 3))
        assert result.value == 0.0
        assert result.degenerate

    def test_f1_equal_precision_recall(self):
        # F1 == P == R when they coincide
        cm = ConfusionMatrix(77, 23, 23, 0)
        p, r = metrics.precision(cm).value, metrics.recall(cm).value
        assert p == r == 0.77
        assert metrics.f1(cm).value == pytest.approx(0.77)

    def test_f1_degenerate(self):
        assert metrics.f1(ConfusionMatrix(0, 0, 0, 5)).degenerate

    def test_f1_between_min_and_max(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tp, fp, fn, tn = rng.integers(1, 50, size=4)
            cm = ConfusionMatrix(int(tp), int(fp), int(fn), int(tn))
            p, r = metrics.precision(cm).value, metrics.recall(cm).value
            f = metrics.f1(cm).value
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    def test_all_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 20, size=4))
            cm = ConfusionMatrix(tp, fp, fn, tn)
            if cm.total:
                assert 0.0 <= metrics.accuracy(cm) <= 1.0
            assert 0.0 <= metrics.precision(cm).value <= 1.0
            assert 0.0 <= metrics.recall(cm).value <= 1.0
            assert 0.0 <= metrics.f1(cm).value <= 1.0


class TestSummarize:
    def test_degenerate_metrics_warn_by_name(self):
        # Nothing predicted positive: precision is 0/0, F1 is 0/0.
        with pytest.warns(UserWarning) as record:
            out = metrics.summarize([0.1, 0.2, 0.3, 0.4], [1, 0, 1, 0])
        named = sorted(str(w.message).split()[0] for w in record)
        assert named == ["f1", "precision"]
        assert out["precision"] == out["f1"] == 0.0
        assert out["recall"] == 0.0

    def test_well_defined_metrics_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = metrics.summarize([0.9, 0.2, 0.6, 0.4], [1, 0, 1, 0])
        assert list(out) == ["auc", "accuracy", "precision", "recall", "f1"]
        assert out["precision"] == out["recall"] == out["f1"] == 1.0


class TestReportedRowConsistency:
    """The published benchmark rows, cross-checked against the F1 formula."""

    @staticmethod
    def f1_of(p, r):
        return 2 * p * r / (p + r)

    def test_lr_row(self):
        assert self.f1_of(0.82, 0.62) == pytest.approx(0.71, abs=0.005)

    def test_our_row(self):
        assert self.f1_of(0.89, 0.68) == pytest.approx(0.77, abs=0.005)

    def test_dt_row_known_discrepancy(self):
        # The source table prints F1=0.70 for PR=0.85, RE=0.57, but the
        # formula gives ~0.682. Documented inconsistency; do not "fix" it.
        computed = self.f1_of(0.85, 0.57)
        assert computed == pytest.approx(0.682, abs=0.001)
        assert abs(computed - 0.70) > 0.005


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0

    def test_all_ties_give_half(self):
        _, auc = roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert auc == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            labels = np.zeros(n, dtype=int)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            if labels.min() == labels.max():
                continue
            # quantized scores so ties actually occur
            scores = rng.integers(0, 4, size=n) / 3.0
            _, auc = roc_auc(scores, labels)
            assert auc == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=40)
        labels = (rng.uniform(size=40) > 0.6).astype(int)
        curve, _ = roc_auc(scores, labels)
        assert np.array_equal(curve[0], [0.0, 0.0])
        assert np.array_equal(curve[-1], [1.0, 1.0])
        assert (np.diff(curve[:, 0]) >= 0).all()
        assert (np.diff(curve[:, 1]) >= 0).all()
        assert (curve >= 0).all() and (curve <= 1).all()

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            labels = (rng.uniform(size=n) > 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            scores = rng.uniform(size=n)
            _, auc = roc_auc(scores, labels)
            _, auc2 = roc_auc(np.exp(3.0 * scores), labels)
            assert auc2 == pytest.approx(auc, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            roc_auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("scores", [[np.nan, 0.2, 0.3, np.nan],
                                        [0.1, np.inf, 0.3, 0.4]])
    def test_non_finite_scores_rejected(self, scores):
        with pytest.raises(DomainError, match="finite"):
            roc_auc(scores, [1, 0, 1, 0])
