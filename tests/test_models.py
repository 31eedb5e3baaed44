import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfraud import metrics, models
from fedfraud.data import Dataset, DatasetStack
from fedfraud.errors import DomainError, ShapeError
from fedfraud.models import (MlpHyperparams, MlpParams, init_mlp_params,
                             mlp_backward, mlp_forward, mlp_loss, sgd_epoch)
from fedfraud.numeric import Rng


def scalar_forward(params, row):
    """Neuron-by-neuron oracle: plain Python loops, no matrix ops."""
    h = list(row)
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for j in range(w.shape[1]):
            z = b[j]
            for i in range(w.shape[0]):
                z += h[i] * w[i, j]
            if layer == last:
                out.append(1.0 / (1.0 + math.exp(-z)))
            else:
                out.append(max(0.0, z))
        h = out
    return h[0]


def scalar_backward(params, X, y):
    """Neuron-by-neuron oracle for mlp_backward: the mean BCE gradient summed
    row by row with plain Python loops, flattened as weights[0] (row-major),
    biases[0], weights[1], ... ReLU'(0) is taken as 0."""
    last = len(params.weights) - 1
    grads_w = [[[0.0] * w.shape[1] for _ in range(w.shape[0])] for w in params.weights]
    grads_b = [[0.0] * b.shape[0] for b in params.biases]
    for row, label in zip(X, y):
        inputs, pre_acts = [], []
        h = list(row)
        for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
            inputs.append(h)
            z = []
            for j in range(w.shape[1]):
                zj = b[j]
                for i in range(w.shape[0]):
                    zj += h[i] * w[i, j]
                z.append(zj)
            pre_acts.append(z)
            if layer == last:
                h = [1.0 / (1.0 + math.exp(-zj)) for zj in z]
            else:
                h = [max(0.0, zj) for zj in z]
        delta = [(h[0] - label) / len(y)]
        for layer in range(last, -1, -1):
            w = params.weights[layer]
            for j in range(w.shape[1]):
                grads_b[layer][j] += delta[j]
                for i in range(w.shape[0]):
                    grads_w[layer][i][j] += inputs[layer][i] * delta[j]
            if layer > 0:
                delta = [sum(w[i, j] * delta[j] for j in range(w.shape[1]))
                         if pre_acts[layer - 1][i] > 0.0 else 0.0
                         for i in range(w.shape[0])]
    flat = []
    for gw, gb in zip(grads_w, grads_b):
        for gw_row in gw:
            flat.extend(gw_row)
        flat.extend(gb)
    return np.array(flat)


def finite_difference_gradient(params, X, y, step=1e-5):
    vec = params.as_vector()
    grad = np.empty_like(vec)
    for i in range(vec.size):
        plus = vec.copy()
        plus[i] += step
        minus = vec.copy()
        minus[i] -= step
        p_plus = MlpParams.from_vector(params.layer_sizes, plus)
        p_minus = MlpParams.from_vector(params.layer_sizes, minus)
        lp = mlp_loss(mlp_forward(p_plus, X)[0], y)
        lm = mlp_loss(mlp_forward(p_minus, X)[0], y)
        grad[i] = (lp - lm) / (2.0 * step)
    return grad


class TestMlpParams:
    @pytest.mark.parametrize("hidden", [(), (3,), (4, 2), (5, 3, 2)])
    def test_vector_round_trip(self, hidden):
        params = init_mlp_params(6, hidden, Rng(0))
        back = MlpParams.from_vector(params.layer_sizes, params.as_vector())
        for w1, w2 in zip(params.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, back.biases):
            assert np.array_equal(b1, b2)

    def test_param_count(self):
        params = init_mlp_params(4, (3,), Rng(0))
        assert params.n_params == 4 * 3 + 3 + 3 * 1 + 1
        assert params.as_vector().size == params.n_params

    def test_wrong_vector_length(self):
        with pytest.raises(ShapeError):
            MlpParams.from_vector((2, 1), np.zeros(10))


class TestForward:
    def test_zero_params_give_half(self):
        params = MlpParams((3, 2, 1),
                           [np.zeros((3, 2)), np.zeros((2, 1))],
                           [np.zeros(2), np.zeros(1)])
        probs, _ = mlp_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(probs, np.full(5, 0.5))

    def test_no_hidden_is_logistic_forward(self):
        params = MlpParams((2, 1), [np.array([[1.0], [2.0]])], [np.array([0.5])])
        x = np.array([[1.0, 1.0]])
        probs, _ = mlp_forward(params, x)
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-3.5)), abs=1e-15)

    def test_matches_scalar_oracle(self):
        params = init_mlp_params(5, (4, 3), Rng(7))
        X = np.random.default_rng(1).normal(size=(6, 5))
        probs, _ = mlp_forward(params, X)
        for i, row in enumerate(X):
            assert probs[i] == pytest.approx(scalar_forward(params, row), abs=1e-10)

    def test_dimension_mismatch(self):
        params = init_mlp_params(5, (3,), Rng(0))
        with pytest.raises(ShapeError):
            mlp_forward(params, np.zeros((2, 4)))
        with pytest.raises(ShapeError, match=r"2-D .* got shape \(5,\)"):
            mlp_forward(params, np.zeros(5))


class TestLoss:
    def test_half_probs_give_ln2(self):
        assert mlp_loss([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_predictions(self):
        assert mlp_loss([1.0, 0.0], [1, 0]) <= -math.log(1 - 1e-12) + 1e-15

    def test_hand_case(self):
        expected = -0.5 * (math.log(0.9) + math.log(0.8))
        assert mlp_loss([0.9, 0.2], [1, 0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1643, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mlp_loss([0.5], [1, 0])


class TestBackward:
    def test_matches_finite_differences(self):
        params = init_mlp_params(3, (2,), Rng(3))
        X = np.random.default_rng(2).normal(size=(4, 3))
        y = np.array([1, 0, 0, 1])
        probs, caches = mlp_forward(params, X)
        grad = mlp_backward(params, caches, y)
        fd = finite_difference_gradient(params, X, y)
        assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) <= 1e-5

    def test_doubled_dataset_same_gradient(self):
        params = init_mlp_params(3, (2,), Rng(3))
        X = np.random.default_rng(4).normal(size=(5, 3))
        y = np.array([1, 0, 1, 0, 0])
        _, c1 = mlp_forward(params, X)
        g1 = mlp_backward(params, c1, y)
        X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
        _, c2 = mlp_forward(params, X2)
        g2 = mlp_backward(params, c2, y2)
        assert np.allclose(g1, g2, atol=1e-14)

    @staticmethod
    def _biased_params(hidden):
        params = init_mlp_params(5, hidden, Rng(6))
        rng = np.random.default_rng(7)
        params.biases = [rng.normal(size=b.shape) for b in params.biases]
        return params

    @pytest.mark.parametrize("hidden", [(), (3,), (4, 2)])
    def test_matches_scalar_oracle(self, hidden):
        params = self._biased_params(hidden)
        X = np.random.default_rng(8).normal(size=(7, 5))
        y = np.array([1, 0, 0, 1, 0, 1, 0])
        grad = mlp_backward(params, mlp_forward(params, X)[1], y)
        np.testing.assert_allclose(grad, scalar_backward(params, X, y), rtol=1e-12)

    def test_relu_derivative_at_zero_is_zero(self):
        # Hidden unit 1 of the first layer has a zero weight column and a
        # zero bias, so its pre-activation is exactly 0 on every row.
        params = self._biased_params((4, 2))
        params.weights[0][:, 1] = 0.0
        params.biases[0][1] = 0.0
        X = np.random.default_rng(9).normal(size=(7, 5))
        y = np.array([0, 1, 1, 0, 1, 0, 0])
        assert np.all((X @ params.weights[0] + params.biases[0])[:, 1] == 0.0)
        grad = mlp_backward(params, mlp_forward(params, X)[1], y)
        np.testing.assert_allclose(grad, scalar_backward(params, X, y), rtol=1e-12)
        first = MlpParams.from_vector(params.layer_sizes, grad)
        assert np.all(first.weights[0][:, 1] == 0.0) and first.biases[0][1] == 0.0

    def test_gradient_vanishes_at_analytic_minimum(self):
        # Symmetric 1-D data whose BCE minimum sits exactly at w=0, b=0.
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1, 0, 0, 1])
        ds = Dataset(X, y)
        params = MlpParams((1, 1), [np.zeros((1, 1))], [np.zeros(1)])
        grad = mlp_backward(params, mlp_forward(params, ds.features)[1], ds.labels)
        assert np.linalg.norm(grad) <= 1e-6


def reference_sgd_epoch(params, ds, hp, rng):
    """The unfused epoch: a Dataset per batch, mlp_forward, mlp_backward, and
    a flat-vector step rebuilt through from_vector."""
    order = rng.permutation(ds.n_samples)
    for start in range(0, ds.n_samples, hp.batch_size):
        batch = ds.take(order[start:start + hp.batch_size])
        _, caches = mlp_forward(params, batch.features)
        grad = mlp_backward(params, caches, batch.labels)
        vec = params.as_vector() - hp.learning_rate * grad
        updated = MlpParams.from_vector(params.layer_sizes, vec)
        params.weights, params.biases = updated.weights, updated.biases


class TestSgd:
    def _toy(self):
        rng = Rng(11)
        X = rng.normal(0.0, 1.0, (64, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.intp)
        return Dataset(X, y)

    def test_zero_learning_rate_is_identity(self):
        ds = self._toy()
        params = init_mlp_params(2, (3,), Rng(0))
        before = params.as_vector()
        hp = MlpHyperparams(hidden_sizes=(3,), learning_rate=0.0, batch_size=8)
        sgd_epoch(params, ds, hp, Rng(1))
        assert np.array_equal(params.as_vector(), before)

    def test_full_batch_step_is_one_gradient_step(self):
        ds = self._toy()
        params = init_mlp_params(2, (3,), Rng(0))
        # The epoch shuffles first; use the same permuted batch so the
        # comparison is bit-exact, not just mathematically equal.
        shuffled = ds.take(Rng(1).permutation(ds.n_samples))
        grad = mlp_backward(params, mlp_forward(params, shuffled.features)[1],
                            shuffled.labels)
        expected = params.as_vector() - 0.1 * grad
        hp = MlpHyperparams(hidden_sizes=(3,), learning_rate=0.1,
                            batch_size=ds.n_samples)
        sgd_epoch(params, ds, hp, Rng(1))
        assert np.array_equal(params.as_vector(), expected)

    @pytest.mark.parametrize("hidden, n, batch_size", [
        ((), 96, 32),        # logistic regression
        ((16, 8), 96, 32),
        ((16, 8), 101, 32),  # ragged last batch
        ((4,), 23, 1),
    ])
    def test_bit_identical_to_reference_loop(self, hidden, n, batch_size):
        rng = Rng(21)
        X = rng.normal(0.0, 1.0, (n, 5))
        y = (rng.uniform(0.0, 1.0, n) < 0.3).astype(np.intp)
        ds = Dataset(X, y)
        X_before, y_before = X.copy(), y.copy()
        hp = MlpHyperparams(hidden_sizes=hidden, learning_rate=0.3,
                            batch_size=batch_size)
        fused = init_mlp_params(5, hidden, Rng(4))
        reference = MlpParams.from_vector(fused.layer_sizes, fused.as_vector())
        for e in range(3):
            assert sgd_epoch(fused, ds, hp, Rng(8).split(e)) is None
            reference_sgd_epoch(reference, ds, hp, Rng(8).split(e))
            assert np.array_equal(fused.as_vector(), reference.as_vector())
        assert np.array_equal(ds.features, X_before)
        assert np.array_equal(ds.labels, y_before)

    def test_stack_checks(self):
        ds, small = self._toy(), self._toy().take(range(5))
        with pytest.raises(DomainError, match="largest first"):
            DatasetStack((small, ds))
        with pytest.raises(DomainError, match="at least one"):
            DatasetStack(())
        assert DatasetStack((ds, small)).n_samples == ds.n_samples + 5
        one = init_mlp_params(2, (3,), Rng(0))
        stacked = MlpParams(one.layer_sizes, [np.stack([w, w]) for w in one.weights],
                            [np.stack([b, b]) for b in one.biases])
        hp = MlpHyperparams(hidden_sizes=(3,))
        with pytest.raises(ShapeError, match="2 stack members"):
            sgd_epoch(stacked, DatasetStack((ds, small)), hp, [Rng(1)])

    def test_feature_count_mismatch(self):
        params = init_mlp_params(3, (2,), Rng(0))
        with pytest.raises(ShapeError):
            sgd_epoch(params, self._toy(), MlpHyperparams(hidden_sizes=(2,)), Rng(1))

    def test_loss_improves_on_separable_data(self):
        ds = self._toy()
        hp = MlpHyperparams(hidden_sizes=(4,), learning_rate=0.1,
                            batch_size=8, epochs=1)
        params = init_mlp_params(2, (4,), Rng(2))
        initial = mlp_loss(mlp_forward(params, ds.features)[0], ds.labels)
        rng = Rng(3)
        for e in range(50):
            sgd_epoch(params, ds, hp, rng.split(e))
        final = mlp_loss(mlp_forward(params, ds.features)[0], ds.labels)
        assert final < initial


class TestLogisticRegression:
    def test_zero_weights_half(self):
        params = MlpParams((2, 1), [np.zeros((2, 1))], [np.zeros(1)])
        probs, _ = mlp_forward(params, np.ones((3, 2)))
        assert np.array_equal(probs, np.full(3, 0.5))

    def test_learns_positive_weight(self):
        X = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        clf = models.LogisticRegression(
            MlpHyperparams(learning_rate=0.5, batch_size=8, epochs=30))
        clf.fit(Dataset(X, y), Rng(0))
        assert clf.params.weights[0][0, 0] > 0

    def test_equals_mlp_without_hidden_layers(self):
        rng = Rng(5)
        ds = Dataset(rng.normal(0, 1, (40, 3)),
                     (rng.uniform(0, 1, 40) > 0.5).astype(np.intp))
        hp = MlpHyperparams(hidden_sizes=(), learning_rate=0.1,
                            batch_size=8, epochs=10)
        lr = models.LogisticRegression(hp).fit(ds, Rng(9))
        mlp = models.MlpClassifier(hp).fit(ds, Rng(9))
        assert np.array_equal(lr.params.as_vector(), mlp.params.as_vector())


class TestPredictContract:
    def test_threshold_boundary(self):
        clf = models.MlpClassifier()
        clf.params = MlpParams((1, 1), [np.zeros((1, 1))], [np.zeros(1)])
        # proba is exactly 0.5 everywhere; >= threshold means predicted fraud
        probs = clf.predict_proba(np.zeros((1, 1)))
        assert metrics.confusion(probs, [1], threshold=0.5).tp == 1
        assert metrics.confusion(probs, [1], threshold=0.5 + 1e-12).fn == 1

    def test_proba_in_open_interval(self):
        clf = models.MlpClassifier(MlpHyperparams(epochs=3))
        rng = Rng(0)
        ds = Dataset(rng.normal(0, 1, (50, 3)),
                     (rng.uniform(0, 1, 50) > 0.7).astype(np.intp))
        clf.fit(ds, rng.split("fit"))
        p = clf.predict_proba(ds.features)
        assert (p > 0).all() and (p < 1).all()


def enumerate_best_split(X, y, min_leaf=1):
    """Exhaustive oracle over all features and midpoint thresholds."""
    best = None
    n = len(y)
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            t = 0.5 * (lo + hi)
            left = y[X[:, f] <= t]
            right = y[X[:, f] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gini = 0.0
            for part in (left, right):
                p = part.mean()
                gini += len(part) / n * 2.0 * p * (1.0 - p)
            if best is None or gini < best[2] - 1e-12:
                best = (f, t, gini)
    return best


def oracle_best_split(X, y, min_leaf):
    """The per-node split search that presorting replaced: a stable argsort
    of each feature over the node's own rows."""
    n, d = X.shape
    best_f, best_t, best_g = -1, 0.0, np.inf
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        pos_left = np.cumsum(ys)[:-1]
        n_left = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & ((n - n_left) >= min_leaf)
        if not valid.any():
            continue
        n_right = n - n_left
        p_l = pos_left / n_left
        p_r = (ys.sum() - pos_left) / n_right
        g = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / n
        g = np.where(valid, g, np.inf)
        i = int(np.argmax(g <= g.min() + 1e-12))
        if g[i] < best_g - 1e-12:
            best_f, best_t, best_g = f, 0.5 * (xs[i] + xs[i + 1]), g[i]
    return int(best_f), float(best_t), float(best_g)


def oracle_tree(X, y, max_depth, min_leaf, depth=0):
    """The recursive builder that DecisionTree.fit replaced: each node
    row-copies X and searches with oracle_best_split. A node is
    (feature, threshold, proba, left, right); a leaf has feature -1 and
    children None."""
    proba = float(y.mean())
    leaf = (-1, 0.0, proba, None, None)
    if (proba in (0.0, 1.0) or (max_depth is not None and depth >= max_depth)
            or y.size < 2 * min_leaf):
        return leaf
    f, t, _ = oracle_best_split(X, y, min_leaf)
    if f < 0:
        return leaf
    mask = X[:, f] <= t
    if not mask.any() or mask.all():
        return leaf
    return (f, t, proba, oracle_tree(X[mask], y[mask], max_depth, min_leaf, depth + 1),
            oracle_tree(X[~mask], y[~mask], max_depth, min_leaf, depth + 1))


def assert_same_nodes(tree, i, node):
    """Node i of the flat tree and its subtree equal the oracle node and its
    subtree; returns the number of nodes compared."""
    f, t, proba, left, right = node
    assert tree.feature[i] == f
    assert tree.proba[i] == proba
    if left is None:
        assert tree.left[i] == tree.right[i] == -1
        return 1
    assert np.float64(tree.threshold[i]).view(np.int64) == np.float64(t).view(np.int64)
    return (1 + assert_same_nodes(tree, tree.left[i], left)
            + assert_same_nodes(tree, tree.right[i], right))


def oracle_walk(node, row):
    """Per-row descent of an oracle tree; returns the leaf's proba."""
    while node[3] is not None:
        node = node[3] if row[node[0]] <= node[1] else node[4]
    return node[2]


class TestDecisionTree:
    def test_pure_node_is_leaf(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.ones(3, dtype=np.intp))
        tree = models.DecisionTree().fit(ds)
        assert tree.left[0] == -1
        assert tree.proba[0] == 1.0

    def test_fifty_fifty_gini(self):
        y = np.array([0.0, 1.0])
        p = y.mean()
        assert 2.0 * p * (1.0 - p) == 0.5

    def test_four_sample_case(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = models.DecisionTree().fit(Dataset(X, y))
        assert 1.0 < tree.threshold[0] < 2.0
        assert np.array_equal(tree.predict_proba(X) >= 0.5, y)

    def test_matches_enumeration_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = np.round(rng.normal(size=(30, 3)), 2)
            y = (rng.uniform(size=30) > 0.5).astype(np.intp)
            if y.min() == y.max():
                continue
            oracle = enumerate_best_split(X, y)
            tree = models.DecisionTree(max_depth=1).fit(Dataset(X, y))
            if oracle is None:
                assert tree.left[0] == -1
                continue
            assert tree.feature[0] == oracle[0]
            assert tree.threshold[0] == pytest.approx(oracle[1], abs=1e-12)

    def test_perfect_fit_on_consistent_data(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(40, 4))
            y = (rng.uniform(size=40) > 0.6).astype(np.intp)
            tree = models.DecisionTree().fit(Dataset(X, y))
            assert np.array_equal(tree.predict_proba(X) >= 0.5, y)

    def test_constant_features_become_leaf(self):
        ds = Dataset(np.ones((6, 2)), np.array([0, 1, 0, 1, 0, 1]))
        tree = models.DecisionTree().fit(ds)
        assert tree.left[0] == -1
        assert tree.proba[0] == 0.5

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 300), d=st.integers(1, 6), decimals=st.integers(0, 2),
           fraud=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1),
           max_depth=st.sampled_from([None, 0, 1, 3, 8]), min_leaf=st.integers(1, 5))
    def test_matches_per_node_argsort_builder(self, n, d, decimals, fraud, seed,
                                              max_depth, min_leaf):
        # Values rounded to 0-2 decimals repeat often, so ties in the sort
        # order, in the Gini and between features are common.
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, d)), decimals)
        y = (rng.uniform(size=n) < fraud).astype(np.intp)
        tree = models.DecisionTree(max_depth, min_leaf).fit(Dataset(X, y))
        oracle = oracle_tree(X, y.astype(np.float64), max_depth, min_leaf)
        assert assert_same_nodes(tree, 0, oracle) == tree.proba.size
        Z = np.vstack([X, np.round(rng.normal(size=(20, d)), decimals + 1)])
        expected = [oracle_walk(oracle, row) for row in Z]
        assert np.array_equal(tree.predict_proba(Z), expected)

    def test_fit_peak_memory_is_bounded(self):
        # Rare, shifted fraud rows, as in the ULB data: most splits peel a
        # few rows off a large node. The pending nodes' sorted row ids never
        # exceed one (d, n) array, so the peak stays a small multiple of the
        # input (about 3.3x; a row copy per level of the path reached 8x).
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20_000, 30))
        y = (rng.uniform(size=20_000) < 0.01).astype(np.intp)
        X[y == 1] += 1.5
        ds = Dataset(X, y)
        tracemalloc.start()
        try:
            models.DecisionTree(8, 5).fit(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * X.nbytes

    def test_predict_checks_feature_width(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
        tree = models.DecisionTree().fit(Dataset(X, np.array([0, 0, 1, 1])))
        for width in (1, 3):
            with pytest.raises(ShapeError,
                               match=f"input has {width} features, model expects 2"):
                tree.predict_proba(np.zeros((2, width)))
        with pytest.raises(ShapeError, match=r"2-D .* got shape \(2,\)"):
            tree.predict_proba(np.zeros(2))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_mlp_params(7, (5, 3), Rng(13))
        path = tmp_path / "model.json"
        models.save_checkpoint(params, path)
        back = models.load_checkpoint(path)
        assert back.layer_sizes == params.layer_sizes
        assert np.array_equal(back.as_vector(), params.as_vector())

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(Exception, match="checkpoint"):
            models.load_checkpoint(path)
