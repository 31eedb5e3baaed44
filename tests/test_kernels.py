"""The stable sigmoid and the CART split search in fedfraud.kernels."""

import warnings

import numpy as np
import pytest

from fedfraud import kernels


def masked_sigmoid(z):
    """The boolean-mask branch form the kernel replaced: the bit-level
    reference for kernels.sigmoid."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("shape", [(-1,), (5, 32, 1), "non-contiguous"])
    def test_bit_identical_to_masked_form(self, shape):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320,
                   709.8, -709.8, 745.2, -745.2]
        z = np.concatenate([special, np.random.default_rng(3).normal(
            scale=50.0, size=160 - len(special))])
        if shape == "non-contiguous":
            z = np.repeat(z, 2)[::2]
            assert not z.flags.c_contiguous
        else:
            z = z.reshape(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.sigmoid(z)
        want = masked_sigmoid(z)
        assert got.shape == z.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64))

    def test_zero_is_half(self):
        assert kernels.sigmoid(np.array([[0.0]]))[0, 0] == 0.5

    def test_saturation_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernels.sigmoid(np.array([[500.0, -500.0, 1000.0, -1000.0]]))
        assert abs(out[0, 0] - 1.0) <= 1e-15 and out[0, 2] == 1.0
        assert out[0, 1] >= 0.0 and out[0, 3] == 0.0
        assert np.isfinite(out).all()

    def test_matches_logistic_formula(self):
        z = np.random.default_rng(0).normal(scale=10.0, size=(8, 5))
        assert np.allclose(kernels.sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("z", [
        np.linspace(-5, 5, 7),
        np.linspace(-5, 5, 32).reshape(32, 1),
        np.linspace(-5, 5, 24).reshape(4, 6),
        np.linspace(-5, 5, 48).reshape(6, 8)[:, ::2],
    ], ids=["1-d", "column", "matrix", "non-contiguous"])
    def test_shape_preserved(self, z):
        out = kernels.sigmoid(z)
        assert out.shape == z.shape
        flat = kernels.sigmoid(np.ascontiguousarray(z).ravel())
        assert np.array_equal(out, flat.reshape(z.shape))


def split_root(X, y, min_leaf):
    """best_split over all rows of X, presorted as DecisionTree.fit does."""
    XT = np.ascontiguousarray(X.T)
    return kernels.best_split(XT, y, np.argsort(XT, axis=1, kind="stable"), min_leaf)


class TestBestSplit:
    def test_best_split_respects_min_leaf(self):
        X = np.arange(10, dtype=np.float64).reshape(10, 1)
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.float64)
        f, t, g = split_root(X, y, 4)
        assert f == 0
        assert 2.5 <= t <= 6.5

    def test_no_admissible_split(self):
        X = np.ones((4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        f, _, _ = split_root(X, y, 1)
        assert f == -1

    def test_exact_ties_pick_lowest_feature_then_lowest_threshold(self):
        # Two identical columns: the first one wins.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert split_root(X, y, 1) == (0, 1.5, 0.0)
        # Thresholds 0.5 and 2.5 give the same Gini: the lower one wins.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        f, t, _ = split_root(X, y, 1)
        assert (f, t) == (0, 0.5)

    def test_node_split_equals_split_of_its_rows_alone(self):
        # A node's presorted ids come from stably partitioning the root's.
        rng = np.random.default_rng(3)
        X = np.round(rng.normal(size=(60, 3)), 1)
        y = (rng.uniform(size=60) < 0.4).astype(np.float64)
        keep = rng.uniform(size=60) < 0.5
        XT = np.ascontiguousarray(X.T)
        root = np.argsort(XT, axis=1, kind="stable")
        node = root[keep[root]].reshape(3, -1)
        assert kernels.best_split(XT, y, node, 2) == split_root(X[keep], y[keep], 2)
