"""Hot numeric kernels, in numpy: the stable sigmoid and the CART split search."""

import numpy as np


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1/(1+e^-z), branch form that never overflows.

    Elementwise on an array of any shape; the result has z's shape and is
    written into `out` when given (which may be z itself).
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))             # exp(-z) for z >= 0, exp(z) below; <= 1
    return np.divide(np.where(z >= 0.0, 1.0, e), 1.0 + e, out=out)


# --- decision-tree split search ---------------------------------------------
# A node is scanned over its rows presorted per feature (order[f]). Features
# are scanned in index order; candidate thresholds are the midpoints between
# consecutive distinct sorted values. Within a feature the split is the
# first (lowest) threshold whose weighted Gini is within 1e-12 of that
# feature's minimum; a later feature replaces the incumbent only if it
# beats it by more than 1e-12. Ties therefore go to the lowest feature
# index, then the lowest threshold.

_GINI_EPS = 1e-12


def best_split(XT: np.ndarray, y: np.ndarray, order: np.ndarray, min_leaf: int):
    """Best (feature, threshold, weighted_gini) for a binary CART split of a
    node of m rows.

    XT is the (d, n) feature-major matrix of all rows and y their 0/1
    labels. order is the node's (d, m) array of row ids, order[f] sorted by
    XT[f]; rows with equal values may come in any order, since the prefix
    counts are only read where the value changes. Returns feature == -1
    when no admissible split exists.
    """
    d, m = order.shape
    best_f, best_t, best_g = -1, 0.0, np.inf
    for f in range(d):
        rows = order[f]
        xs = XT[f].take(rows)
        ys = y.take(rows)
        pos_left = np.cumsum(ys)[:-1]
        n_left = np.arange(1, m)
        valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & ((m - n_left) >= min_leaf)
        if not valid.any():
            continue
        n_right = m - n_left
        p_l = pos_left / n_left
        p_r = (ys.sum() - pos_left) / n_right
        g = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / m
        g = np.where(valid, g, np.inf)
        i = int(np.argmax(g <= g.min() + _GINI_EPS))
        if g[i] < best_g - _GINI_EPS:
            best_f, best_t, best_g = f, 0.5 * (xs[i] + xs[i + 1]), g[i]
    return int(best_f), float(best_t), float(best_g)
