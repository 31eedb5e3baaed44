"""Sample-count-weighted aggregation of client contributions.

This module is the privacy boundary of the simulator: it sees only
(vector, sample_count) pairs and deliberately imports nothing that could
carry raw client data. Keep it that way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError


def aggregate(contributions: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Weighted average sum_k (n_k / sum_j n_j) * v_k.

    Contributions are consumed in the order given; callers sort by client id
    so results are schedule-independent.
    """
    if len(contributions) == 0:
        raise DomainError("aggregate needs at least one contribution")
    vectors = [np.asarray(v, dtype=np.float64).ravel() for v, _ in contributions]
    counts = np.asarray([n for _, n in contributions], dtype=np.float64)
    length = vectors[0].size
    for i, v in enumerate(vectors):
        if v.size != length:
            raise ShapeError(f"contribution {i} has length {v.size}, expected {length}")
        if not np.isfinite(v).all():
            raise DomainError(f"contribution {i} has non-finite values")
    if (counts <= 0).any():
        raise DomainError("sample counts must be positive")
    weights = counts / counts.sum()
    out = np.zeros(length)
    for w, v in zip(weights, vectors):
        out += w * v
    return out
