"""Splittable seeded RNG: child streams that depend only on their labels."""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DomainError


class Rng:
    """Seedable generator with deterministic child-stream splitting.

    Children are derived from the master seed plus a label path, so the
    stream a worker sees depends only on its label, never on scheduling
    order. The generator is built on the first draw, so an Rng that is only
    split (a client's or a round's) costs no SeedSequence or PCG64.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)
        self._built = None

    @property
    def _gen(self) -> np.random.Generator:
        if self._built is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self._path)
            self._built = np.random.Generator(np.random.PCG64(ss))
        return self._built

    def split(self, *labels) -> "Rng":
        path = self._path
        for label in labels:
            if isinstance(label, (int, np.integer)):
                h = int(label) & 0xFFFFFFFF
            else:
                h = zlib.crc32(str(label).encode())
            path = path + (h,)
        return Rng(self.seed, path)

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        if lo >= hi:
            raise DomainError(f"uniform bounds require lo < hi, got [{lo}, {hi})")
        return self._gen.uniform(lo, hi, size=shape)

    def normal(self, mean: float, std: float, shape) -> np.ndarray:
        return self._gen.normal(mean, std, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        if n < 0:
            raise DomainError(f"permutation length must be >= 0, got {n}")
        return self._gen.permutation(n)

    def choice(self, n: int, size: int) -> np.ndarray:
        """`size` indices sampled from range(n) without replacement."""
        return self._gen.choice(n, size=size, replace=False)

    def dirichlet(self, alpha) -> np.ndarray:
        return self._gen.dirichlet(np.asarray(alpha, dtype=np.float64))
