"""Splittable seeded RNG: child streams that depend only on their labels."""

from __future__ import annotations

import zlib

import numpy as np


class Rng:
    """The seed tree: a master seed and a label path, split into child streams.

    A child's stream depends only on its labels, never on scheduling order.
    Every draw calls `gen`, the stream's numpy Generator; it is built on
    first use, so an Rng that is only split (a client's or a round's) costs
    no SeedSequence or PCG64.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)
        self._built = None

    @property
    def gen(self) -> np.random.Generator:
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
