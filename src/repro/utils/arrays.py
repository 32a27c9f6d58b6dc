"""Small NumPy helpers shared by the array-pass planners."""

from __future__ import annotations

import numpy as np

__all__ = ["lexicographic_argmin"]


def lexicographic_argmin(keys: list[np.ndarray]) -> int:
    """Index of the smallest row of the key columns, compared in order.

    Each key narrows the survivors to those at its minimum, exactly as a
    Python ``min`` over key tuples compares (the first index wins a full
    tie).  Keys must be NaN-free.
    """
    survivors = np.arange(keys[0].size)
    for key in keys:
        values = key[survivors]
        survivors = survivors[values == values.min()]
        if survivors.size == 1:
            break
    return int(survivors[0])
