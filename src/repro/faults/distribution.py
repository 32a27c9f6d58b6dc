"""Spatial fault distributions.

Manufacturing defects in ReRAM crossbars are *not* uniformly spread: Chen et
al. (the March-test defect study cited by the paper) observe that roughly
two-thirds of post-fabrication faulty cells cluster in a contiguous region,
caused by unstable power supply during the forming process.  This module
provides both the uniform and the clustered cell-placement primitives, plus
the chip-level non-uniform density assignment of Section IV.A (20% of
crossbars at 0.4-1% density, the rest at 0-0.4%).
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.types import FaultMap, FaultType
from repro.utils.config import FaultConfig

__all__ = [
    "uniform_cells",
    "clustered_cells",
    "place_faults",
    "draw_pre_deployment_densities",
]


def _free_mask(total: int, forbidden: np.ndarray | None) -> np.ndarray | None:
    """Flat mask of the cells not in ``forbidden`` (None if all are free)."""
    if forbidden is None or len(forbidden) == 0:
        return None
    free = np.ones(total, dtype=bool)
    free[np.asarray(forbidden, dtype=np.int64)] = False
    return free


def _uniform(
    rng: np.random.Generator, total: int, count: int, free: np.ndarray | None
) -> np.ndarray:
    if free is None:
        return rng.choice(total, size=min(count, total), replace=False)
    pool = np.flatnonzero(free)
    return rng.choice(pool, size=min(count, pool.size), replace=False)


def _clustered(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    count: int,
    cluster_fraction: float,
    free: np.ndarray | None,
) -> np.ndarray:
    """Clustered pick over the cells ``free`` allows; may clear picked
    cells in ``free``, so callers pass a mask they own."""
    count = min(count, rows * cols)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    n_cluster = min(int(round(count * cluster_fraction)), count)
    picked = np.empty(0, dtype=np.int64)
    if n_cluster > 0:
        # Window side: smallest square that can hold the clustered cells with
        # ~50% slack so the cluster is dense but not a solid block.
        side = max(1, math.ceil(math.sqrt(n_cluster * 1.5)))
        side = min(side, rows, cols)
        r0 = int(rng.integers(0, rows - side + 1))
        c0 = int(rng.integers(0, cols - side + 1))
        # Row-major window cells, ascending like the flat indices.
        window = (
            np.arange(r0 * cols, (r0 + side) * cols, cols)[:, None]
            + np.arange(c0, c0 + side)
        ).ravel()
        if free is not None:
            window = window[free[window]]
        take = min(n_cluster, window.size)
        if take > 0:
            picked = rng.choice(window, size=take, replace=False)
            if free is None:
                free = np.ones(rows * cols, dtype=bool)
            free[picked] = False
    remainder = count - picked.size
    if remainder <= 0:
        return picked
    return np.concatenate([picked, _uniform(rng, rows * cols, remainder, free)])


def uniform_cells(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    count: int,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Pick ``count`` distinct flat cell indices uniformly at random.

    ``forbidden`` is an optional flat-index array of cells that must not be
    chosen (e.g. cells that are already stuck).  If fewer than ``count``
    candidates remain, all remaining candidates are returned.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    total = rows * cols
    return _uniform(rng, total, count, _free_mask(total, forbidden))


def clustered_cells(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    count: int,
    cluster_fraction: float = 2.0 / 3.0,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Pick ``count`` cells with a clustered spatial distribution.

    A fraction ``cluster_fraction`` of the cells lands inside a randomly
    positioned square window just large enough to host them; the remainder
    is spread uniformly over the rest of the array.  This reproduces the
    "two-thirds of faults are clustered" fabrication statistic.
    """
    if not (0.0 <= cluster_fraction <= 1.0):
        raise ValueError("cluster_fraction must lie in [0, 1]")
    return _clustered(
        rng, rows, cols, count, cluster_fraction,
        _free_mask(rows * cols, forbidden),
    )


def place_faults(
    rng: np.random.Generator,
    fmap: FaultMap,
    count: int,
    config: FaultConfig,
    post: bool,
    clustered: bool | None = None,
) -> int:
    """Stick ``count`` new cells of ``fmap``; returns how many stuck.

    The one fault placer behind pre-deployment, post-epoch, fault-wave and
    phase-targeted injection.  Cells are picked among the still-healthy
    ones, clustered (``config.cluster_fraction`` of them in one window)
    unless ``clustered`` — default ``config.clustered`` — is off, then
    split SA0/SA1 with ``config.sa0_probability(post)``.  Draw order per
    call (DESIGN.md §3.2): ``integers`` for the window row, then column;
    ``choice`` over the free window cells; ``choice`` over the remaining
    free cells (over the plain cell count when no cell is excluded);
    ``random`` for the SA0/SA1 split.  A draw of size zero is skipped.
    """
    if count <= 0:
        return 0
    if clustered is None:
        clustered = config.clustered
    free = fmap.codes.ravel() == FaultType.NONE
    if free.all():
        free = None
    if clustered:
        cells = _clustered(
            rng, fmap.rows, fmap.cols, count, config.cluster_fraction, free
        )
    else:
        cells = _uniform(rng, fmap.cells, count, free)
    if cells.size == 0:
        return 0
    is_sa0 = rng.random(cells.size) < config.sa0_probability(post=post)
    injected = fmap.inject(cells[is_sa0], FaultType.SA0)
    injected += fmap.inject(cells[~is_sa0], FaultType.SA1)
    return injected


def draw_pre_deployment_densities(
    rng: np.random.Generator,
    num_crossbars: int,
    high_fraction: float = 0.20,
    high_density: tuple[float, float] = (0.004, 0.010),
    low_density: tuple[float, float] = (0.000, 0.004),
) -> np.ndarray:
    """Assign a pre-deployment fault density to every crossbar on the chip.

    Returns an array of ``num_crossbars`` densities where a randomly chosen
    ``high_fraction`` of entries is drawn uniformly from ``high_density``
    and the rest from ``low_density`` — the non-uniform chip-level fault
    distribution of Section IV.A.
    """
    if num_crossbars <= 0:
        raise ValueError("num_crossbars must be positive")
    densities = rng.uniform(low_density[0], low_density[1], size=num_crossbars)
    n_high = int(round(num_crossbars * high_fraction))
    if n_high > 0:
        high_idx = rng.choice(num_crossbars, size=n_high, replace=False)
        densities[high_idx] = rng.uniform(
            high_density[0], high_density[1], size=n_high
        )
    return densities
