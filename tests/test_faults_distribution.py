"""Spatial fault-distribution tests."""

import math

import numpy as np
import pytest

from repro.faults.distribution import (
    clustered_cells,
    draw_pre_deployment_densities,
    place_faults,
    uniform_cells,
)
from repro.faults.types import FaultMap, FaultType
from repro.utils.config import FaultConfig


def reference_uniform_cells(rng, rows, cols, count, forbidden=None):
    """The index-array picker the mask-based one replaced."""
    total = rows * cols
    if forbidden is None or len(forbidden) == 0:
        picked = rng.choice(total, size=min(count, total), replace=False)
        return np.asarray(picked, dtype=np.int64)
    allowed = np.ones(total, dtype=bool)
    allowed[np.asarray(forbidden, dtype=np.int64)] = False
    pool = np.flatnonzero(allowed)
    take = min(count, pool.size)
    return np.asarray(rng.choice(pool, size=take, replace=False), dtype=np.int64)


def reference_clustered_cells(rng, rows, cols, count, cluster_fraction=2 / 3,
                              forbidden=None):
    """The ``meshgrid`` / ``setdiff1d`` picker the mask-based one replaced."""
    count = min(count, rows * cols)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    n_cluster = min(int(round(count * cluster_fraction)), count)
    chosen = []
    taken = (
        np.asarray(forbidden, dtype=np.int64)
        if forbidden is not None
        else np.empty(0, dtype=np.int64)
    )
    if n_cluster > 0:
        side = max(1, math.ceil(math.sqrt(n_cluster * 1.5)))
        side = min(side, rows, cols)
        r0 = int(rng.integers(0, rows - side + 1))
        c0 = int(rng.integers(0, cols - side + 1))
        rr, cc = np.meshgrid(
            np.arange(r0, r0 + side), np.arange(c0, c0 + side), indexing="ij"
        )
        window = np.setdiff1d((rr * cols + cc).ravel(), taken)
        take = min(n_cluster, window.size)
        if take > 0:
            picked = rng.choice(window, size=take, replace=False)
            chosen.append(np.asarray(picked, dtype=np.int64))
            taken = np.concatenate([taken, picked])
    remainder = count - sum(a.size for a in chosen)
    if remainder > 0:
        chosen.append(
            reference_uniform_cells(rng, rows, cols, remainder, forbidden=taken)
        )
    if not chosen:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chosen)


def _random_forbidden(seed, total):
    rng = np.random.default_rng(seed)
    fill = (0.0, 0.05, 0.5, 0.95, 1.0)[seed % 5]
    return np.flatnonzero(rng.random(total) < fill)


class TestMatchesIndexArrayPickers:
    """Same cells, same dtype and the same generator state afterwards."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("frac", [0.0, 0.3, 2 / 3, 1.0])
    @pytest.mark.parametrize("rows,cols", [(16, 16), (6, 20), (3, 5)])
    def test_clustered(self, seed, frac, rows, cols):
        forbidden = _random_forbidden(seed, rows * cols)
        count = (seed * 7) % (rows * cols + 3)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = clustered_cells(a, rows, cols, count, frac, forbidden)
        want = reference_clustered_cells(b, rows, cols, count, frac, forbidden)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_uniform(self, seed):
        forbidden = _random_forbidden(seed, 12 * 9)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = uniform_cells(a, 12, 9, seed * 5, forbidden)
        want = reference_uniform_cells(b, 12, 9, seed * 5, forbidden)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert a.bit_generator.state == b.bit_generator.state


class TestPlaceFaults:
    def test_cluster_fraction_is_honoured(self):
        """All cells of a fraction-1 placement fit one cluster window."""
        for seed in range(10):
            fmap = FaultMap(32, 32)
            cfg = FaultConfig(cluster_fraction=1.0)
            stuck = place_faults(np.random.default_rng(seed), fmap, 40, cfg,
                                 post=True)
            assert stuck == fmap.count() == 40
            rows, cols = np.nonzero(fmap.faulty_mask)
            side = math.ceil(math.sqrt(40 * 1.5))
            assert np.ptp(rows) < side and np.ptp(cols) < side

    def test_only_free_cells_and_sa_split(self):
        fmap = FaultMap(8, 8)
        fmap.inject(np.arange(0, 64, 2), FaultType.SA1)
        before = fmap.codes.copy()
        cfg = FaultConfig(sa0_sa1_ratio=1e9)  # practically all SA0
        stuck = place_faults(np.random.default_rng(0), fmap, 100, cfg,
                             post=False)
        assert stuck == 32  # only the 32 free cells were left
        assert np.array_equal(fmap.codes[before != 0], before[before != 0])
        assert (fmap.codes[before == 0] == FaultType.SA0).all()

    def test_zero_count_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert place_faults(rng, FaultMap(4, 4), 0, FaultConfig(), post=True) == 0
        assert rng.bit_generator.state == state


class TestUniformCells:
    def test_distinct_indices(self, rng):
        cells = uniform_cells(rng, 16, 16, 50)
        assert len(np.unique(cells)) == 50

    def test_respects_forbidden(self, rng):
        forbidden = np.arange(200)
        cells = uniform_cells(rng, 16, 16, 56, forbidden=forbidden)
        assert not np.intersect1d(cells, forbidden).size
        assert len(cells) == 56

    def test_exhausted_pool_returns_remainder(self, rng):
        forbidden = np.arange(250)
        cells = uniform_cells(rng, 16, 16, 100, forbidden=forbidden)
        assert len(cells) == 6  # only 6 cells left

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            uniform_cells(rng, 4, 4, -1)


class TestClusteredCells:
    def test_count_and_uniqueness(self, rng):
        cells = clustered_cells(rng, 32, 32, 60)
        assert len(cells) == 60
        assert len(np.unique(cells)) == 60

    def test_cluster_concentration(self, rng):
        """Two-thirds of cells should land in a small window: the spatial
        spread of the clustered fraction must be far below uniform."""
        n = 90
        cells = clustered_cells(rng, 64, 64, n, cluster_fraction=2 / 3)
        rows, cols = np.divmod(cells, 64)
        # Uniform placement has std ~ 64/sqrt(12) ~ 18.5 per axis; with a
        # cluster the median absolute deviation collapses.
        med_r, med_c = np.median(rows), np.median(cols)
        mad = np.median(np.abs(rows - med_r) + np.abs(cols - med_c))
        assert mad < 15

    def test_zero_cluster_fraction_is_uniform(self, rng):
        cells = clustered_cells(rng, 16, 16, 30, cluster_fraction=0.0)
        assert len(cells) == 30

    def test_respects_forbidden(self, rng):
        forbidden = np.arange(100)
        cells = clustered_cells(rng, 16, 16, 50, forbidden=forbidden)
        assert not np.intersect1d(cells, forbidden).size

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            clustered_cells(rng, 8, 8, 4, cluster_fraction=1.5)

    def test_zero_count(self, rng):
        assert clustered_cells(rng, 8, 8, 0).size == 0


class TestPreDeploymentDensities:
    def test_shape_and_ranges(self, rng):
        d = draw_pre_deployment_densities(rng, 1000)
        assert d.shape == (1000,)
        assert d.min() >= 0.0 and d.max() <= 0.010 + 1e-12

    def test_high_fraction_share(self, rng):
        d = draw_pre_deployment_densities(rng, 2000, high_fraction=0.2)
        high = (d >= 0.004).sum()
        # exactly 20% are drawn from the high range (a handful of low-range
        # draws can also exceed 0.004 only if ranges overlapped; they don't).
        assert high == pytest.approx(400, abs=1)

    def test_rejects_empty_chip(self, rng):
        with pytest.raises(ValueError):
            draw_pre_deployment_densities(rng, 0)
