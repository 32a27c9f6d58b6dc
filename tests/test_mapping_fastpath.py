"""Equivalence of the sparse fast-path ``effective_matrix`` vs the oracle.

The fast path (cached flat stuck-cell indices + clip against expanded
scale overlays + sparse fixups) must agree with the retained dense
reference implementation bit for bit in float64 — across fault
densities, remaps, scale recalibrations and both scale sets.
"""

import numpy as np
import pytest

from repro.faults.types import FaultType
from repro.reram.chip import Chip
from repro.reram.mapping import pad_to_blocks


@pytest.fixture
def chip(chip_config) -> Chip:
    return Chip(chip_config)


def _inject_random(chip: Chip, mapping, rng, density: float) -> None:
    """Stick ``density`` of each assigned crossbar's cells, half SA0/SA1."""
    for _, _, pair_id in mapping.iter_blocks():
        pair = chip.pair(int(pair_id))
        for fmap in (pair.pos.fault_map, pair.neg.fault_map):
            count = int(round(density * fmap.cells))
            if count == 0:
                continue
            cells = rng.choice(fmap.cells, size=count, replace=False)
            is_sa0 = rng.random(count) < 0.5
            fmap.inject(cells[is_sa0], FaultType.SA0)
            fmap.inject(cells[~is_sa0], FaultType.SA1)
    chip.bump_fault_version()


def _both(mapping, w, chip, which="weight"):
    fast = mapping.effective_matrix(w, chip.pair, chip.fault_version, which=which)
    ref = mapping.reference_effective_matrix(
        w, chip.pair, chip.fault_version, which=which
    )
    return fast, ref


class TestBitForBitEquivalence:
    @pytest.mark.parametrize("density", [0.0, 0.005, 0.02, 0.10])
    @pytest.mark.parametrize("shape", [(16, 16), (20, 28)])
    def test_fast_matches_reference_f64(self, chip, rng, density, shape):
        # (20, 28) exercises the padded fringe: faults landing on padding
        # rows/cols must be dropped by the index builder, not wrapped.
        mapping = chip.allocate_layer_copy("l", "forward", shape)
        _inject_random(chip, mapping, rng, density)
        w = rng.normal(0, 0.1, shape)
        fast, ref = _both(mapping, w, chip)
        assert fast.dtype == np.float64
        np.testing.assert_array_equal(fast, ref)

    def test_grad_scale_set(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "backward", (16, 16))
        _inject_random(chip, mapping, rng, 0.05)
        g = rng.normal(0, 1e-3, (16, 16))
        fast, ref = _both(mapping, g, chip, which="grad")
        np.testing.assert_array_equal(fast, ref)
        assert np.isnan(mapping.scales).all()  # weight path untouched

    def test_after_remap(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (20, 28))
        _inject_random(chip, mapping, rng, 0.03)
        w = rng.normal(0, 0.1, (20, 28))
        _both(mapping, w, chip)  # calibrate the original assignment
        idle = chip.idle_pair_ids()
        assert idle, "test chip must have spare pairs"
        mapping.set_pair(0, 0, int(idle[0]))
        chip.bump_fault_version()
        fast, ref = _both(mapping, w * 3, chip)
        np.testing.assert_array_equal(fast, ref)

    def test_across_recalibration_and_new_faults(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        w = rng.normal(0, 0.1, (16, 16))
        fast, ref = _both(mapping, w, chip)
        np.testing.assert_array_equal(fast, ref)
        # New faults appear mid-training: the cached index must refresh
        # while the frozen (stale) scales keep applying.
        _inject_random(chip, mapping, rng, 0.05)
        fast, ref = _both(mapping, w * 10, chip)
        np.testing.assert_array_equal(fast, ref)

    def test_float32_input(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        _inject_random(chip, mapping, rng, 0.05)
        w = rng.normal(0, 0.1, (16, 16)).astype(np.float32)
        fast, ref = _both(mapping, w, chip)
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=1e-6, atol=1e-7)


class TestFastPathMechanics:
    def test_fault_free_returns_input_unchanged(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        w = rng.normal(0, 0.1, (16, 16))
        out = mapping.effective_matrix(w, chip.pair, chip.fault_version)
        np.testing.assert_array_equal(out, w)

    def test_output_buffer_reused_per_scale_set(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        _inject_random(chip, mapping, rng, 0.02)
        w = rng.normal(0, 0.1, (16, 16))
        out1 = mapping.effective_matrix(w, chip.pair, chip.fault_version)
        out2 = mapping.effective_matrix(w * 2, chip.pair, chip.fault_version)
        assert out1 is out2  # same preallocated buffer
        g = rng.normal(0, 1e-3, (16, 16))
        out3 = mapping.effective_matrix(
            g, chip.pair, chip.fault_version, which="grad"
        )
        assert out3 is not out2  # grad path owns a separate buffer

    def test_index_cache_hit_and_invalidation(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        _inject_random(chip, mapping, rng, 0.02)
        w = rng.normal(0, 0.1, (16, 16))
        mapping.effective_matrix(w, chip.pair, chip.fault_version)
        idx1 = mapping._fault_index(chip.pair, chip.fault_version)
        idx2 = mapping._fault_index(chip.pair, chip.fault_version)
        assert idx1 is idx2  # cached while fault_version is unchanged
        pair = chip.pair(int(mapping.pair_ids[0, 0]))
        pair.pos.fault_map.inject(np.array([3]), FaultType.SA1)
        chip.bump_fault_version()
        idx3 = mapping._fault_index(chip.pair, chip.fault_version)
        assert idx3 is not idx1


def reference_fault_index(mapping, pair_lookup):
    """The per-block loop the one-gather ``_fault_index`` replaced."""
    m, n = mapping.matrix_shape
    nbc = mapping.grid_shape[1]
    parts = {key: [] for key in ("idx", "sa1_pos", "sa0_pos", "sa1_neg",
                                 "sa0_neg", "block")}
    for br, bc, pair_id in mapping.iter_blocks():
        pair = pair_lookup(pair_id)
        pos_codes = pair.pos.fault_map.codes
        neg_codes = pair.neg.fault_map.codes
        faulty = (pos_codes != FaultType.NONE) | (neg_codes != FaultType.NONE)
        if not faulty.any():
            continue
        r, c = np.nonzero(faulty)
        gr = r + br * mapping.block_rows
        gc = c + bc * mapping.block_cols
        keep = (gr < m) & (gc < n)
        if not keep.any():
            continue
        r, c, gr, gc = r[keep], c[keep], gr[keep], gc[keep]
        parts["idx"].append(gr * n + gc)
        pc = pos_codes[r, c]
        nc = neg_codes[r, c]
        parts["sa1_pos"].append(pc == FaultType.SA1)
        parts["sa0_pos"].append(pc == FaultType.SA0)
        parts["sa1_neg"].append(nc == FaultType.SA1)
        parts["sa0_neg"].append(nc == FaultType.SA0)
        parts["block"].append(np.full(r.size, br * nbc + bc, dtype=np.int64))
    empty = {"idx": np.int64, "block": np.int64}
    return {
        key: np.concatenate(v) if v else np.empty(0, dtype=empty.get(key, bool))
        for key, v in parts.items()
    }


class TestFaultIndexOracle:
    @pytest.mark.parametrize("density", [0.0, 0.004, 0.05, 0.3])
    @pytest.mark.parametrize("shape", [(16, 16), (20, 28), (40, 9)])
    def test_matches_per_block_loop(self, chip, rng, density, shape):
        # (20, 28) and (40, 9) put faults on the padded fringe, which both
        # versions must drop; several blocks check the block-major order.
        mapping = chip.allocate_layer_copy("l", "backward", shape)
        _inject_random(chip, mapping, rng, density)
        got = mapping._fault_index(chip.pair, chip.fault_version)
        expected = reference_fault_index(mapping, chip.pair)
        for key, want in expected.items():
            have = getattr(got, key)
            assert have.dtype == want.dtype, key
            assert have.tobytes() == want.tobytes(), key
        assert got.empty == (expected["idx"].size == 0)


def reference_refresh_scales(mapping, matrix, scales, headroom):
    """The all-block recalibration: every block's quantile, stale kept."""
    rows, cols = mapping.block_rows, mapping.block_cols
    nbr, nbc = mapping.grid_shape
    padded = pad_to_blocks(np.asarray(matrix, dtype=np.float64), rows, cols)
    blocks = np.abs(padded.reshape(nbr, rows, nbc, cols))
    block_ref = np.quantile(blocks, 0.99, axis=(1, 3))
    fresh = headroom * np.where(block_ref > 0, block_ref, 1.0)
    return np.where(np.isnan(scales), fresh, scales)


class TestStaleOnlyRecalibration:
    @pytest.mark.parametrize("which", ["weight", "grad"])
    @pytest.mark.parametrize("shape", [(16, 16), (40, 52)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_all_block_quantile(self, chip, rng, which, shape, dtype):
        mapping = chip.allocate_layer_copy("l", "forward", shape)
        mapping._refresh_scales(rng.normal(0, 0.1, shape).astype(dtype), which)
        attr = "scales" if which == "weight" else "grad_scales"
        calibrated = getattr(mapping, attr)
        stale = rng.random(calibrated.shape) < 0.5
        stale.flat[0] = True
        stale.flat[-1] = len(stale.flat) == 1
        calibrated[stale] = np.nan
        before = calibrated.copy()
        matrix = rng.normal(0, 0.3, shape).astype(dtype)
        matrix[:16, :16] = 0.0  # an all-zero block takes the 1.0 fallback
        headroom = (
            mapping.scale_headroom if which == "weight" else mapping.grad_scale_headroom
        )
        expected = reference_refresh_scales(mapping, matrix, before, headroom)
        got = mapping._refresh_scales(matrix, which)
        assert got is getattr(mapping, attr) and got is not calibrated
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert got[~stale].tobytes() == before[~stale].tobytes()
        assert not np.isnan(got).any()
