"""Fault-density estimation from BIST column currents.

The CMOS peripherals convert the measured column currents into per-column
fault-count estimates using a one-point calibration (the nominal stuck-cell
conductances), then sum them into a per-crossbar density.  The estimate is
deliberately *approximate* — the remapping policy only needs densities,
and the estimator stays reliable under the full stuck-resistance variation
(Fig. 4), which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bist.analog import (
    column_currents_sa0_test,
    column_currents_sa1_test,
    nominal_sa0_conductance,
    nominal_sa1_conductance,
)
from repro.faults.types import FaultMap, FaultType
from repro.utils.config import CrossbarConfig

__all__ = ["BistResult", "run_bist", "scan_chip", "pair_density_estimates"]


@dataclass(frozen=True)
class BistResult:
    """Outcome of one crossbar's BIST pass."""

    sa1_count: int
    sa0_count: int
    cells: int

    @property
    def total_count(self) -> int:
        return self.sa1_count + self.sa0_count

    @property
    def density(self) -> float:
        return self.total_count / self.cells


def _estimate_counts(
    currents: np.ndarray,
    baseline_g: float,
    per_fault_g_delta: float,
    read_voltage: float,
    rows: int,
) -> np.ndarray:
    """Invert the calibration curve: currents -> per-column fault counts."""
    baseline_current = read_voltage * rows * baseline_g
    delta = currents - baseline_current
    counts = delta / (read_voltage * per_fault_g_delta)
    return np.clip(np.rint(counts), 0, rows).astype(np.int64)


def _estimate_sa1_sa0(
    sa1_curr: np.ndarray, sa0_curr: np.ndarray, config: CrossbarConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (SA1, SA0) counts from the two tests' column currents.

    Elementwise, so it serves one crossbar's ``(cols,)`` currents and a
    whole chip's ``(crossbars, cols)`` array alike.
    """
    sa1_counts = _estimate_counts(
        sa1_curr,
        baseline_g=config.g_off,
        per_fault_g_delta=nominal_sa1_conductance(config) - config.g_off,
        read_voltage=config.read_voltage,
        rows=config.rows,
    )
    # SA0 cells *remove* ~g_on of conductance, so the per-fault delta is
    # negative.  SA1 cells in the same column add excess current during the
    # SA0 test too; since the S3 step already measured the per-column SA1
    # counts, the calc peripherals subtract that known excess before
    # inverting the calibration curve (second-order correction).
    sa1_excess = (
        config.read_voltage
        * sa1_counts
        * (nominal_sa1_conductance(config) - config.g_on)
    )
    sa0_counts = _estimate_counts(
        sa0_curr - sa1_excess,
        baseline_g=config.g_on,
        per_fault_g_delta=nominal_sa0_conductance(config) - config.g_on,
        read_voltage=config.read_voltage,
        rows=config.rows,
    )
    return sa1_counts, sa0_counts


def run_bist(
    fault_map: FaultMap,
    config: CrossbarConfig,
    rng: np.random.Generator,
    noise_fraction: float = 0.01,
) -> BistResult:
    """Estimate one crossbar's SA1/SA0 counts from simulated currents.

    This is the behavioural (fast) equivalent of driving the full
    :class:`~repro.bist.fsm.BistController`; both use the same analog model.
    It is also the reference :func:`scan_chip` must match bit for bit.
    """
    sa1_counts, sa0_counts = _estimate_sa1_sa0(
        column_currents_sa1_test(fault_map, config, rng, noise_fraction),
        column_currents_sa0_test(fault_map, config, rng, noise_fraction),
        config,
    )
    return BistResult(
        sa1_count=int(sa1_counts.sum()),
        sa0_count=int(sa0_counts.sum()),
        cells=fault_map.cells,
    )


def scan_chip(
    chip,
    rng: np.random.Generator,
    noise_fraction: float = 0.01,
    telemetry=None,
) -> np.ndarray:
    """BIST every crossbar on the chip; returns estimated densities.

    All BIST modules operate in parallel (one per IMA, crossbars within an
    IMA tested back-to-back), so the wall-clock cost stays at a few hundred
    ReRAM cycles per epoch regardless of chip size.  With a ``telemetry``
    sink, one ``bist_scan_detail`` event summarises the scan (crossbars
    tested plus the estimated stuck-at totals).

    The whole chip is one array pass, bit-identical to calling
    :func:`run_bist` on every crossbar in ``chip.crossbars`` order with the
    same ``rng``: the fault codes are stacked once, and only the random
    draws stay per crossbar, in :func:`run_bist`'s order — U(sa1), U(sa0),
    N(cols) for the SA1 test, then the same three for the SA0 test (a
    uniform draw is skipped when the crossbar has no cell of that type).
    Per-column current deltas are accumulated with one ``np.bincount``
    per test over SA1 cells then SA0 cells, each in C order, which is the
    summation order of the per-crossbar ``np.add.at``.
    """
    crossbars = chip.crossbars
    config = crossbars[0].config
    if any(xb.config is not config and xb.config != config for xb in crossbars):
        raise ValueError("scan_chip needs every crossbar to share one config")
    n_xb, rows, cols = len(crossbars), config.rows, config.cols
    codes = np.stack([xb.fault_map.codes for xb in crossbars]).ravel()
    faulty = np.flatnonzero(codes)
    kinds = codes[faulty]
    sa1_cells = faulty[kinds == FaultType.SA1]
    sa0_cells = faulty[kinds == FaultType.SA0]
    sa1_xb, sa0_xb = sa1_cells // config.cells, sa0_cells // config.cells
    sa1_n = np.bincount(sa1_xb, minlength=n_xb).tolist()
    sa0_n = np.bincount(sa0_xb, minlength=n_xb).tolist()

    sa1_lo, sa1_hi = np.log(config.r_sa1_min), np.log(config.r_sa1_max)
    sa0_lo, sa0_hi = np.log(config.r_sa0_min), np.log(config.r_sa0_max)
    sigma = noise_fraction * config.read_voltage * config.g_on
    noisy = noise_fraction > 0
    uniform, normal = rng.uniform, rng.normal
    # Index 0 = the SA1 test (cells at "0"), index 1 = the SA0 test.
    u_sa1: tuple[list, list] = ([], [])
    u_sa0: tuple[list, list] = ([], [])
    noise: tuple[list, list] = ([], [])
    for n1, n0 in zip(sa1_n, sa0_n):
        for test in (0, 1):
            if n1:
                u_sa1[test].append(uniform(sa1_lo, sa1_hi, size=n1))
            if n0:
                u_sa0[test].append(uniform(sa0_lo, sa0_hi, size=n0))
            if noisy:
                noise[test].append(normal(0.0, sigma, size=cols))

    # Global column bin of every stuck cell: crossbar * cols + column.
    bins = np.concatenate([
        sa1_xb * cols + sa1_cells % cols,
        sa0_xb * cols + sa0_cells % cols,
    ])

    def currents(test: int, healthy_g: float) -> np.ndarray:
        weights = np.concatenate([
            1.0 / np.exp(np.concatenate(u[test] or [np.empty(0)])) - healthy_g
            for u in (u_sa1, u_sa0)
        ])
        delta = np.bincount(bins, weights=weights, minlength=n_xb * cols)
        out = config.read_voltage * (
            rows * healthy_g + delta.reshape(n_xb, cols)
        )
        return out + np.stack(noise[test]) if noisy else out

    sa1_counts, sa0_counts = _estimate_sa1_sa0(
        currents(0, config.g_off), currents(1, config.g_on), config
    )
    sa1_per_xb = sa1_counts.sum(axis=1)
    sa0_per_xb = sa0_counts.sum(axis=1)
    densities = np.empty(chip.num_crossbars, dtype=np.float64)
    densities[[xb.xbar_id for xb in crossbars]] = (
        (sa1_per_xb + sa0_per_xb) / config.cells
    )
    if telemetry is not None:
        telemetry.event(
            "bist_scan_detail",
            crossbars=chip.num_crossbars,
            sa0_est=int(sa0_per_xb.sum()),
            sa1_est=int(sa1_per_xb.sum()),
        )
        telemetry.count("bist.crossbars_scanned", chip.num_crossbars)
    return densities


def pair_density_estimates(chip, crossbar_densities: np.ndarray) -> np.ndarray:
    """Fold per-crossbar density estimates into per-pair estimates."""
    out = np.empty(chip.num_pairs, dtype=np.float64)
    for pair in chip.pairs:
        pos_id, neg_id = pair.crossbar_ids()
        out[pair.pair_id] = 0.5 * (
            crossbar_densities[pos_id] + crossbar_densities[neg_id]
        )
    return out
