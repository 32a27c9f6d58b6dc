"""Golden fixture for fault placement: pre-, post-epoch, wave and phase faults.

Every case injects faults from a seeded stream and pins a SHA-256 digest
of every crossbar's fault codes after each injection step, together with
the final ``bit_generator.state`` of each stream it drew from.  The cases
cover wear-weighted and uniform target selection, clustered and uniform
placement, cluster windows that collide with earlier faults, counts that
exceed the free cells of a crossbar, the endurance-driven injector, and
the chaos fault wave and phase-targeted faults on a built experiment.

``tests/data/golden_fault_maps.json`` was recorded from the per-crossbar
``setdiff1d`` / ``meshgrid`` placement; the mask-based placer must
reproduce it exactly (the draw order it keeps is written down in
DESIGN.md §3.2).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.controller import (
    build_experiment,
    inject_fault_wave,
    inject_phase_faults,
)
from repro.faults.endurance import EnduranceModel, WearTracker
from repro.faults.injector import FaultInjector
from repro.faults.types import FaultMap
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

GOLDEN = Path(__file__).parent / "data" / "golden_fault_maps.json"

EPOCHS = 4

#: injector case -> (FaultConfig kwargs, rows, cols, crossbars, seed).
INJECTOR_CASES = {
    "clustered_wear": ({"post_n": 0.25, "post_m": 0.02}, 32, 32, 40, 3),
    "clustered_uniform_targets": (
        {"post_n": 0.25, "post_m": 0.02, "wear_weighted": False},
        32, 32, 40, 4,
    ),
    "uniform_placement": (
        {"post_n": 0.25, "post_m": 0.02, "clustered": False}, 32, 32, 40, 5,
    ),
    "dense_nonsquare": (
        {
            "pre_high_density": (0.05, 0.2), "pre_low_density": (0.01, 0.05),
            "post_n": 0.5, "post_m": 0.15, "cluster_fraction": 0.9,
        },
        12, 40, 16, 6,
    ),
    "saturating_clustered": (
        {
            "pre_high_density": (0.3, 0.6), "pre_low_density": (0.05, 0.2),
            "post_n": 1.0, "post_m": 0.2, "cluster_fraction": 1.0,
        },
        6, 8, 8, 7,
    ),
    "saturating_uniform": (
        {
            "pre_high_density": (0.3, 0.6), "pre_low_density": (0.05, 0.2),
            "post_n": 1.0, "post_m": 0.2, "clustered": False,
            "wear_weighted": False,
        },
        6, 8, 8, 8,
    ),
}


def _digest(maps: list[FaultMap]) -> str:
    h = hashlib.sha256()
    for fmap in maps:
        h.update(fmap.codes.tobytes())
    return h.hexdigest()


def _state(rng: np.random.Generator) -> str:
    return repr(rng.bit_generator.state)


def capture_injector(name: str) -> dict:
    """Pre-deployment, then fixed-regime and endurance post-epoch faults."""
    kwargs, rows, cols, num, seed = INJECTOR_CASES[name]
    rng = np.random.default_rng(seed)
    maps = [FaultMap(rows, cols) for _ in range(num)]
    injector = FaultInjector(FaultConfig(**kwargs), rng)
    wear = WearTracker(num)
    injector.inject_pre_deployment(maps)
    steps = [{"step": "pre", "codes_sha256": _digest(maps)}]
    for epoch in range(EPOCHS):
        # Skewed, epoch-dependent wear so wear-weighted targets move.
        wear.record(np.arange(epoch, num, 3), count=10 * (epoch + 1))
        hit = injector.inject_post_epoch(maps, wear, epoch)
        steps.append(
            {"step": f"post-{epoch}", "hit": hit, "codes_sha256": _digest(maps)}
        )
    before = wear.writes.copy()
    wear.record(np.arange(num), count=40)
    hit = injector.inject_post_epoch_endurance(
        maps, before, wear.writes, EnduranceModel(mean_cycles=80, sigma=0.8),
        epoch=EPOCHS,
    )
    steps.append(
        {"step": "endurance", "hit": hit, "codes_sha256": _digest(maps)}
    )
    history = [[int(e), int(x), int(n)] for e, x, n in injector.history]
    return {
        "steps": steps,
        "history_sha256": hashlib.sha256(
            json.dumps(history).encode()
        ).hexdigest(),
        "faults_rng_state": _state(rng),
    }


#: experiment case -> (chips, seed, FaultConfig kwargs).
EXPERIMENT_CASES = {
    "fleet_wave_clustered": (2, 7, {}),
    "fleet_wave_uniform": (2, 11, {"clustered": False}),
    "single_chip_wave": (1, 5, {"wave_density": 0.08}),
    "phase_backward": (1, 9, {"phase_target": "backward",
                              "phase_density": 0.03}),
}


def experiment_config(name: str) -> ExperimentConfig:
    chips, seed, kwargs = EXPERIMENT_CASES[name]
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=1, batch_size=16, n_train=32, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(**kwargs),
        policy="remap-d",
        chips=chips,
        seed=seed,
    )


def capture_experiment(name: str) -> dict:
    """Build (pre-deployment and any phase faults), then a wave and phase
    faults injected directly."""
    ctx = build_experiment(experiment_config(name))
    maps = ctx.chip.fault_maps
    steps = [{"step": "build", "codes_sha256": _digest(maps)}]
    if ctx.config.faults.phase_target is not None:
        cells = inject_phase_faults(ctx, "forward", 0.02, clustered=False)
        steps.append({"step": "phase-forward-uniform", "cells": cells,
                      "codes_sha256": _digest(maps)})
    else:
        cells = inject_fault_wave(ctx, 0)
        steps.append({"step": "wave", "cells": cells,
                      "codes_sha256": _digest(maps)})
        cells = inject_phase_faults(ctx, "backward", 0.01)
        steps.append({"step": "phase-backward", "cells": cells,
                      "codes_sha256": _digest(maps)})
    streams = ("faults", "fault-wave", "phase-faults")
    return {
        "steps": steps,
        "rng_states": {s: _state(ctx.rng_hub.stream(s)) for s in streams},
    }


def capture(name: str) -> dict:
    if name in INJECTOR_CASES:
        return capture_injector(name)
    return capture_experiment(name)


ALL_CASES = sorted(INJECTOR_CASES) + sorted(EXPERIMENT_CASES)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", ALL_CASES)
def test_fault_placement_matches_golden(name, golden):
    got = capture(name)
    expected = golden[name]
    for got_step, expected_step in zip(
        got["steps"], expected["steps"], strict=True
    ):
        assert got_step == expected_step
    assert json.dumps(got) == json.dumps(expected)


def test_golden_cases_exercise_the_placer(golden):
    """The fixture is only a guard if each step really placed faults."""
    for name in ALL_CASES:
        digests = [s["codes_sha256"] for s in golden[name]["steps"]]
        assert len(set(digests)) == len(digests), name
