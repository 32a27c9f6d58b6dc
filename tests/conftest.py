"""Shared fixtures: small hardware geometries that keep tests fast, and
a guard that fails any test leaving a thread, child process or
shared-memory segment behind."""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.utils.config import ChipConfig, CrossbarConfig, FaultConfig, TrainConfig
from repro.utils.rng import RngHub


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def hub() -> RngHub:
    return RngHub(seed=7)


@pytest.fixture
def xbar_config() -> CrossbarConfig:
    """A small 16x16 crossbar for unit tests."""
    return CrossbarConfig(rows=16, cols=16)


@pytest.fixture
def chip_config(xbar_config: CrossbarConfig) -> ChipConfig:
    """A small chip: 2x2 mesh, 2 tiles/router, 1 IMA, 4 crossbars/IMA."""
    return ChipConfig(
        mesh_rows=2,
        mesh_cols=2,
        tiles_per_router=2,
        imas_per_tile=1,
        crossbars_per_ima=4,
        crossbar=xbar_config,
    )


@pytest.fixture
def fault_config() -> FaultConfig:
    return FaultConfig()


@pytest.fixture
def tiny_train_config() -> TrainConfig:
    """The smallest training recipe that still exercises the full loop."""
    return TrainConfig(
        model="vgg11",
        epochs=1,
        batch_size=16,
        n_train=32,
        n_test=32,
        width_mult=0.125,
        image_size=32,
    )


#: how long a test's threads, children and segments get to wind down.
LEAK_GRACE_S = 1.0


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # no /dev/shm on this platform
        return set()


def _leaks(threads: set, children: set[int], shm: set[str]) -> list[str]:
    found = [
        f"thread {t.name!r}" for t in threading.enumerate()
        if t.is_alive() and t not in threads
    ]
    found += [
        f"child process {p.pid} ({p.name})" for p in mp.active_children()
        if p.pid not in children
    ]
    found += [f"/dev/shm/{name}" for name in sorted(_shm_entries() - shm)]
    return found


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail a test that leaves behind, after a short grace, a live thread,
    a multiprocessing child or a /dev/shm entry it created."""
    threads = set(threading.enumerate())
    children = {p.pid for p in mp.active_children()}
    shm = _shm_entries()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while (leaked := _leaks(threads, children, shm)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if leaked:
        pytest.fail("test leaked: " + ", ".join(leaked), pytrace=False)
