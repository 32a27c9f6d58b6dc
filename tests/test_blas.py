"""BLAS thread control: one BLAS thread per compute lane.

Three contracts of :mod:`repro.utils.blas` and its call sites:

* the thread count never changes a result — training and inference are
  byte-equal with the pool at 1 and at 2 threads;
* in-process lanes hold a counted lease: two or more lanes pin the pool
  to one thread, one lane leaves it alone, and the count found is
  restored once the last holder ends (server ``close``, a failed server
  constructor, data-parallel ``shutdown``);
* nothing is written to ``os.environ`` on the way.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.controller import build_experiment
from repro.nn.layers import BatchNorm2d
from repro.nn.parallel import WORKERS_ENV, DataParallelTrainer
from repro.serve import InferenceServer, ServeConfig
from repro.telemetry import Telemetry
from repro.utils.blas import openblas_thread_calls, single_thread_lease
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

needs_openblas = pytest.mark.skipif(
    openblas_thread_calls() is None,
    reason="no loaded OpenBLAS exposes a thread-count entry point",
)


def _config(model: str = "vgg11", dtype: str = "float32",
            **train_kw) -> ExperimentConfig:
    train = dict(
        model=model, epochs=1, batch_size=16, n_train=48, n_test=32,
        width_mult=0.125, dtype=dtype,
    )
    train.update(train_kw)
    return ExperimentConfig(
        train=TrainConfig(**train),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(post_n=0.5, post_m=0.01),
        policy="remap-d",
        seed=11,
    )


def blas_threads() -> int:
    return openblas_thread_calls()[1]()


@contextmanager
def _pool(threads: int):
    """Run the block with the OpenBLAS pool at ``threads`` threads."""
    setter, getter = openblas_thread_calls()
    found = getter()
    setter(threads)
    try:
        if getter() != threads:
            pytest.skip(f"OpenBLAS refused a {threads}-thread pool")
        yield
    finally:
        setter(found)


@pytest.fixture
def pool2():
    """A 2-thread pool, so that a pin to one thread is observable."""
    with _pool(2):
        yield


# --------------------------------------------------------------------- #
# thread-count bit identity
# --------------------------------------------------------------------- #
def _epoch_and_logits(model: str, dtype: str):
    """One fused training epoch, then padded inference on the test set."""
    ctx = build_experiment(_config(model, dtype))
    trainer = ctx.trainer
    loss = trainer.train_epoch(0)
    params = [p.data.copy() for p in trainer.optimizer.parameters]
    stats = [
        (m.running_mean.copy(), m.running_var.copy())
        for _, m in ctx.model.named_modules() if isinstance(m, BatchNorm2d)
    ]
    logits = trainer.predict(ctx.dataset.x_test, batch=32, pad_to=32)
    return loss, params, stats, logits


@needs_openblas
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("model", ["vgg11", "resnet12", "squeezenet"])
def test_results_byte_equal_at_one_and_two_threads(model, dtype):
    with _pool(1):
        one = _epoch_and_logits(model, dtype)
    with _pool(2):
        two = _epoch_and_logits(model, dtype)
    assert one[0] == two[0], "epoch loss diverged"
    for a, b in zip(one[1], two[1]):
        assert a.tobytes() == b.tobytes(), "weights diverged"
    assert len(one[2]) == len(two[2]) > 0
    for (ma, va), (mb, vb) in zip(one[2], two[2]):
        assert ma.tobytes() == mb.tobytes(), "running mean diverged"
        assert va.tobytes() == vb.tobytes(), "running var diverged"
    assert one[3].dtype == two[3].dtype
    assert one[3].tobytes() == two[3].tobytes(), "logits diverged"


# --------------------------------------------------------------------- #
# lease semantics
# --------------------------------------------------------------------- #
@needs_openblas
class TestLease:
    def test_one_lane_holds_nothing(self, pool2):
        lease = single_thread_lease(1)
        assert blas_threads() == 2
        pin = single_thread_lease(2)
        lease.release()  # holds nothing, so cannot end the pin
        assert blas_threads() == 1
        pin.release()
        assert blas_threads() == 2

    def test_pins_then_restores_once(self, pool2):
        lease = single_thread_lease(2)
        assert blas_threads() == 1
        lease.release()
        assert blas_threads() == 2
        lease.release()  # idempotent: no second restore
        assert blas_threads() == 2

    def test_overlapping_leases_restore_after_the_last(self, pool2):
        first = single_thread_lease(2)
        inner = single_thread_lease(3)
        assert blas_threads() == 1
        inner.release()
        assert blas_threads() == 1
        first.release()
        assert blas_threads() == 2
        second = single_thread_lease(2)
        first.release()  # a spent lease cannot end another's hold
        assert blas_threads() == 1
        second.release()
        assert blas_threads() == 2


def _tiny_serve() -> ExperimentConfig:
    return _config(n_train=32, n_test=32)


def _serve(replicas: int, **kw) -> InferenceServer:
    return InferenceServer(
        _tiny_serve(),
        ServeConfig(max_batch=8, max_wait_us=500, replicas=replicas, **kw),
    )


class _FailingStart(Telemetry):
    """A sink whose ``server_started`` event raises: the constructor fails
    after its replica threads started and the lease was taken."""

    def event(self, kind, **payload):
        if kind == "server_started":
            raise RuntimeError("sink refused server_started")
        return super().event(kind, **payload)


@needs_openblas
class TestServerLease:
    def test_single_replica_leaves_the_pool_alone(self, pool2):
        srv = _serve(1)
        try:
            assert blas_threads() == 2
            srv.predict(np.zeros((3,) + srv.input_shape, srv.input_dtype))
            assert blas_threads() == 2
        finally:
            srv.close()
        assert blas_threads() == 2

    @pytest.mark.parametrize("drain", [True, False])
    def test_two_replicas_pin_until_close(self, pool2, drain):
        srv = _serve(2)
        try:
            assert blas_threads() == 1
            srv.predict(np.zeros((3,) + srv.input_shape, srv.input_dtype))
            assert blas_threads() == 1
        finally:
            srv.close(drain=drain)
        assert blas_threads() == 2

    def test_failed_constructor_restores(self, pool2):
        with pytest.raises(RuntimeError, match="server_started"):
            InferenceServer(
                _tiny_serve(),
                ServeConfig(max_batch=8, max_wait_us=500, replicas=2),
                telemetry=_FailingStart(echo=False),
            )
        assert blas_threads() == 2

    def test_overlapping_servers_restore_after_the_last_close(self, pool2):
        first = _serve(2)
        try:
            second = _serve(2)
            try:
                first.close()
                assert blas_threads() == 1  # the second server still serves
            finally:
                second.close()
        finally:
            first.close()
        assert blas_threads() == 2


# --------------------------------------------------------------------- #
# rank 0 of the data-parallel trainer, and the environment
# --------------------------------------------------------------------- #
class TestRankZeroAndEnvironment:
    @pytest.fixture(autouse=True)
    def _clean_workers_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)

    @needs_openblas
    def test_rank_zero_runs_one_thread_during_fit(self, pool2):
        ctx = build_experiment(_config(data_parallel=2, grad_shards=4))
        trainer = ctx.trainer
        assert isinstance(trainer, DataParallelTrainer)
        trainer.epoch_metrics = lambda: {"blas_threads": blas_threads()}
        try:
            result = trainer.fit()
            assert trainer.world == 2
        finally:
            trainer.shutdown()
        assert result.history[0]["blas_threads"] == 1
        assert blas_threads() == 2

    def test_environment_unchanged(self):
        before = dict(os.environ)
        srv = _serve(2, workers=True)
        try:
            srv.predict(np.zeros((3,) + srv.input_shape, srv.input_dtype))
        finally:
            srv.close()
        ctx = build_experiment(_config(data_parallel=2, grad_shards=4))
        try:
            ctx.trainer.train_epoch(0)
            assert ctx.trainer.world == 2
        finally:
            ctx.trainer.shutdown()
        assert dict(os.environ) == before
