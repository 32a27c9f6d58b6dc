"""Runner tests: serial/parallel parity, failure isolation, env parsing."""

import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.runner import (
    CellResult,
    ExperimentCell,
    default_workers,
    results_by_key,
    run_experiments,
)
from repro.runner.runner import WORKERS_ENV, _init_worker, _normalise
from repro.utils.blas import openblas_thread_calls
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


def _tiny(model: str = "vgg11", seed: int = 11, **train_kw) -> ExperimentConfig:
    train_kw.setdefault("epochs", 1)
    return ExperimentConfig(
        train=TrainConfig(
            model=model, batch_size=16, n_train=32, n_test=32,
            width_mult=0.125, **train_kw,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy="none",
        seed=seed,
    )


def _report_blas_threads(conn) -> None:
    """Forked-worker body: BLAS threads inherited, then after init."""
    get = openblas_thread_calls()[1]
    inherited = get()
    _init_worker()
    conn.send((inherited, get()))
    conn.close()


class TestWorkerBlasPin:
    def test_forked_worker_runs_one_blas_thread(self):
        calls = openblas_thread_calls()
        if calls is None:
            pytest.skip("no loaded OpenBLAS exposes a thread-count entry point")
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs the fork start method")
        a = np.ones((256, 256))
        a @ a  # the parent's pool has started
        parent_threads = calls[1]()
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_report_blas_threads, args=(send,))
        proc.start()
        send.close()
        try:
            assert recv.poll(60), "worker sent nothing"
            inherited, pinned = recv.recv()
        finally:
            proc.join(timeout=30)
            recv.close()
        assert inherited == parent_threads
        assert pinned == 1
        assert calls[1]() == parent_threads  # the parent keeps its pool


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert default_workers() == 4

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert default_workers() >= 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            default_workers()

    def test_nonpositive_clamped_to_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert default_workers() == 1


class TestNormalise:
    def test_accepts_all_cell_spellings(self):
        cfg = _tiny()
        cells = _normalise([
            ExperimentCell("a", cfg), cfg, ("c", cfg),
        ])
        assert [c.key for c in cells] == ["a", 1, "c"]

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            _normalise(["not a cell"])


class TestRunExperiments:
    def test_empty_input(self):
        assert run_experiments([]) == []

    def test_serial_vs_pool_identical(self):
        cells = [
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=12)),
        ]
        serial = run_experiments(cells, workers=1)
        pooled = run_experiments(cells, workers=2)
        assert [r.key for r in serial] == ["a", "b"]  # submission order
        assert [r.key for r in pooled] == ["a", "b"]
        for s, p in zip(serial, pooled):
            assert s.ok and p.ok
            assert s.final_accuracy == p.final_accuracy
            assert (
                s.result.train_result.accuracy_curve()
                == p.result.train_result.accuracy_curve()
            )

    def test_failure_isolation(self):
        cells = [
            ExperimentCell("good", _tiny(seed=11)),
            ExperimentCell("bad", _tiny(model="no-such-model")),
        ]
        results = run_experiments(cells, workers=1)
        good, bad = results
        assert good.ok and not bad.ok
        assert "no-such-model" in bad.error
        assert np.isnan(bad.final_accuracy)
        assert good.final_accuracy == good.result.final_accuracy

    def test_on_result_callback_sees_every_cell(self):
        seen = []
        cells = [ExperimentCell(i, _tiny(seed=20 + i)) for i in range(2)]
        run_experiments(cells, workers=1, on_result=seen.append)
        assert sorted(r.key for r in seen) == [0, 1]

    def test_tags_carried_through(self):
        cell = ExperimentCell("t", _tiny(), tags={"row": "vgg11"})
        (res,) = run_experiments([cell], workers=1)
        assert res.tags == {"row": "vgg11"}


class TestSharedDatasetCache:
    def test_prefill_generates_each_recipe_once(self):
        from repro.nn.data import clear_dataset_cache, cached_dataset
        from repro.runner.runner import _dataset_recipes, _prefill_dataset_cache

        clear_dataset_cache()
        cells = _normalise([
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=11)),   # same recipe as "a"
            ExperimentCell("c", _tiny(seed=12)),
        ])
        assert len(_dataset_recipes(cells)) == 2
        _prefill_dataset_cache(cells)
        tc = cells[0].config.train
        ds_a = cached_dataset(tc.dataset, tc.n_train, tc.n_test, tc.image_size, 11)
        assert ds_a is cached_dataset(
            tc.dataset, tc.n_train, tc.n_test, tc.image_size, 11
        )

    def test_spawn_shared_memory_matches_serial(self):
        """The spawn path ships datasets via shared memory, same results."""
        cells = [
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=12)),
        ]
        serial = run_experiments(cells, workers=1)
        spawned = run_experiments(cells, workers=2, start_method="spawn")
        for s, p in zip(serial, spawned):
            assert s.ok and p.ok, (s.error, p.error)
            assert s.final_accuracy == p.final_accuracy
            assert (
                s.result.train_result.accuracy_curve()
                == p.result.train_result.accuracy_curve()
            )


#: Exports one dataset, runs the worker start-up in a child of the given
#: start method, then unlinks the segments the way a finished sweep does.
_SHM_ATTACH_SCRIPT = """
import multiprocessing as mp
import sys

from repro.runner.runner import (
    ExperimentCell, _export_datasets_shm, _init_worker, _release_segments,
)
from repro.utils.config import ExperimentConfig, TrainConfig

if __name__ == "__main__":
    cfg = ExperimentConfig(train=TrainConfig(n_train=8, n_test=8), seed=3)
    specs, segments = _export_datasets_shm([ExperimentCell("shm", cfg)])
    worker = mp.get_context(sys.argv[1]).Process(
        target=_init_worker, args=(specs,)
    )
    worker.start()
    worker.join()
    _release_segments(segments)
    sys.exit(worker.exitcode)
"""


class TestSharedMemoryTracker:
    """A worker attaching the parent's segments must leave the resource
    tracker's bookkeeping alone: on CPython the child shares the parent's
    tracker, so a child-side unregister drops the parent's registration
    and the parent's unlink then fails inside the tracker."""

    @pytest.mark.parametrize("method", ["spawn", "fork"])
    def test_worker_attach_then_parent_unlink_is_clean(self, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"needs the {method} start method")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", _SHM_ATTACH_SCRIPT, method],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestTelemetryMerge:
    """Worker telemetry folds back into the parent sink identically for
    serial, fork-pool and spawn-pool execution."""

    def _cells(self):
        return [
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=12, model="resnet12")),
        ]

    def _aggregate(self, **kwargs):
        from repro.telemetry import Telemetry

        tel = Telemetry(echo=False)
        results = run_experiments(self._cells(), telemetry=tel, **kwargs)
        assert all(r.ok for r in results), [r.error for r in results]
        return tel, results

    def test_every_cell_carries_a_snapshot(self):
        _, results = self._aggregate(workers=1)
        for res in results:
            assert res.telemetry is not None
            assert res.telemetry["counters"]["engine.cache_misses"] > 0
            assert res.telemetry["events"]

    def test_serial_fork_spawn_aggregate_identically(self):
        serial, _ = self._aggregate(workers=1)
        fork, _ = self._aggregate(workers=2, start_method="fork")
        spawn, _ = self._aggregate(workers=2, start_method="spawn")
        assert serial.counters == fork.counters == spawn.counters
        # span *counts* are deterministic (durations are wall clock)
        span_counts = lambda t: {k: v["count"] for k, v in t.spans.items()}
        assert span_counts(serial) == span_counts(fork) == span_counts(spawn)
        # merged events arrive in submission order, tagged by cell key
        order = lambda t: [(e["cell"], e["kind"]) for e in t.events]
        assert order(serial) == order(fork) == order(spawn)

    def test_parent_counters_equal_snapshot_sums(self):
        tel, results = self._aggregate(workers=1)
        summed: dict[str, int] = {}
        for res in results:
            for name, n in res.telemetry["counters"].items():
                summed[name] = summed.get(name, 0) + n
        assert tel.counters == summed

    def test_failed_cell_still_returns_telemetry(self):
        from repro.telemetry import Telemetry

        tel = Telemetry(echo=False)
        cells = [ExperimentCell("bad", _tiny(model="no-such-model"))]
        (res,) = run_experiments(cells, workers=1, telemetry=tel)
        assert not res.ok
        assert res.telemetry is not None  # partial trace, still merged


class TestResultsByKey:
    def _res(self, key) -> CellResult:
        return CellResult(
            key=key, ok=False, result=None, error="x",
            wall_seconds=0.0, worker_pid=0,
        )

    def test_indexing(self):
        by_key = results_by_key([self._res("a"), self._res("b")])
        assert set(by_key) == {"a", "b"}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            results_by_key([self._res("a"), self._res("a")])
