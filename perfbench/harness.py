"""Measurement plumbing shared by the workloads.

* :func:`fingerprint` — the machine and numeric stack a result was
  measured on;
* :func:`peak_rss_mb` — peak resident set size of this process;
* :class:`LeakGuard` — threads, child processes and ``/dev/shm`` segments
  left behind by a workload;
* :func:`check_repeatable` — simulated statistics must not change
  between runs of one code at one seed;
* :func:`percentile` — the quantile convention of every reported tail.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import threading
from typing import Any

import numpy as np

SHM_DIR = pathlib.Path("/dev/shm")


def fingerprint() -> dict[str, Any]:
    """CPU count, interpreter, NumPy and its BLAS, and the thread knobs.

    The benchmark pins no BLAS threads itself: it measures the environment
    a user of the repository gets.
    """
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):  # NumPy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of the samples."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def child_pids(pid: int | None = None) -> list[int]:
    """Live and zombie children of ``pid`` (all of its threads)."""
    task_dir = pathlib.Path(f"/proc/{pid or os.getpid()}/task")
    out: list[int] = []
    for task in task_dir.iterdir():
        try:
            out.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (kernel's
    high-water mark; Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LeakGuard:
    """What a workload left running: threads, child processes, segments."""

    def __init__(self) -> None:
        self._threads = set(threading.enumerate())
        self._shm = self._segments()

    @staticmethod
    def _segments() -> set[str]:
        return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()

    def leaks(self) -> list[str]:
        multiprocessing.active_children()  # reaps finished children
        found = [
            f"thread {t.name}" for t in threading.enumerate()
            if t not in self._threads and t.is_alive()
        ]
        found += [f"child process {pid}" for pid in child_pids()]
        found += [f"/dev/shm/{s}" for s in sorted(self._segments() - self._shm)]
        return found


def code_digest(*roots: pathlib.Path) -> str:
    """Digest of every Python source file under ``roots``."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(
    store: pathlib.Path, key: str, stats: dict[str, Any]
) -> tuple[bool, str]:
    """Compare simulated statistics with an earlier run of the same key.

    ``key`` names the code digest, workload, scale and seed.  The first
    run records the statistics; every later one must match them exactly.
    """
    path = store / f"{key}.json"
    current = json.loads(json.dumps(stats))
    if not path.exists():
        store.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(current, sort_keys=True))
        os.replace(tmp, path)
        return True, "recorded"
    earlier = json.loads(path.read_text())
    if earlier == current:
        return True, "matches earlier run"
    changed = sorted(
        k for k in set(earlier) | set(current) if earlier.get(k) != current.get(k)
    )
    return False, f"differs from earlier run in {changed}"
