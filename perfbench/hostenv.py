"""Run environment, host-speed probe and process accounting.

Everything here describes the machine a run measured on; nothing here
rescales a metric.  The host-speed probe is a fixed pure-Python loop plus
small matmuls, timed before and after a run, so a reader can attribute
an outlier run to a slow phase of the host.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def host_probe() -> dict[str, float]:
    """Seconds for a fixed pure-Python loop and for 200 small matmuls."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    python_s = time.perf_counter() - started
    rng = np.random.default_rng(0)
    left = rng.standard_normal((200, 200))
    right = rng.standard_normal((200, 200))
    # A process's first few hundred BLAS calls are slow; keep that out of
    # the probe.
    for _ in range(300):
        np.tanh(left @ right)
    started = time.perf_counter()
    for _ in range(200):
        left = np.tanh(left @ right)
    matmul_s = time.perf_counter() - started
    return {"python_s": python_s, "matmul_s": matmul_s}


def _openblas_info() -> tuple[str | None, int | None]:
    """OpenBLAS version string and its current thread count, if loaded."""
    version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = int(function())
                break
    return version, threads


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(seed: int, root: Path) -> dict[str, object]:
    """What a reader needs to place one run among others."""
    blas_version, blas_threads = _openblas_info()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "commit": _commit(root),
        "saved_at": datetime.now(timezone.utc).isoformat(),
    }


def _proc_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        # The command name is parenthesised and may hold spaces.
        return handle.read().rsplit(")", 1)[1].split()


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used so far."""
    fields = _proc_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def reset_peak_rss() -> bool:
    """Restart this process's peak RSS (VmHWM) from its current RSS.

    Writing ``5`` to ``clear_refs`` does this on Linux 4.0 and later.
    Returns False where the kernel refuses, and the peak then stays the
    process's lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process, in MiB."""
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _child_pids() -> list[int]:
    """PIDs of this process's live (not yet reaped) children."""
    own = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_proc_fields(int(entry))[1]) == own:
                children.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue  # exited while being read
    return children


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid``; True once reaped."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # reaped elsewhere
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def stop_children() -> None:
    """Stop every child process this run started and wait for each to end.

    Shard workers are normally joined by their router already; anything
    still alive gets SIGTERM, then SIGKILL.  The multiprocessing resource
    tracker, which shared memory starts and which would otherwise outlive
    this process, is stopped last: it exits once every holder of its pipe
    (the workers included) is gone.
    """
    tracker = None
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _child_pids():
        if pid == tracker_pid:
            continue
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
            if _reap(pid, 5.0):
                break
    if tracker_pid is not None:
        tracker._stop()


def private_mb(pid: int) -> float:
    """Memory only this live process maps (its USS), in MiB.

    Pages a forked worker still shares copy-on-write with its parent are
    left out, so they are not counted once per process.
    """
    total_kb = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
