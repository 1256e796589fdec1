"""Linux /proc readers: peak RSS, major faults, load, memory size.

Peak memory is VmHWM, reset through ``/proc/<pid>/clear_refs`` before
the timed phase, so set-up (data generation, exact ground truth) does
not count. ``ru_maxrss`` cannot be reset and survives fork, which is why
it is not used.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import multiprocessing
import os
import platform
import signal
import time


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def worker_pids() -> list[int]:
    """Live child processes started through :mod:`multiprocessing`."""
    return sorted(child.pid for child in multiprocessing.active_children())


def child_pids() -> list[int]:
    """Every live direct child of this process, however it was started."""
    pids: set[int] = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return sorted(pids)


def stop_children(grace_s: float = 10.0) -> list[int]:
    """Stop every child process and wait until each has ended.

    The shared-memory segments of ``ProcessBackend`` start
    :mod:`multiprocessing`'s resource tracker, a child that otherwise
    outlives this process until it reads end-of-file; it is stopped the
    way the standard library's own tests stop it. Any other child still
    alive (a pool worker left by an error) gets SIGTERM, then SIGKILL
    after ``grace_s``. Returns the pids that had to be signalled.
    """
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except Exception:  # tracker internals vary across versions
        pass
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    signalled = child_pids()
    for pid in signalled:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in signalled:
        while not _reaped(pid):
            if time.monotonic() > deadline:
                _signal(pid, signal.SIGKILL)
                _reaped(pid, block=True)
                break
            time.sleep(0.01)
    return signalled


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _reaped(pid: int, block: bool = False) -> bool:
    try:
        return os.waitpid(pid, 0 if block else os.WNOHANG)[0] == pid
    except ChildProcessError:  # already reaped elsewhere
        return True


def release_free_memory() -> bool:
    """Return freed heap pages to the kernel (glibc ``malloc_trim``).

    Called before the peak is reset, so the baseline is the live set and
    not whatever set-up happened to leave in the allocator's free lists.
    """
    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        return bool(ctypes.CDLL(name).malloc_trim(0))
    except (OSError, AttributeError):
        return False


def reset_peak_rss(pids: list[int]) -> bool:
    """Reset VmHWM of ``pids`` to their current RSS; False if refused."""
    try:
        for pid in pids:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_kb(pids: list[int]) -> int:
    """Summed VmHWM of ``pids`` in kB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids)


def major_faults(pids: list[int]) -> int:
    """Summed major page faults of ``pids`` (field 12 of /proc/<pid>/stat)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[9])
    return total


def mem_total_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/meminfo has no MemTotal")


def environment() -> dict[str, object]:
    """What a reader needs to judge a run: cores, versions, RAM, load."""
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mem_total_bytes": mem_total_bytes(),
        "loadavg": os.getloadavg(),
    }
