"""Process-tree CPU and memory, percentiles, and set-up timing.

CPU and resident-set figures cover the benchmark process and every
process it started: pool workers the program forks for a campaign (and
reaps when it ends), the job server and the server's own pool workers.
Live descendants are read from ``/proc``; reaped ones are in the
kernel's child accounting of their parent.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def descendants(root: int) -> List[int]:
    """Pids of every live process below ``root``."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(name))[1])
        except (OSError, ValueError, IndexError):
            continue  # ended while we looked
        children.setdefault(parent, []).append(int(name))
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def tree_cpu_seconds() -> float:
    """CPU seconds used so far by this process and all it started."""
    times = os.times()
    total = (times.user + times.system + times.children_user
             + times.children_system)
    for pid in descendants(os.getpid()):
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        # utime, stime, cutime, cstime: fields 14-17 of /proc/pid/stat.
        total += sum(int(value) for value in fields[11:15]) / _TICKS
    return total


def host_ticks() -> List[int]:
    """``[stolen, total]`` CPU ticks of the machine since boot.

    Stolen ticks are time the hypervisor gave this machine's CPUs to
    other guests; their share during a run says how busy the host was.
    """
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return [fields[7] if len(fields) > 7 else 0, sum(fields[:8])]


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Largest resident set of this process or any process it started."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    peaks.extend(_hwm_kb(pid) for pid in descendants(os.getpid()))
    return max(peaks) / 1024.0


def wait_gone(pids: Iterable[int], timeout: float) -> List[int]:
    """Wait until the given pids have ended; returns those still alive."""
    pending = list(pids)
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        pending = [pid for pid in pending if _running(pid)]
        if pending:
            time.sleep(0.01)
    return pending


def _running(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def p90(values: Sequence[float]) -> float:
    """90th percentile; callers ensure ten samples lie beyond it."""
    return statistics.quantiles(values, n=10)[8]


def setup_seconds(root: str, workload: str, seed: int, samples: int,
                  timeout: float = 60.0) -> List[float]:
    """Time ``samples`` fresh interpreters until each can submit a job.

    Each sample starts ``perfbench/setup_probe.py``, which imports the
    program, builds the workload's inputs (and starts the job server
    for ``serve-jobs``), prints ``ready`` and then tears down.  The time
    runs from process start to the ``ready`` line.
    """
    times = []
    probe = os.path.join(root, "perfbench", "setup_probe.py")
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload, str(seed)], cwd=root,
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=timeout)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"setup probe for {workload} failed (exit {code}, "
                f"said {line.strip()!r})"
            )
        times.append(elapsed)
    return times
