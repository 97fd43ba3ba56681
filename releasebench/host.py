"""What the benchmark knows about the machine and its own processes:
the hardware block printed with every run, per-process CPU time and peak
resident memory read from ``/proc``, and the percentile rule."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "hardware_block",
    "proc_cpu_s",
    "proc_peak_rss_mb",
    "self_cpu_s",
    "self_peak_rss_mb",
    "percentile",
    "tail_quantile",
]

_TICKS = os.sysconf("SC_CLK_TCK")


def _burn(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i * i


def _effective_cores(iterations: int = 2_500_000) -> float:
    """Two processes burning the same loop at once, against one alone:
    ``2 * t_one / t_two`` is the parallelism the machine actually gives."""
    start = time.perf_counter()
    _burn(iterations)
    alone = time.perf_counter() - start
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_burn, args=(iterations,)) for _ in range(2)]
    start = time.perf_counter()
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    together = time.perf_counter() - start
    return 2.0 * alone / together


def _cgroup_cpu_limit() -> Optional[str]:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            text = Path(path).read_text().strip()
        except OSError:
            continue
        if path.endswith("cpu.max"):
            quota, _, period = text.partition(" ")
            if quota == "max":
                return None
            return f"{int(quota) / int(period):.2f} cores"
        if text != "-1":
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text()
            return f"{int(text) / int(period):.2f} cores"
    return None


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "not a git checkout"


def hardware_block(root: Path) -> dict:
    import numpy

    return {
        "cores_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": _cgroup_cpu_limit(),
        "effective_cores": round(_effective_cores(), 3),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
    }


def proc_cpu_s(pid: int) -> Optional[float]:
    """User + system CPU seconds of a live process."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def self_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_quantile(n_ops: int) -> float:
    """The highest percentile that leaves at least ten of ``n_ops``
    samples beyond it (the workloads fix ``n_ops`` per round)."""
    if n_ops < 40:
        raise ValueError(f"a tail needs at least 40 samples, got {n_ops}")
    return math.floor(100.0 * (n_ops - 10) / n_ops) / 100.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q * n`` samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]
