"""State shared by the workloads: what one run measured, and how it
becomes the end-to-end metrics."""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from .host import percentile, tail_quantile
from .trace import Tracer

__all__ = ["Run", "RunContext", "cohort_of_users", "random_chain", "sticky_chain"]


@dataclass
class RunContext:
    """What a workload gets from the command line."""

    root: Path  # the checkout
    seed: int
    seconds: float
    work_dir: Path  # scratch space inside the checkout, removed afterwards
    tracer: Optional[Tracer]  # set only for --trace 1

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path


@dataclass
class Run:
    """Everything one workload run measured.

    Throughput and CPU per release are computed per round and reported
    as their median over the rounds.  Every round repeats the same timed
    operations in the same order, so each operation's latency is taken
    as its median over the rounds and the latency percentiles are read
    off those medians.  Either way one round slowed by a neighbour on a
    shared machine does not move the result, and a latency percentile
    draws on every round rather than on one order statistic of each.
    """

    ops_per_round: int  # timed operations per round; fixes the tail
    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    per_round: List[Dict[str, float]] = field(default_factory=list)
    latencies_ms: List[List[float]] = field(default_factory=list)  # per round
    failures: List[str] = field(default_factory=list)  # failed checks
    layer: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Span aggregates collected from the program's other processes;
    #: ``None`` when they were expected but none arrived.
    remote: Optional[dict] = field(
        default_factory=lambda: {"stats": {}, "counters": {}}
    )
    notes: List[str] = field(default_factory=list)

    @property
    def tail_q(self) -> float:
        return tail_quantile(self.ops_per_round)

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    def add_round(
        self,
        *,
        decided: int,
        timed_s: float,
        cpu_s: float,
        latencies_ms: List[float],
    ) -> None:
        """Record one round's timed phase: ``decided`` time points in
        ``timed_s`` seconds and ``cpu_s`` CPU seconds of the program;
        ``latencies_ms`` in the order the operations were issued."""
        if len(latencies_ms) != self.ops_per_round:
            raise ValueError(
                f"{len(latencies_ms)} timed operations in a round, "
                f"expected {self.ops_per_round}"
            )
        self.latencies_ms.append(list(latencies_ms))
        self.per_round.append(
            {
                "throughput_per_s": decided / timed_s,
                "cpu_ms_per_release": 1000.0 * cpu_s / decided,
            }
        )

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def expect_rejected(self, problems: List[str], what: str) -> None:
        """A check fed a deliberately wrong output must reject it."""
        if not problems:
            self.failures.append(f"check accepted a perturbed output: {what}")

    def end_to_end(self) -> Dict[str, dict]:
        def over_rounds(name):
            return statistics.median(r[name] for r in self.per_round)

        units = {
            "setup_s": "s",
            "throughput_per_s": "1/s",
            "p50_ms": "ms",
            "tail_ms": "ms",
            "recover_s": "s",
            "peak_rss_mb": "MB",
            "cpu_ms_per_release": "ms",
        }
        values = {
            "setup_s": statistics.median(self.setup_s),
            "recover_s": statistics.median(self.recover_s),
            "peak_rss_mb": self.peak_rss_mb,
        }
        for name in ("throughput_per_s", "cpu_ms_per_release"):
            values[name] = over_rounds(name)
        per_op = np.median(np.asarray(self.latencies_ms), axis=0).tolist()
        values["p50_ms"] = percentile(per_op, 0.5)
        values["tail_ms"] = percentile(per_op, self.tail_q)
        return {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        }


def rounds_until(ctx: RunContext, one_round: Callable[[], None]) -> None:
    """Repeat whole rounds until ``ctx.seconds`` of wall time have passed
    since the first began (at least one round)."""
    start = time.perf_counter()
    while True:
        one_round()
        if time.perf_counter() - start >= ctx.seconds:
            return


def random_chain(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    """A fast-mixing random chain: every entry above 0.04."""
    raw = rng.random((n, n)) + 0.15
    return raw / raw.sum(axis=1, keepdims=True)


def sticky_chain(p: float, n: int = 3) -> np.ndarray:
    """Stay with probability ``p``, move uniformly otherwise: strongly
    correlated, so its FPL settles only after hundreds of steps."""
    matrix = np.full((n, n), (1.0 - p) / (n - 1))
    np.fill_diagonal(matrix, p)
    return matrix


def cohort_of_users(
    rng: np.random.Generator, n_users: int, n_cohorts: int
) -> np.ndarray:
    """Which cohort each user belongs to: every cohort non-empty, the
    rest drawn at random."""
    n = n_cohorts
    cohort = rng.integers(0, n, size=n_users)
    cohort[:n] = np.arange(n)
    return cohort
