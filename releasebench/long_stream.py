"""``long-stream``: an in-process fleet ``ReleaseSession``, accounting only.

10^5 users in 16 cohorts -- 13 fast-mixing random 3-state chains and 3
sticky chains whose FPL settles only after hundreds of steps -- ingest
320 time points in windows of 8, with a group-committed WAL compacted
every 96 releases.  The session is then dropped without closing (the
kill) and recovered from the compaction snapshot plus a 4-window tail.

Unit operation: one ``ingest_window`` call (8 time points).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from .common import (
    Run,
    RunContext,
    cohort_of_users,
    random_chain,
    rounds_until,
    sticky_chain,
)
from .host import self_cpu_s, self_peak_rss_mb
from .oracle import LossOracle, worst_tpl

N_USERS = 100_000
CHAIN_SEED = 1
N_FAST, N_SLOW = 13, 3
HORIZON = 320
WINDOW = 8
COMPACT_EVERY = 96
SETUPS = 3  # set-ups per round; the last one is the session that runs
SAMPLE_EVERY = 8  # oracle-check the worst TPL after every 8th window
TOL = 1e-9


def make_inputs(seed: int):
    """The chains are drawn once, from ``CHAIN_SEED``, so the solver
    work per window does not vary with ``seed``; ``seed`` places the
    users in cohorts and draws the budgets."""
    rng = np.random.default_rng([CHAIN_SEED, 1])
    chains = [random_chain(rng) for _ in range(N_FAST)]
    chains += [sticky_chain(float(p)) for p in rng.uniform(0.97, 0.99, N_SLOW)]
    rng = np.random.default_rng([seed, 1])
    cohorts = cohort_of_users(rng, N_USERS, len(chains))
    epsilons = rng.uniform(0.05, 0.15, HORIZON)
    return chains, cohorts, epsilons


def _config(chains, cohorts, wal_dir):
    from repro.markov.matrix import TransitionMatrix
    from repro.service import SessionConfig

    pairs = [(TransitionMatrix(c),) * 2 for c in chains]
    return SessionConfig(
        correlations={u: pairs[c] for u, c in enumerate(cohorts.tolist())},
        budgets=0.1,
        backend="fleet",
        wal_dir=str(wal_dir),
        wal_fsync="batch",
        wal_compact_every=COMPACT_EVERY,
    )


def check_output(out: dict, expected: Dict[int, float]) -> List[str]:
    """``out``: ``ts`` (every event's t), ``worst`` (max TPL after each
    sampled horizon), ``recovered`` (horizon, max TPL) and ``final``."""
    problems = []
    if out["ts"] != list(range(1, HORIZON + 1)):
        problems.append("event t does not run 1..H without a gap")
    for horizon, value in out["worst"].items():
        if abs(value - expected[horizon]) > TOL:
            problems.append(
                f"worst TPL at T={horizon}: {value!r} != oracle "
                f"{expected[horizon]!r}"
            )
    if out["recovered"] != (HORIZON, out["final"]):
        problems.append(
            f"recovered {out['recovered']} != uninterrupted "
            f"{(HORIZON, out['final'])}"
        )
    return problems


def run(ctx: RunContext) -> Run:
    from repro.service import ReleaseSession, ReleaseWindow, WindowStep

    result = Run(ops_per_round=HORIZON // WINDOW)
    chains, cohorts, epsilons = make_inputs(ctx.seed)
    oracles = [(LossOracle(c), LossOracle(c)) for c in chains]
    sampled = [
        w * WINDOW for w in range(SAMPLE_EVERY, HORIZON // WINDOW, SAMPLE_EVERY)
    ] + [HORIZON]
    expected = {t: worst_tpl(oracles, epsilons[:t]) for t in sampled}

    def one_round() -> None:
        wal_dir = ctx.fresh_dir("long-stream-wal")
        for i in range(SETUPS):
            if i:
                session.close()
                wal_dir = ctx.fresh_dir("long-stream-wal")
            start = time.perf_counter()
            config = _config(chains, cohorts, wal_dir)
            session = ReleaseSession(config)
            result.setup_s.append(time.perf_counter() - start)

        ts: List[int] = []
        worst: Dict[int, float] = {}
        latencies: List[float] = []
        cpu0, start = self_cpu_s(), time.perf_counter()
        for lo in range(0, HORIZON, WINDOW):
            window = ReleaseWindow(
                WindowStep(epsilon=float(e)) for e in epsilons[lo : lo + WINDOW]
            )
            t0 = time.perf_counter()
            events = session.ingest_window(window)
            latencies.append(1000.0 * (time.perf_counter() - t0))
            ts.extend(event.t for event in events)
            if lo + WINDOW in expected:
                worst[lo + WINDOW] = events[-1].max_tpl
        result.add_round(
            decided=HORIZON,
            timed_s=time.perf_counter() - start,
            cpu_s=self_cpu_s() - cpu0,
            latencies_ms=latencies,
        )
        result.attempted += HORIZON // WINDOW + 1  # windows + the recovery
        # Least-squares slope of window latency against the horizon it
        # ends at: the per-window cost that grows with T.
        ends = np.arange(WINDOW, HORIZON + 1, WINDOW, dtype=float)
        slope, intercept = np.polyfit(ends, latencies, 1)
        result.notes.append(
            f"window cost ~ {intercept:.1f} ms + {slope:.3f} ms x T "
            f"(T={WINDOW}: {latencies[0]:.0f} ms, T={HORIZON}: "
            f"{latencies[-1]:.0f} ms)"
        )
        final = session.max_tpl()

        # The kill: the session is dropped without closing -- no final
        # sync, no compaction -- and rebuilt from its WAL directory.
        del session
        start = time.perf_counter()
        recovered = ReleaseSession.recover(config)
        answer = (recovered.horizon, recovered.max_tpl())
        result.recover_s.append(time.perf_counter() - start)
        recovered.close()

        out = {"ts": ts, "worst": worst, "recovered": answer, "final": final}
        problems = check_output(out, expected)
        result.failures.extend(problems)
        if not problems:
            off = dict(out, worst={**worst, HORIZON: worst[HORIZON] + 1e-6})
            result.expect_rejected(check_output(off, expected), "TPL off by 1e-6")
            gap = dict(out, ts=ts[:100] + ts[101:])
            result.expect_rejected(check_output(gap, expected), "a missing t")

    rounds_until(ctx, one_round)
    result.peak_rss_mb = self_peak_rss_mb()
    return result
