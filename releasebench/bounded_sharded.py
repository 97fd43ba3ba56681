"""``bounded-sharded``: the paper's mechanism with alpha enforced.

Set-up solves ``allocate_quantified`` (Algorithm 3) for 512 users in 16
cohorts of 3-state chains and starts a clamp-mode session over two shard
workers on the default transport, with a WAL compacted every 64
releases.  The run streams the declared horizon of 192 in windows of 4,
then sends 2 further requests at the middle budget: with every time
point already at alpha, clamp mode must refuse them (or spend no more
than the headroom the allocation left).  Then both workers are SIGKILLed,
the coordinator is dropped, and the session is recovered from its WAL.

Unit operation: one ``ingest_window`` call -- 4 time points of the
stream, or one further request.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List

import numpy as np

from .common import (
    Run,
    RunContext,
    cohort_of_users,
    random_chain,
    rounds_until,
    sticky_chain,
)
from .host import proc_cpu_s, proc_peak_rss_mb, self_cpu_s, self_peak_rss_mb
from .oracle import LossOracle, worst_tpl
from .trace import merge_dir

N_USERS = 512
#: These chains make Algorithm 3 overshoot alpha by ~8e-12, so the last
#: stream step and the first request past the horizon are clamped rather
#: than released and refused (see the FOUND lines of CHANGES.md).
CHAIN_SEED = 7
N_FAST, N_SLOW = 13, 3
ALPHA = 1.0
HORIZON = 192
WINDOW = 4
EXTRA = 2  # requests after the horizon, each at the middle budget
RESOLUTION = 1e-6  # clamp bisection resolution, a share of the request
SHARDS = 2
COMPACT_EVERY = 64
TOL = 1e-9
ALPHA_TOL = 1e-12  # the session's own slack on alpha comparisons
#: The oracle and the program round differently by a few ulp.  The
#: Algorithm-3 budgets put TPL within ulps of alpha + ALPHA_TOL, so a
#: decision the program takes at that edge is checked only up to this.
EDGE = 1e-14


def make_inputs(seed: int):
    """The chains are drawn once, from ``CHAIN_SEED``: the allocation,
    every TPL and every clamp decision depend only on them, so every
    seed does the same work.  ``seed`` places the users in cohorts."""
    rng = np.random.default_rng([CHAIN_SEED, 3])
    chains = [random_chain(rng) for _ in range(N_FAST)]
    chains += [sticky_chain(float(p)) for p in rng.uniform(0.9, 0.95, N_SLOW)]
    users = np.random.default_rng([seed, 4])
    return chains, cohort_of_users(users, N_USERS, len(chains))


def _child_pids() -> List[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry.name))
    return pids


def check_output(out: dict, oracles, schedule) -> List[str]:
    """``out``: ``steps`` (per decided time point: t, requested and
    applied budget, status), the session's max TPL after the stream
    (``stream_tpl``) and at the end (``max_tpl``), ``refused``
    (requested budgets of the refused requests) and ``recovered`` vs
    ``final`` (horizon, max TPL).  ``schedule`` is the Algorithm-3
    budget vector."""
    problems = []
    steps = out["steps"]
    bound = ALPHA + ALPHA_TOL
    if [s["t"] for s in steps] != list(range(1, len(steps) + 1)):
        problems.append("event t does not run 1..H without a gap")
    planned = worst_tpl(oracles, schedule)
    if abs(out["stream_tpl"] - planned) > TOL:
        problems.append(
            f"TPL after the stream {out['stream_tpl']!r} != oracle "
            f"{planned!r} for the Algorithm-3 budgets"
        )
    applied = [s["applied"] for s in steps]
    worst = worst_tpl(oracles, applied)
    if worst > bound + EDGE:
        problems.append(f"oracle TPL {worst!r} exceeds alpha")
    if abs(worst - out["max_tpl"]) > TOL:
        problems.append(
            f"session max TPL {out['max_tpl']!r} != oracle {worst!r}"
        )
    for i, step in enumerate(steps):
        t, requested = step["t"], step["requested"]
        if step["status"] == "released" and step["applied"] != requested:
            problems.append(f"t={t}: released but budget changed")
        if step["status"] == "clamped":
            # Maximal: one more clamp resolution of the request breaks
            # alpha.
            more = applied[:i] + [step["applied"] + RESOLUTION * requested]
            if worst_tpl(oracles, more) <= bound - EDGE:
                problems.append(f"t={t}: clamp left budget unspent")
    for requested in out["refused"]:
        if worst_tpl(oracles, applied + [RESOLUTION * requested]) <= bound - EDGE:
            problems.append("a refused request had room for its resolution")
    if out["recovered"] != out["final"]:
        problems.append(
            f"recovered {out['recovered']} != uninterrupted {out['final']}"
        )
    return problems


def run(ctx: RunContext) -> Run:
    from repro.core import budget
    from repro.markov.matrix import TransitionMatrix
    from repro.service import (
        ReleaseSession,
        ReleaseWindow,
        SessionConfig,
        WindowStep,
    )

    if ctx.tracer is not None:
        from .entry import trace_shard_workers

        trace_dir = ctx.fresh_dir("shard-trace")
        trace_shard_workers(ctx.tracer, trace_dir)
    result = Run(ops_per_round=HORIZON // WINDOW + EXTRA)
    chains, cohorts = make_inputs(ctx.seed)
    oracles = [(LossOracle(c), LossOracle(c)) for c in chains]
    pairs = [(TransitionMatrix(c),) * 2 for c in chains]
    correlations = {u: pairs[c] for u, c in enumerate(cohorts.tolist())}
    def setup(wal_dir):
        start = time.perf_counter()
        allocation = budget.allocate_quantified(correlations, ALPHA)
        per_user_ms = 1000.0 * (time.perf_counter() - start) / N_USERS
        result.notes.append(f"allocate_quantified: {per_user_ms:.2f} ms per user")
        config = SessionConfig(
            correlations=correlations,
            budgets=allocation,
            horizon=HORIZON,
            alpha=ALPHA,
            alpha_mode="clamp",
            clamp_resolution=RESOLUTION,
            shards=SHARDS,
            wal_dir=str(wal_dir),
            wal_fsync="batch",
            wal_compact_every=COMPACT_EVERY,
        )
        return allocation, config, ReleaseSession(config)

    def one_round() -> None:
        wal_dir = ctx.fresh_dir("bounded-wal")
        start = time.perf_counter()
        allocation, config, session = setup(wal_dir)
        result.setup_s.append(time.perf_counter() - start)
        workers = _child_pids()

        def program_cpu() -> float:
            workers_s = sum(proc_cpu_s(pid) or 0.0 for pid in workers)
            return self_cpu_s() + workers_s

        events = []
        latencies: List[float] = []
        cpu0, start = program_cpu(), time.perf_counter()
        # The stream follows the schedule; the requests past it name the
        # middle budget explicitly.
        windows = [[WindowStep()] * WINDOW] * (HORIZON // WINDOW)
        windows += [[WindowStep(epsilon=allocation.epsilon_middle)]] * EXTRA
        for steps in windows:
            t0 = time.perf_counter()
            events.extend(session.ingest_window(ReleaseWindow(steps)))
            latencies.append(1000.0 * (time.perf_counter() - t0))
        result.notes.append(
            f"requests past the horizon: {latencies[-1] / 1000.0:.2f} s each "
            f"(last of {EXTRA})"
        )
        result.add_round(
            decided=HORIZON + EXTRA,
            timed_s=time.perf_counter() - start,
            cpu_s=program_cpu() - cpu0,
            latencies_ms=latencies,
        )
        result.attempted += HORIZON // WINDOW + EXTRA + 1  # + the recovery
        final = (session.horizon, session.max_tpl())
        rss = sum(proc_peak_rss_mb(pid) or 0.0 for pid in workers)
        result.peak_rss_mb = max(result.peak_rss_mb, self_peak_rss_mb() + rss)

        # The kill: both workers SIGKILLed, the coordinator dropped
        # without a final sync or compaction.
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        session.backend.close()  # reaps the dead workers
        del session
        start = time.perf_counter()
        recovered = ReleaseSession.recover(config)
        answer = (recovered.horizon, recovered.max_tpl())
        result.recover_s.append(time.perf_counter() - start)
        recovered.close()

        schedule = allocation.epsilons(HORIZON)
        steps = [
            {
                "t": e.t,
                "requested": e.requested_epsilon,
                "applied": e.epsilon,
                "status": e.status,
            }
            for e in events
            if e.status != "rejected"
        ]
        out = {
            "steps": steps,
            "stream_tpl": events[HORIZON - 1].max_tpl,
            "max_tpl": final[1],
            "refused": [
                e.requested_epsilon for e in events if e.status == "rejected"
            ],
            "recovered": answer,
            "final": final,
        }
        problems = check_output(out, oracles, schedule)
        result.check(
            [e.requested_epsilon for e in events[:HORIZON]] == list(schedule),
            "the stream did not request the Algorithm-3 budget vector",
        )
        result.failures.extend(problems)
        if not problems:
            off = dict(out, max_tpl=out["max_tpl"] + 1e-6)
            result.expect_rejected(
                check_output(off, oracles, schedule), "TPL off by 1e-6"
            )
            gap = dict(out, steps=steps[:10] + steps[11:])
            result.expect_rejected(
                check_output(gap, oracles, schedule), "a missing t"
            )
        statuses: dict = {}
        for e in events:
            statuses[e.status] = statuses.get(e.status, 0) + 1
        result.notes.append(f"decisions per round: {statuses}")

    rounds_until(ctx, one_round)
    if ctx.tracer is not None:
        result.remote = merge_dir(trace_dir, "shard")
    return result
