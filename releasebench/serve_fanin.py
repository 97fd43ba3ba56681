"""``serve-fanin``: a ``repro serve --listen`` subprocess on the fleet
backend with a group-committed WAL, driven over TCP.

One client process holds two connections and runs a closed loop that
keeps 16 requests in flight, spread evenly over 8 sessions.  Every
request releases a histogram snapshot of 1,000 users on the 0.8/0.1
two-state chain with Laplace noise at eps = 0.1; each session reaches
horizon 63, below the chain's ~100-step settle depth, so a horizon
cutoff cannot help.  Then one probe operation: two fresh sessions each
release one snapshot, and their noise must differ.  The server is then
SIGKILLed, restarted on the same WAL directory, and timed until every
session has answered one more release.

Unit operation: one request, from send to its response line.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .common import Run, RunContext, rounds_until
from .host import proc_cpu_s, proc_peak_rss_mb
from .oracle import LossOracle, worst_tpl
from .trace import merge_dir

N_USERS = 1000
SESSIONS = 8
HORIZON = 63
IN_FLIGHT = 16
CONNECTIONS = 2
EPSILON = 0.1
SENSITIVITY = 2.0  # histogram under value neighbours
CHAIN = [[0.8, 0.2], [0.1, 0.9]]
EXTRA_SETUPS = 2  # server starts per round beyond the one that serves
TOL = 1e-9
#: Mean |noise| must lie within this band around the Laplace scale
#: 2 / eps.  Even the 126 distinct draws one server makes today (see
#: the probe) put the band beyond 3 standard errors on both sides, and
#: halving the noise always leaves it.
NOISE_BAND = (0.75, 1.33)
START_TIMEOUT = 60.0


def make_inputs(seed: int) -> List[np.ndarray]:
    """One ``(HORIZON + 2, N_USERS)`` trajectory per session, stepped
    through the 0.8/0.1 chain; the last rows feed the recovery
    release and the probe."""
    rng = np.random.default_rng([seed, 2])
    stay = np.array([CHAIN[0][0], CHAIN[1][1]])
    out = []
    for _ in range(SESSIONS):
        states = np.empty((HORIZON + 2, N_USERS), dtype=np.int64)
        states[0] = rng.integers(0, 2, N_USERS)
        for t in range(1, HORIZON + 2):
            moves = rng.random(N_USERS) >= stay[states[t - 1]]
            states[t] = np.where(moves, 1 - states[t - 1], states[t - 1])
        out.append(states)
    return out


def _histogram(snapshot: np.ndarray) -> np.ndarray:
    return np.bincount(snapshot, minlength=2).astype(float)


class Server:
    """One ``repro serve --listen`` subprocess."""

    def __init__(self, ctx: RunContext, matrix: Path, wal_dir: Path, trace_dir):
        self.trace_dir = trace_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ctx.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        args = [
            "serve", "-m", str(matrix), "--users", str(N_USERS),
            "--epsilon", str(EPSILON), "--backend", "fleet",
            "--wal-dir", str(wal_dir), "--wal-fsync", "batch",
            "--listen", "127.0.0.1:0",
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [
                sys.executable, "-X", "importtime",
                str(ctx.root / "releasebench" / "entry.py"),
                str(trace_dir), *args,
            ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ctx.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.imports_us: Dict[str, int] = {}
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT) or self.port is None:
            self.kill()
            raise RuntimeError("repro serve did not start listening")
        self.setup_s = time.perf_counter() - self.started

    def _drain(self) -> None:
        for line in self.proc.stderr:
            if line.startswith("import time:"):
                parts = [p.strip() for p in line[12:].split("|")]
                if len(parts) == 3 and parts[1].isdigit():
                    self.imports_us[parts[2]] = int(parts[1])
            elif line.startswith('{"listening"'):
                self.port = json.loads(line)["listening"]["port"]
                self._ready.set()
        self._ready.set()  # exited before listening

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid) or 0.0

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid) or 0.0

    def metrics(self) -> str:
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("utf-8", "replace")

    def flush_trace(self) -> None:
        """Ask a traced server to write its span aggregates and wait
        until it has."""
        if self.trace_dir is None:
            return
        path = Path(self.trace_dir) / f"serve-{self.proc.pid}.json"

        def flushes() -> int:
            try:
                return json.loads(path.read_text()).get("flushes", 0)
            except (OSError, ValueError):
                return 0

        before = flushes()
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30
        while flushes() <= before and time.perf_counter() < deadline:
            time.sleep(0.01)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=30)

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


async def _exchange(port: int, batches: List[List[bytes]], window: int):
    """Send each connection's request lines keeping ``window`` in
    flight on it; returns ``{seq: (latency_ms, response)}``."""
    replies: Dict[int, tuple] = {}

    async def one_connection(lines: List[bytes]) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        sent: Dict[int, float] = {}
        seqs = [json.loads(line)["seq"] for line in lines]
        next_index = 0
        try:
            while next_index < len(lines) and len(sent) < window:
                sent[seqs[next_index]] = time.perf_counter()
                writer.write(lines[next_index])
                next_index += 1
            await writer.drain()
            while sent:
                raw = await reader.readline()
                if not raw:
                    raise RuntimeError("server closed the connection")
                now = time.perf_counter()
                reply = json.loads(raw)
                seq = reply.get("seq")
                if seq not in sent:
                    raise RuntimeError(f"unexpected reply {reply!r}")
                if seq in replies:
                    raise RuntimeError(f"seq {seq} answered twice")
                replies[seq] = (1000.0 * (now - sent.pop(seq)), reply)
                if next_index < len(lines):
                    sent[seqs[next_index]] = time.perf_counter()
                    writer.write(lines[next_index])
                    next_index += 1
                    await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(one_connection(lines) for lines in batches))
    return replies


def _line(session: str, seq: int, snapshot: np.ndarray) -> bytes:
    return (
        json.dumps(
            {"session": session, "seq": seq, "snapshot": snapshot.tolist()}
        )
        + "\n"
    ).encode()


def check_output(out: dict, expected_tpl: Dict[int, float]) -> List[str]:
    """``out``: ``replies`` ({seq: response}) of the load phase,
    ``sent`` ({seq: (session, true histogram)}), ``recovery``
    ({session: response}) after the restart."""
    problems = []
    replies, sent = out["replies"], out["sent"]
    if set(replies) != set(sent):
        problems.append(
            f"{len(set(sent) - set(replies))} requests unanswered, "
            f"{len(set(replies) - set(sent))} unexpected answers"
        )
    by_session: Dict[str, List[int]] = {}
    noise = []
    for seq, reply in replies.items():
        if "error" in reply or seq not in sent:
            problems.append(f"seq {seq}: {reply.get('error', 'not sent')}")
            continue
        session, truth = sent[seq]
        by_session.setdefault(session, []).append(reply["t"])
        expected = expected_tpl.get(reply["t"])
        if expected is None or abs(reply["max_tpl"] - expected) > TOL:
            problems.append(
                f"{session} t={reply['t']}: max_tpl {reply['max_tpl']!r} "
                f"!= oracle {expected!r}"
            )
        noise.extend(np.abs(np.asarray(reply["noisy_answer"]) - truth))
    for session, ts in by_session.items():
        if sorted(ts) != list(range(1, HORIZON + 1)):
            problems.append(
                f"{session}: t does not run 1..{HORIZON} without a gap"
            )
    scale = SENSITIVITY / EPSILON
    mean_noise = float(np.mean(noise)) if noise else 0.0
    if not NOISE_BAND[0] * scale <= mean_noise <= NOISE_BAND[1] * scale:
        problems.append(
            f"mean |noise| {mean_noise:.3f} outside "
            f"[{NOISE_BAND[0] * scale:g}, {NOISE_BAND[1] * scale:g}] "
            f"for Laplace({scale:g})"
        )
    for session, reply in out["recovery"].items():
        if reply.get("t") != HORIZON + 1:
            problems.append(
                f"{session} after restart: t={reply.get('t')} != {HORIZON + 1}"
            )
        elif abs(reply["max_tpl"] - expected_tpl[HORIZON + 1]) > TOL:
            problems.append(f"{session} after restart: max_tpl off the oracle")
    return problems


def _histogram_p50_ms(text: str, name: str) -> Optional[float]:
    """Median of a Prometheus histogram, interpolated in its bucket."""
    buckets = []
    for line in text.splitlines():
        if line.startswith(f"{name}_bucket{{"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets.append((float(le), float(line.rsplit(" ", 1)[1])))
    if not buckets or buckets[-1][1] == 0:
        return None
    half = buckets[-1][1] / 2.0
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= half:
            if bound == float("inf"):
                return 1000.0 * lower_bound
            share = (half - lower_count) / (count - lower_count)
            return 1000.0 * (lower_bound + share * (bound - lower_bound))
        lower_bound, lower_count = bound, count
    return None


def _gauge(text: str, name: str) -> Optional[float]:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return None


def run(ctx: RunContext) -> Run:
    result = Run(ops_per_round=SESSIONS * (HORIZON - 1))
    trajectories = make_inputs(ctx.seed)
    loss = LossOracle(CHAIN)
    expected_tpl = {
        t: worst_tpl([(loss, loss)], [EPSILON] * t)
        for t in range(1, HORIZON + 2)
    }
    trace_dir = ctx.fresh_dir("serve-trace") if ctx.tracer is not None else None
    matrix = ctx.work_dir / "chain.json"
    matrix.write_text(
        json.dumps(
            {
                "format": 1,
                "kind": "transition_matrix",
                "states": [0, 1],
                "probabilities": CHAIN,
            }
        )
    )
    server_ms: List[float] = []
    wire_ms: List[float] = []
    queue_p50: List[float] = []
    stall_ms: List[float] = []
    import_us: List[int] = []

    # Requests and their expected answers are the same every round.  The
    # first request of each session (t=1) also builds the server-side
    # session; those are sent before the timed loop.
    sent: Dict[int, tuple] = {}
    first: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
    timed: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
    for k in range(SESSIONS * HORIZON):
        index, step = k % SESSIONS, k // SESSIONS
        snapshot = trajectories[index][step]
        sent[k] = (f"s{index}", _histogram(snapshot))
        batch = first if step == 0 else timed
        batch[k % CONNECTIONS].append(_line(f"s{index}", k, snapshot))
    n_timed = SESSIONS * (HORIZON - 1)

    def one_round() -> None:
        for _ in range(EXTRA_SETUPS):
            server = Server(ctx, matrix, ctx.fresh_dir("serve-wal"), trace_dir)
            result.setup_s.append(server.setup_s)
            server.stop()
        wal_dir = ctx.fresh_dir("serve-wal")
        server = Server(ctx, matrix, wal_dir, trace_dir)
        result.setup_s.append(server.setup_s)
        import_us.append(server.imports_us.get("networkx", 0))
        try:
            replies = asyncio.run(_exchange(server.port, first, SESSIONS))
            cpu0, start = server.cpu_s(), time.perf_counter()
            loop = asyncio.run(
                _exchange(server.port, timed, IN_FLIGHT // CONNECTIONS)
            )
            result.add_round(
                decided=n_timed,
                timed_s=time.perf_counter() - start,
                cpu_s=server.cpu_s() - cpu0,
                latencies_ms=[loop[seq][0] for seq in sorted(loop)],
            )
            result.attempted += len(sent)
            for latency, reply in loop.values():
                server_ms.append(reply["elapsed_ms"])
                wire_ms.append(latency - reply["elapsed_ms"])
            replies.update(loop)

            # The probe: two fresh sessions release the same snapshot at
            # t=1; independent noise must differ.
            probe_snapshot = trajectories[0][HORIZON + 1]
            truth = _histogram(probe_snapshot)
            probe = asyncio.run(
                _exchange(
                    server.port,
                    [
                        [_line("probe-a", 0, probe_snapshot)],
                        [_line("probe-b", 1, probe_snapshot)],
                    ],
                    1,
                )
            )
            noise = [
                np.asarray(probe[i][1]["noisy_answer"]) - truth for i in (0, 1)
            ]
            result.attempted += 1
            if np.array_equal(noise[0], noise[1]):
                result.failed += 1

            text = server.metrics()
            p50 = _histogram_p50_ms(text, "queue_wait_seconds")
            if p50 is not None:
                queue_p50.append(p50)
            stall = _gauge(text, "serve_loop_stall_seconds_high_watermark")
            if stall is not None:
                stall_ms.append(1000.0 * stall)
            result.peak_rss_mb = max(result.peak_rss_mb, server.peak_rss_mb())
            server.flush_trace()
        finally:
            server.kill()

        # Restart on the same WAL and time until every session answers.
        restart = time.perf_counter()
        server = Server(ctx, matrix, wal_dir, trace_dir)
        try:
            lines: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
            for index in range(SESSIONS):
                seq = len(sent) + index
                lines[index % CONNECTIONS].append(
                    _line(f"s{index}", seq, trajectories[index][HORIZON])
                )
            recovered = asyncio.run(_exchange(server.port, lines, SESSIONS))
            result.recover_s.append(time.perf_counter() - restart)
            result.attempted += SESSIONS
            result.peak_rss_mb = max(result.peak_rss_mb, server.peak_rss_mb())
        finally:
            server.stop()

        out = {
            "replies": {seq: reply for seq, (_, reply) in replies.items()},
            "sent": sent,
            "recovery": {
                f"s{seq - len(sent)}": reply
                for seq, (_, reply) in recovered.items()
            },
        }
        problems = check_output(out, expected_tpl)
        result.failures.extend(problems)
        if not problems:
            seq0 = min(out["replies"])
            off = dict(out["replies"])
            off[seq0] = dict(off[seq0], max_tpl=off[seq0]["max_tpl"] + 1e-6)
            result.expect_rejected(
                check_output(dict(out, replies=off), expected_tpl),
                "TPL off by 1e-6",
            )
            gap = dict(out["replies"])
            gap[seq0] = dict(gap[seq0], t=gap[seq0]["t"] + HORIZON)
            result.expect_rejected(
                check_output(dict(out, replies=gap), expected_tpl), "a missing t"
            )
            halved = {}
            for seq, reply in out["replies"].items():
                truth = sent[seq][1]
                noisy = np.asarray(reply["noisy_answer"])
                halved[seq] = dict(
                    reply, noisy_answer=list(truth + 0.5 * (noisy - truth))
                )
            result.expect_rejected(
                check_output(dict(out, replies=halved), expected_tpl),
                "halved noise",
            )

    rounds_until(ctx, one_round)
    if result.failed:
        result.notes.append(
            f"{result.failed} probe(s) failed: two fresh sessions of one "
            "server drew identical Laplace noise (every session gets the "
            "server's --seed)"
        )
    if ctx.tracer is not None:
        result.notes.append(
            "networkx import at serve start-up (-X importtime): "
            f"{statistics.median(import_us) / 1e6:.3f} s"
        )
    result.layer = {
        "net.server.elapsed_p50_ms": statistics.median(server_ms),
        "net.wire_p50_ms": statistics.median(wire_ms),
        "service.queue_wait.p50_ms": (
            statistics.median(queue_p50) if queue_p50 else None
        ),
        "net.loop_stall.max_ms": max(stall_ms) if stall_ms else None,
        "net.startup.import_s": None,
    }
    if trace_dir is not None:
        result.remote = merge_dir(trace_dir, "serve")
        if result.remote is not None:
            counters = result.remote["counters"]
            if counters.get("net.startup.count"):
                result.layer["net.startup.import_s"] = (
                    counters["net.startup.s"] / counters["net.startup.count"]
                )
    return result
