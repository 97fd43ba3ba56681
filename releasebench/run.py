"""One benchmark for the release path.

Usage (from the root of a checkout)::

    python3 releasebench/run.py --workload long-stream --seed 1 \
        --seconds 20 --trace 0

Runs one workload for whole rounds until ``--seconds`` of wall time have
passed, checks the program's outputs against an independent leakage
oracle (:mod:`releasebench.oracle`), and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines above it give the hardware block, the checks, both
metric tables and, for a traced run, the tracing overhead against the
last untraced run of the same workload in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from typing import Dict, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".releasebench"

WORKLOADS = ("long-stream", "serve-fanin", "bounded-sharded")

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "core.solver.calls": "count",
    "core.solver.alphas": "count",
    "core.solver.self_s": "s",
    "core.allocation.s": "s",
    "fleet.add_window.calls": "count",
    "fleet.add_window.self_s": "s",
    "fleet.probe.calls": "count",
    "fleet.probe.self_s": "s",
    "service.ingest.calls": "count",
    "service.ingest.self_s": "s",
    "service.ingest.steps_per_call": "steps",
    "service.session_build.s": "s",
    "service.backend.add_window.s": "s",
    "service.backend.probe.calls": "count",
    "service.backend.probe.s": "s",
    "service.backend.rollback.calls": "count",
    "service.queue_wait.p50_ms": "ms",
    "durability.wal.append.calls": "count",
    "durability.wal.append.s": "s",
    "durability.wal.sync.calls": "count",
    "durability.wal.sync.s": "s",
    "durability.wal.bytes_per_release": "B",
    "durability.compact.s": "s",
    "durability.recover.snapshot_s": "s",
    "durability.recover.replay_s": "s",
    "durability.recover.windows": "count",
    "net.server.elapsed_p50_ms": "ms",
    "net.wire_p50_ms": "ms",
    "net.loop_stall.max_ms": "ms",
    "net.startup.import_s": "s",
    "net.shard.rpc.calls": "count",
    "net.shard.rpc.s": "s",
    "net.shard.bytes": "B",
}


def _layer_metrics(
    main: dict, remote: Optional[dict], extra: Dict[str, Optional[float]]
):
    """Per-layer values from the span aggregates of this process
    (``main``) plus those collected from the program's other processes
    (``remote``; ``None`` when a workload expected some and none
    arrived, which leaves every span-derived value unmeasured)."""
    from releasebench.trace import merge

    merged = merge([main] + ([remote] if remote is not None else []))
    stats, counters = merged["stats"], merged["counters"]

    def calls(name):
        return float(stats.get(name, (0, 0.0, 0.0))[0])

    def busy(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "core.solver.calls": calls("core.solver"),
        "core.solver.alphas": counters.get("core.solver.alphas", 0.0),
        "core.solver.self_s": self_s("core.solver"),
        "core.allocation.s": busy("core.allocation"),
        "fleet.add_window.calls": calls("fleet.add_window"),
        "fleet.add_window.self_s": self_s("fleet.add_window"),
        "fleet.probe.calls": calls("fleet.probe"),
        "fleet.probe.self_s": self_s("fleet.probe"),
        "service.ingest.calls": calls("service.ingest"),
        "service.ingest.self_s": self_s("service.ingest"),
        "service.ingest.steps_per_call": ratio(
            counters.get("service.ingest.steps", 0.0), calls("service.ingest")
        ),
        "service.session_build.s": busy("service.session_build"),
        "service.backend.add_window.s": busy("service.backend.add_window"),
        "service.backend.probe.calls": calls("service.backend.probe"),
        "service.backend.probe.s": busy("service.backend.probe"),
        "service.backend.rollback.calls": calls("service.backend.rollback"),
        "durability.wal.append.calls": calls("durability.wal.append"),
        "durability.wal.append.s": busy("durability.wal.append"),
        "durability.wal.sync.calls": calls("durability.wal.sync"),
        "durability.wal.sync.s": busy("durability.wal.sync"),
        "durability.wal.bytes_per_release": ratio(
            counters.get("durability.wal.bytes", 0.0),
            counters.get("durability.wal.releases", 0.0),
        ),
        "durability.compact.s": busy("durability.compact"),
        "durability.recover.snapshot_s": busy("durability.recover.snapshot"),
        "durability.recover.replay_s": busy("durability.recover.replay"),
        "durability.recover.windows": counters.get(
            "durability.recover.windows", 0.0
        ),
    }
    if remote is None:
        values = {key: None for key in values}
    # The coordinator's own transport calls: measured in this process.
    main_stats = main["stats"]
    values["net.shard.rpc.calls"] = float(
        main_stats.get("net.shard.rpc.send", (0, 0.0, 0.0))[0]
    )
    values["net.shard.rpc.s"] = sum(
        main_stats.get(f"net.shard.rpc.{op}", (0, 0.0, 0.0))[1]
        for op in ("send", "recv", "poll")
    )
    values["net.shard.bytes"] = main["counters"].get("net.shard.bytes", 0.0)
    for key in (
        "service.queue_wait.p50_ms",
        "net.server.elapsed_p50_ms",
        "net.wire_p50_ms",
        "net.loop_stall.max_ms",
        "net.startup.import_s",
    ):
        values[key] = extra.get(key, 0.0)
    table = {
        name: (int(entry[0]), entry[1], entry[2])
        for name, entry in sorted(stats.items())
    }
    return values, table


def _fmt(value) -> str:
    if value is None:
        return "unmeasured"
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from releasebench import host, oracle
    from releasebench.common import RunContext
    from releasebench.trace import Tracer, install

    # Calibrate before anything starts a thread: the burn forks.
    hardware = host.hardware_block(ROOT)
    print("hardware: " + json.dumps(hardware), flush=True)
    oracle.self_test()

    tracer = None
    if args.trace:
        tracer = Tracer()
        missing = install(tracer)
        if missing:
            print(f"trace: targets not found (unmeasured): {missing}")
    work_dir = STATE_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        work_dir=work_dir,
        tracer=tracer,
    )
    try:
        if args.workload == "long-stream":
            from releasebench import long_stream as workload
        elif args.workload == "serve-fanin":
            from releasebench import serve_fanin as workload
        else:
            from releasebench import bounded_sharded as workload
        try:
            result = workload.run(ctx)
        except Exception:  # the program failed outright: report, no result
            traceback.print_exc()
            return 1
        e2e = result.end_to_end()
        print(
            f"workload {args.workload}: seed {args.seed}, {result.rounds} "
            f"round(s) of {result.ops_per_round} timed operations; medians "
            f"over rounds; tail_ms = p{round(100 * result.tail_q)}"
        )
        for note in dict.fromkeys(result.notes):
            print(f"note: {note}")
        for failure in result.failures:
            print(f"CHECK FAILED: {failure}")
        print("end-to-end" + (" (traced)" if tracer else "") + ":")
        for name, metric in e2e.items():
            print(f"  {name:<22} {metric['value']:>14.6g} {metric['unit']}")
        last = STATE_DIR / f"last-untraced-{args.workload}.json"
        if tracer is None:
            metrics = e2e
            last.write_text(json.dumps(e2e))
        else:
            values, table = _layer_metrics(
                tracer.snapshot(), result.remote, result.layer
            )
            print("per-layer spans (calls, busy s, self s):")
            for name, (n, busy_s, self_s) in table.items():
                print(f"  {name:<30} {n:>8d} {busy_s:>12.6f} {self_s:>12.6f}")
            print("per-layer metrics:")
            for name, unit in PER_LAYER.items():
                print(f"  {name:<34} {_fmt(values[name]):>14} {unit}")
            if last.exists():
                base = json.loads(last.read_text())
                print("tracing overhead (traced minus last untraced run):")
                for name, metric in e2e.items():
                    delta = metric["value"] - base[name]["value"]
                    share = delta / base[name]["value"]
                    print(f"  {name:<22} {delta:>+14.6g} ({share:+.1%})")
            else:
                print("tracing overhead: unmeasured (no untraced run yet)")
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()
            }
        print(
            json.dumps(
                {
                    "correct": not result.failures,
                    "attempted": result.attempted,
                    "failed": result.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
