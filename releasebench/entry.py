"""Entry points that carry the span wrappers into the program's other
processes during a traced run.

* ``python3 releasebench/entry.py TRACE_DIR serve ...`` runs ``repro
  serve`` (the same arguments as ``python -m repro.cli``) with the
  wrappers of :mod:`releasebench.trace` installed.  It writes its span
  aggregates to ``TRACE_DIR/serve-<pid>.json`` at exit and whenever it
  receives ``SIGUSR1`` -- the benchmark flushes a server that way just
  before killing it.  It also records the time from its own start to
  listening.
* :func:`trace_shard_workers` replaces the sharded backend's pipe
  worker function, so every forked shard worker resets the tracer it
  inherited and rewrites ``TRACE_DIR/shard-<pid>.json`` after each
  command (a worker may be killed at any point).
"""

import time

_START = time.perf_counter()

import atexit  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

__all__ = ["trace_shard_workers"]


def trace_shard_workers(tracer, trace_dir: Path) -> None:
    from repro.service import sharding

    from .trace import aggregate_file

    original_worker = sharding._shard_worker
    original_dispatch = sharding.shard_dispatch

    def traced_worker(conn, *spec):
        tracer.reset()
        path = aggregate_file(trace_dir, "shard")

        def dispatch(engine, op, args):
            try:
                return original_dispatch(engine, op, args)
            finally:
                tracer.write(path)

        sharding.shard_dispatch = dispatch
        tracer.write(path)
        original_worker(conn, *spec)

    sharding._shard_worker = traced_worker


def _serve(trace_dir: Path, cli_args) -> int:
    from releasebench.trace import Tracer, aggregate_file, install

    tracer = Tracer()
    install(tracer)
    path = aggregate_file(trace_dir, "serve")
    flushes = [0]

    def flush(*_):
        flushes[0] += 1
        tracer.write(path, flushes=flushes[0])

    from repro.net.server import ReproServer

    original_start = ReproServer.start

    async def start(self, *args, **kwargs):
        address = await original_start(self, *args, **kwargs)
        tracer.count("net.startup.s", time.perf_counter() - _START)
        tracer.count("net.startup.count", 1.0)
        return address

    ReproServer.start = start
    signal.signal(signal.SIGUSR1, flush)
    atexit.register(flush)
    from repro.cli import main

    return main(cli_args)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(_serve(Path(sys.argv[1]), sys.argv[2:]))
