"""Spans around the calls into each layer's public functions.

The wrappers live here, not in the program: :func:`install` patches the
functions and methods listed in :data:`TARGETS` for the lifetime of the
process and records one span per call.  Spans nest per thread, so a
layer's *self* time is its busy time minus the time its nested spans
cover.  Only aggregates are kept -- calls, busy seconds, self seconds and
per-layer counters -- which is all the per-layer table needs.

Processes the benchmark does not run in-process (the ``repro serve``
subprocess and forked shard workers) install the same wrappers through
entry points in :mod:`releasebench.entry`, and write their aggregates to
JSON files that :func:`merge_dir` reads back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install", "merge", "merge_dir", "aggregate_file"]


class Tracer:
    """Per-name aggregates of nested spans, safe across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        # Re-entrant: a signal handler may flush while its own thread
        # holds the lock.
        self._lock = threading.RLock()
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, busy, self]
        self.counters: Dict[str, float] = {}

    def reset(self) -> None:
        with self._lock:
            self.stats = {}
            self.counters = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``.  A span nested in a
        span of the same name (a wrapper calling its sibling overload)
        is folded into the outer one: neither a call nor busy time."""
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            return fn(*args, **kwargs)
        frame = [name, 0.0]  # name, seconds covered by nested spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
            }

    def write(self, path: Path, **extra) -> None:
        """Atomically replace ``path`` with this process's aggregates
        (plus ``extra`` top-level keys)."""
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(dict(self.snapshot(), **extra)))
        os.replace(tmp, path)


def _alphas_stacked(args, kwargs) -> float:
    return float(sum(len(values) for _, values in args[0]))


def _alphas_grid(args, kwargs) -> float:
    return float(len(args[1]))


def _window_steps(args, kwargs) -> float:
    window = args[1] if len(args) > 1 else kwargs.get("window")
    try:
        return float(len(window))
    except TypeError:
        return 0.0


def _frame_bytes(obj) -> int:
    from multiprocessing.reduction import ForkingPickler

    return len(ForkingPickler.dumps(obj))


#: ``(module, attribute path, span name, counter name, counter fn)``.
#: The counter function gets the call's ``(args, kwargs)``.
TARGETS: Tuple[tuple, ...] = (
    ("repro.fleet.engine", "max_log_ratio_stacked", "core.solver",
     "core.solver.alphas", _alphas_stacked),
    ("repro.fleet.engine", "max_log_ratio_grid", "core.solver",
     "core.solver.alphas", _alphas_grid),
    ("repro.core.budget", "allocate_quantified", "core.allocation",
     None, None),
    ("repro.fleet.engine", "FleetAccountant.add_window", "fleet.add_window",
     None, None),
    ("repro.fleet.engine", "FleetAccountant.probe_release_scales",
     "fleet.probe", None, None),
    ("repro.service.session", "ReleaseSession.ingest_window",
     "service.ingest", "service.ingest.steps", _window_steps),
    ("repro.service.session", "ReleaseSession.__init__",
     "service.session_build", None, None),
    ("repro.service.session", "ReleaseSession.recover",
     "service.session_build", None, None),
    ("repro.service.session", "ReleaseSession._restore_backend",
     "durability.recover.snapshot", None, None),
    ("repro.service.session", "ReleaseSession._replay",
     "durability.recover.replay", None, None),
    ("repro.service.backends", "FleetAccountantBackend.add_window",
     "service.backend.add_window", None, None),
    ("repro.service.sharding", "ShardedFleetBackend.add_window",
     "service.backend.add_window", None, None),
    ("repro.service.backends", "FleetAccountantBackend.probe_scales",
     "service.backend.probe", None, None),
    ("repro.service.sharding", "ShardedFleetBackend.probe_scales",
     "service.backend.probe", None, None),
    ("repro.service.backends", "FleetAccountantBackend.rollback",
     "service.backend.rollback", None, None),
    ("repro.service.sharding", "ShardedFleetBackend.rollback",
     "service.backend.rollback", None, None),
    ("repro.service.backends", "FleetAccountantBackend.rollback_last",
     "service.backend.rollback", None, None),
    ("repro.service.sharding", "ShardedFleetBackend.rollback_last",
     "service.backend.rollback", None, None),
    ("repro.durability.wal", "WriteAheadLog.append",
     "durability.wal.append", None, None),
    ("repro.durability.wal", "WriteAheadLog.sync",
     "durability.wal.sync", None, None),
    ("repro.durability.wal", "WriteAheadLog.compact",
     "durability.compact", None, None),
    ("repro.net.transport", "PipeTransport.send", "net.shard.rpc.send",
     "net.shard.bytes", lambda a, k: float(_frame_bytes(a[1]))),
    ("repro.net.transport", "SocketTransport.send", "net.shard.rpc.send",
     "net.shard.bytes", lambda a, k: float(_frame_bytes(a[1]))),
    ("repro.net.transport", "PipeTransport.recv", "net.shard.rpc.recv",
     None, None),
    ("repro.net.transport", "SocketTransport.recv", "net.shard.rpc.recv",
     None, None),
    ("repro.net.transport", "PipeTransport.poll", "net.shard.rpc.poll",
     None, None),
    ("repro.net.transport", "SocketTransport.poll", "net.shard.rpc.poll",
     None, None),
)


def _resolve(module_name: str, path: str):
    module = __import__(module_name, fromlist=["_"])
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(tracer: Tracer, fn, name, counter, counter_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            tracer.count(counter, counter_fn(args, kwargs))
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _wrap_recv(tracer: Tracer, fn):
    """Transport ``recv``: the reply's size is only known after it
    arrives, so count its bytes outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        reply = tracer.call("net.shard.rpc.recv", fn, *args, **kwargs)
        tracer.count("net.shard.bytes", float(_frame_bytes(reply)))
        return reply

    return wrapper


def _wrap_replay(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        replayed = tracer.call("durability.recover.replay", fn, *args, **kwargs)
        tracer.count("durability.recover.windows", float(replayed))
        return replayed

    return wrapper


def _wrap_append(tracer: Tracer, fn):
    """WAL ``append``: the bytes it adds to the active segments."""

    @functools.wraps(fn)
    def wrapper(self, window, *args, **kwargs):
        before = self.size_bytes()
        result = tracer.call(
            "durability.wal.append", fn, self, window, *args, **kwargs
        )
        tracer.count("durability.wal.bytes", float(self.size_bytes() - before))
        tracer.count("durability.wal.releases", float(len(window)))
        return result

    return wrapper


def install(tracer: Tracer) -> List[str]:
    """Patch every target; returns the targets that could not be found
    (their spans stay unmeasured)."""
    missing = []
    for module_name, path, name, counter, counter_fn in TARGETS:
        try:
            owner, attr = _resolve(module_name, path)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            missing.append(path)
            continue
        is_classmethod = isinstance(static, classmethod)
        fn = static.__func__ if is_classmethod else getattr(owner, attr)
        if name == "net.shard.rpc.recv":
            wrapped = _wrap_recv(tracer, fn)
        elif name == "durability.recover.replay":
            wrapped = _wrap_replay(tracer, fn)
        elif name == "durability.wal.append":
            wrapped = _wrap_append(tracer, fn)
        else:
            wrapped = _wrap(tracer, fn, name, counter, counter_fn)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
    return missing


def aggregate_file(directory: Path, role: str) -> Path:
    return Path(directory) / f"{role}-{os.getpid()}.json"


def merge(parts) -> dict:
    """Sum span aggregates (``{"stats": ..., "counters": ...}``)."""
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for part in parts:
        for key, (calls, busy, self_s) in part["stats"].items():
            entry = stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    return {"stats": stats, "counters": counters}


def merge_dir(directory: Path, prefix: str) -> Optional[dict]:
    """Sum the aggregates of every ``<prefix>-*.json`` in ``directory``;
    ``None`` when no process wrote one."""
    files = sorted(Path(directory).glob(f"{prefix}-*.json"))
    if not files:
        return None
    return merge(json.loads(path.read_text()) for path in files)
