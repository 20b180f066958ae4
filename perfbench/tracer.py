"""In-memory tracing from outside the program.

`Patches` swaps an attribute of a module or class for a wrapper and
puts every original back on `restore`. `Tracer` holds what the
wrappers record:

- spans, opened on the main thread only: phases, jobs, query builds
  and translations, each with its parent span;
- counters for per-record calls, keyed by (job id, thread name, name)
  and holding calls, wall ns, thread-CPU ns, self ns and items.

`GcWatch` records garbage collector pauses.

Per-record spans at 50k records per job would swamp both memory and the
measurement, so per-record calls only bump counters. Self time is wall
time minus the wall time of counted calls nested inside, on the same
thread. Nothing is written until the caller serialises `to_json()`.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager

_MISSING = object()

CALLS, WALL_NS, CPU_NS, SELF_NS, ITEMS = range(5)


class Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make_wrapper) -> None:
        """Set owner.name to make_wrapper(original)."""
        own = vars(owner).get(name, _MISSING)
        self._saved.append((owner, name, own))
        setattr(owner, name, make_wrapper(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


class Tracer:
    def __init__(self):
        self.job: int | None = None  # id of the job running now, if any
        self.counters: dict[tuple, list[int]] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._local = threading.local()

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def spanned(self, name: str, fn):
        """Wrap fn so that each call is one span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- per-record counters ----------------------------------------------

    def counted(self, name: str, fn, items: bool = False):
        """Wrap fn so that each call bumps the counter `name` of the
        current job and thread; with items, len(result) is added too."""
        counters = self.counters
        local = self._local
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def wrapper(*args, **kwargs):
            try:
                nested, thread = local.nested, local.thread
            except AttributeError:
                nested = local.nested = []
                thread = local.thread = threading.current_thread().name
            nested.append(0)
            w0, c0 = wall(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = cpu(), wall()
                elapsed = w1 - w0
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                key = (self.job, thread, name)
                counter = counters.get(key)
                if counter is None:
                    counter = counters[key] = [0, 0, 0, 0, 0]
                counter[CALLS] += 1
                counter[WALL_NS] += elapsed
                counter[CPU_NS] += c1 - c0
                counter[SELF_NS] += elapsed - inner
            if items:
                counter[ITEMS] += len(result)
            return result

        return wrapper

    def job_counters(self, job: int) -> dict[tuple[str, str], list[int]]:
        """(thread, name) -> counter for one job."""
        return {(t, n): c for (j, t, n), c in self.counters.items() if j == job}

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [
                {"job": j, "thread": t, "name": n, "calls": c[CALLS], "wall_ns": c[WALL_NS],
                 "cpu_ns": c[CPU_NS], "self_ns": c[SELF_NS], "items": c[ITEMS]}
                for (j, t, n), c in sorted(self.counters.items(), key=lambda kv: str(kv[0]))
            ],
        }


class GcWatch:
    """Garbage collector pauses while active, through gc.callbacks. It
    costs a few microseconds per collection, so untraced runs use it too."""

    def __init__(self):
        self.pauses_ns: list[int] = []
        self._start = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pauses_ns.append(time.perf_counter_ns() - self._start)

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
