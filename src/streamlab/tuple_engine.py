"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic; `topology.drain` is that loop. With parallelism 1
the reader and the single lane are fused into the calling thread and
output order equals source order. With parallelism p > 1 a reader
thread distributes elements round-robin to p lane threads, each
draining its own queue through its own fused chain; only multiset
equality of the output is guaranteed across lanes.

The run is bounded: end_offset is fixed when the topology is built, and
execute returns only after every in-flight element has been sunk.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict

from .plan import ExecutionPlan, plan_from_topology
from .topology import Engine, Topology, drain, job_report, run_chain

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def plan(self, topology: Topology, parallelism: int = 1) -> ExecutionPlan:
        return plan_from_topology(topology, parallelism)

    def execute(self, topology: Topology, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = _read(self._broker.topic(topology.source_topic), topology.end_offset)
        sink = self._broker.topic(topology.sink_topic)
        if parallelism == 1:
            return self._execute_single(topology, source, sink)
        return self._execute_lanes(topology, source, sink, parallelism)

    def _execute_single(self, topology, source, sink):
        invocations = defaultdict(int)
        # run_chain is passed by this module's name for it, so that a
        # wrapper installed on tuple_engine.run_chain sees every call.
        records_out = drain(run_chain, topology.operators, source, sink, invocations)
        return job_report(topology, records_out, invocations, lanes=1)

    def _execute_lanes(self, topology, source, sink, parallelism):
        lanes = [_Lane(topology, sink) for _ in range(parallelism)]
        threads = [
            threading.Thread(target=lane.run, name=f"tuple-lane-{i}", daemon=True)
            for i, lane in enumerate(lanes)
        ]
        for t in threads:
            t.start()

        # Round-robin dispatch from the single source reader.
        for i, item in enumerate(source):
            lanes[i % parallelism].queue.put(item)
            if any(lane.failure for lane in lanes):
                break
        for lane in lanes:
            lane.queue.put(None)
        for t in threads:
            t.join()

        for lane in lanes:
            if lane.failure is not None:
                raise lane.failure

        invocations = defaultdict(int)
        records_out = 0
        for lane in lanes:
            records_out += lane.records_out
            for name, count in lane.invocations.items():
                invocations[name] += count
        return job_report(topology, records_out, invocations, lanes=parallelism)


class _Lane:
    """One worker owning a full fused chain; fed by the reader."""

    def __init__(self, topology: Topology, sink):
        self.queue: queue.SimpleQueue = queue.SimpleQueue()
        self.invocations: dict[str, int] = defaultdict(int)
        self.records_out = 0
        self.failure: Exception | None = None
        self._topology = topology
        self._sink = sink

    def run(self):
        try:
            self.records_out = drain(
                run_chain, self._topology.operators, iter(self.queue.get, None),
                self._sink, self.invocations,
            )
        except Exception as exc:
            self.failure = exc
            # A failure comes before this lane's sentinel: consume up to
            # it so the reader never blocks on a dead lane.
            while self.queue.get() is not None:
                pass


def _read(source, end_offset):
    """The (offset, payload) items of [0, end_offset), read in chunks."""
    offset = 0
    while offset < end_offset:
        chunk = source.read(0, offset, min(_READ_CHUNK, end_offset - offset))
        for entry in chunk:
            yield entry.offset, entry.payload
        offset += len(chunk)
