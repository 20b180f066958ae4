"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic. With parallelism 1 the reader and the single lane
are fused into the calling thread and output order equals source order.
With parallelism p > 1 a reader thread distributes elements round-robin
to p lane threads, each owning its own fused chain; only multiset
equality of the output is guaranteed across lanes.

The run is bounded: end_offset is fixed when the topology is built, and
execute returns only after every in-flight element has been sunk.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict

from .plan import ExecutionPlan, plan_from_topology
from .topology import Engine, JobReport, Topology, run_chain, run_flush

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def plan(self, topology: Topology, parallelism: int = 1) -> ExecutionPlan:
        return plan_from_topology(topology, parallelism)

    def execute(self, topology: Topology, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = self._broker.topic(topology.source_topic)
        sink = self._broker.topic(topology.sink_topic)
        if parallelism == 1:
            return self._execute_single(topology, source, sink)
        return self._execute_lanes(topology, source, sink, parallelism)

    def _execute_single(self, topology, source, sink):
        invocations = defaultdict(int)
        ops = topology.operators
        sink_name = topology.sink_name
        records_in = 0
        records_out = 0
        offset = 0
        while offset < topology.end_offset:
            chunk = source.read(0, offset, min(_READ_CHUNK, topology.end_offset - offset))
            for entry in chunk:
                records_in += 1
                for value in run_chain(ops, entry.offset, entry.payload, invocations):
                    sink.append(0, value)
                    invocations[sink_name] += 1
                    records_out += 1
            offset += len(chunk)
        for value in run_flush(ops, invocations):
            sink.append(0, value)
            invocations[sink_name] += 1
            records_out += 1
        return _report(records_in, records_out, invocations, topology, lanes=1)

    def _execute_lanes(self, topology, source, sink, parallelism):
        lanes = [_Lane(topology, sink) for _ in range(parallelism)]
        threads = [
            threading.Thread(target=lane.run, name=f"tuple-lane-{i}", daemon=True)
            for i, lane in enumerate(lanes)
        ]
        for t in threads:
            t.start()

        # Round-robin dispatch from the single source reader.
        records_in = 0
        offset = 0
        failed = False
        while offset < topology.end_offset and not failed:
            chunk = source.read(0, offset, min(_READ_CHUNK, topology.end_offset - offset))
            for entry in chunk:
                lanes[records_in % parallelism].queue.put((entry.offset, entry.payload))
                records_in += 1
                if any(lane.failure for lane in lanes):
                    failed = True
                    break
            offset += len(chunk)
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
        return _report(records_in, records_out, invocations, topology, lanes=parallelism)


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
        ops = self._topology.operators
        sink_name = self._topology.sink_name
        saw_sentinel = False
        try:
            while True:
                item = self.queue.get()
                if item is None:
                    saw_sentinel = True
                    break
                index, payload = item
                for value in run_chain(ops, index, payload, self.invocations):
                    self._sink.append(0, value)
                    self.invocations[sink_name] += 1
                    self.records_out += 1
            for value in run_flush(ops, self.invocations):
                self._sink.append(0, value)
                self.invocations[sink_name] += 1
                self.records_out += 1
        except Exception as exc:
            self.failure = exc
            # Consume up to the sentinel so the reader never blocks on a
            # dead lane; skip if this lane already saw it.
            while not saw_sentinel and self.queue.get() is not None:
                pass


def _report(records_in, records_out, invocations, topology, lanes):
    # Nodes never reached (e.g. everything filtered out upstream) still
    # appear with a zero count.
    for op in topology.operators:
        invocations.setdefault(op.name, 0)
    return JobReport(
        records_in=records_in,
        records_out=records_out,
        operator_invocations=dict(invocations),
        lanes=lanes,
    )
