"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic; `topology.drain` is that loop. The source is read
in chunks of payloads through `topology.read_chunks`, and each element's
index is its offset, counted from the chunk's start; no per-record
entry object is built. With parallelism 1 the reader
and the single lane are fused into the calling thread and output order
equals source order. With parallelism p > 1 the calling thread reads
and distributes elements round-robin to p lane threads, each draining
its own queue through its own fused chain; only multiset equality of
the output is guaranteed across lanes.

The run is bounded: end_offset is fixed when the topology is built, and
execute returns only after every in-flight element has been sunk.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict
from itertools import chain, cycle

from .topology import Engine, Topology, drain, job_report, read_chunks, run_chain

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def execute(self, topology: Topology, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = self._broker.topic(topology.source_topic)
        chunks = read_chunks(source, topology.end_offset, _READ_CHUNK)
        sink = self._broker.topic(topology.sink_topic)
        if parallelism == 1:
            items = chain.from_iterable(enumerate(payloads, start) for start, payloads in chunks)
            return self._execute_single(topology, items, sink)
        return self._execute_lanes(topology, chunks, sink, parallelism)

    def _execute_single(self, topology, items, sink):
        invocations = defaultdict(int)
        # run_chain is passed by this module's name for it, so that a
        # wrapper installed on tuple_engine.run_chain sees every call.
        records_out = drain(run_chain, topology.operators, items, sink, invocations)
        return job_report(topology, records_out, invocations, lanes=1)

    def _execute_lanes(self, topology, chunks, sink, parallelism):
        lanes = [_Lane(topology, sink) for _ in range(parallelism)]
        threads = [
            threading.Thread(target=lane.run, name=f"tuple-lane-{i}", daemon=True)
            for i, lane in enumerate(lanes)
        ]
        for t in threads:
            t.start()

        # Round-robin over elements, not chunks: zip takes the item first,
        # so a chunk's end uses no lane's turn. A failing read still ends
        # every lane.
        puts = cycle([lane.queue.put for lane in lanes])
        try:
            for start, payloads in chunks:
                for item, put in zip(enumerate(payloads, start), puts):
                    put(item)
                if any(lane.failure for lane in lanes):
                    break
        finally:
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
