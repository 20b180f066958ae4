"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic; `topology.drain` is that loop. The source is read
in chunks of payloads through `topology.read_chunks`, and each element's
index is its offset, counted from the chunk's start; no per-record
entry object is built. With parallelism 1 the reader
and the single lane are fused into the calling thread and output order
equals source order. With parallelism p > 1 the calling thread reads
and deals elements round-robin to p lane threads: lane k gets the
offsets k, k + p, k + 2p, ..., as one slice of each chunk, and drains
them through its own fused chain. Each lane's queue holds at most two
slices, so the reader waits for a slow lane instead of queueing the
source ahead of it, and memory does not grow with the corpus. Only
multiset equality of the output is guaranteed across lanes.

The run is bounded: end_offset is fixed when the topology is built, and
execute returns only after every in-flight element has been sunk.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict
from itertools import chain, count

from .topology import Engine, Topology, drain, job_report, read_chunks, run_chain

_READ_CHUNK = 1024
# Slices a lane's queue holds before the reader waits on it, so the
# lanes' backlog is at most two chunks of source, whatever its size.
_LANE_QUEUE_SLICES = 2


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
        lanes = [_Lane(topology, sink, parallelism) for _ in range(parallelism)]
        threads = [
            threading.Thread(target=lane.run, name=f"tuple-lane-{i}", daemon=True)
            for i, lane in enumerate(lanes)
        ]
        for t in threads:
            t.start()

        # Lane k owns the offsets k, k + p, k + 2p, ...: from each chunk
        # it gets one slice, starting at the chunk's first such offset.
        # A put blocks while that lane's queue is full; a failed lane
        # keeps taking until its sentinel, so the reader never blocks on
        # it for good. A failing read still ends every lane.
        try:
            for start, payloads in chunks:
                for k, lane in enumerate(lanes):
                    j = (k - start) % parallelism
                    if j < len(payloads):
                        lane.queue.put((start + j, payloads[j::parallelism]))
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
            for name, calls in lane.invocations.items():
                invocations[name] += calls
        return job_report(topology, records_out, invocations, lanes=parallelism)


class _Lane:
    """One worker owning a full fused chain; fed by the reader with
    (first offset, payloads) slices whose offsets step by the number of
    lanes."""

    def __init__(self, topology: Topology, sink, stride: int):
        self.queue: queue.Queue = queue.Queue(_LANE_QUEUE_SLICES)
        self.invocations: dict[str, int] = defaultdict(int)
        self.records_out = 0
        self.failure: Exception | None = None
        self._topology = topology
        self._sink = sink
        self._stride = stride

    def run(self):
        stride = self._stride
        items = chain.from_iterable(
            zip(count(first, stride), payloads)
            for first, payloads in iter(self.queue.get, None)
        )
        try:
            self.records_out = drain(
                run_chain, self._topology.operators, items, self._sink, self.invocations,
            )
        except Exception as exc:
            self.failure = exc
            # A failure comes before this lane's sentinel: consume up to
            # it so the reader never blocks on a dead lane.
            while self.queue.get() is not None:
                pass
