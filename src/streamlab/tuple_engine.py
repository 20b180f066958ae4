"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic; `topology.drain` is that loop. The source is read
in chunks of payloads through `topology.read_chunks`, and each element's
index is its offset, counted from the chunk's start; no per-record
entry object is built. With parallelism 1 the single lane runs on the
calling thread and output order equals source order. With parallelism
p > 1, each of p lane threads reads the source range itself, as each
parallel source instance reads its own split of the log: lane k keeps
the offsets k, k + p, k + 2p, ..., as one slice of each chunk it reads,
and drains them through its own fused chain. No thread hands elements
to another, so there is no queue to wait on, and a lane holds one chunk
at a time: memory does not grow with the corpus. A lane that fails
stops every other lane before its next chunk. Only multiset equality of
the output is guaranteed across lanes.

The run is bounded: end_offset is fixed when the topology is built, and
[0, end_offset) is already in the log. execute returns only after every
lane has ended.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from itertools import chain, count

from .topology import Engine, Topology, drain, job_report, read_chunks, run_chain

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def execute(self, topology: Topology, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = self._broker.topic(topology.source_topic)
        sink = self._broker.topic(topology.sink_topic)
        if parallelism == 1:
            chunks = read_chunks(source, topology.end_offset, _READ_CHUNK)
            items = chain.from_iterable(enumerate(payloads, start) for start, payloads in chunks)
            return self._execute_single(topology, items, sink)
        return self._execute_lanes(topology, source, sink, parallelism)

    def _execute_single(self, topology, items, sink):
        invocations = defaultdict(int)
        # run_chain is passed by this module's name for it, so that a
        # wrapper installed on tuple_engine.run_chain sees every call.
        records_out = drain(run_chain, topology.operators, items, sink, invocations)
        return job_report(topology, records_out, invocations, lanes=1)

    def _execute_lanes(self, topology, source, sink, p):
        invocations = [defaultdict(int) for _ in range(p)]
        records_out = [0] * p
        failures: list[Exception | None] = [None] * p

        def slices(k):
            # Lane k owns the offsets k, k + p, k + 2p, ...: from each
            # chunk it takes one slice, starting at the chunk's first
            # such offset. Once any lane has failed, it reads no more.
            for start, payloads in read_chunks(source, topology.end_offset, _READ_CHUNK):
                j = (k - start) % p
                yield zip(count(start + j, p), payloads[j::p])
                if any(failures):
                    return

        def run_lane(k):
            try:
                records_out[k] = drain(
                    run_chain, topology.operators, chain.from_iterable(slices(k)),
                    sink, invocations[k],
                )
            except Exception as exc:
                failures[k] = exc

        threads = [
            threading.Thread(target=run_lane, args=(k,), name=f"tuple-lane-{k}", daemon=True)
            for k in range(p)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for failure in failures:
            if failure is not None:
                raise failure

        total = defaultdict(int)
        for lane in invocations:
            for name, calls in lane.items():
                total[name] += calls
        return job_report(topology, sum(records_out), total, lanes=p)
