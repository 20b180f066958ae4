"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic; `topology.drain` is that loop. One lane loop serves
every parallelism p: lane k reads the source range itself through
`topology.read_chunks`, as each parallel source instance reads its own
split of the log, and keeps from each chunk the offsets that are k mod
p (`topology.lane_items`), each indexed by its offset. At p = 1 the one
lane runs on the calling thread, starts no thread and keeps source
order; at p > 1 each lane has its own thread, and only multiset
equality of the output holds. No thread hands elements to another, and
a lane holds one chunk at a time, so memory does not grow with the
corpus. A lane that fails stops the others before their next chunk;
execute raises the lowest failed lane's error only after every lane
has ended. Each lane counts into its own dict, and
`topology.job_report` sums them.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from itertools import chain

from .topology import Engine, Topology, drain, job_report, lane_items, read_chunks, run_chain

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def execute(self, topology: Topology, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = self._broker.topic(topology.source_topic)
        sink = self._broker.topic(topology.sink_topic)
        p = parallelism
        invocations = [defaultdict(int) for _ in range(p)]
        records_out = [0] * p
        failures: list[Exception | None] = [None] * p

        def slices(k):
            # Once any lane has failed, lane k reads no more chunks.
            for start, payloads in read_chunks(source, topology.end_offset, _READ_CHUNK):
                yield lane_items(start, payloads, k, p)
                if any(failures):
                    return

        def run_lane(k):
            # run_chain is passed by this module's name for it, so that a
            # wrapper installed on tuple_engine.run_chain sees every call.
            try:
                records_out[k] = drain(
                    run_chain, topology.operators, chain.from_iterable(slices(k)),
                    sink, invocations[k],
                )
            except Exception as exc:
                failures[k] = exc

        if p == 1:
            run_lane(0)
        else:
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
        return job_report(topology, sum(records_out), invocations)
