"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one fused pass (operator chaining), then surviving values are appended
to the sink topic. The engine runs `topology.run_lanes` with free lanes:
lane k reads the source range itself, as each parallel source instance
reads its own split of the log, and keeps from each chunk the offsets
that are k mod p, each indexed by its offset. No thread hands elements
to another and no lane waits for another, and a lane holds one chunk
at a time, so memory does not grow with the corpus. At p = 1 the one
lane runs on the calling thread and keeps source order; at p > 1 lane
k is thread `tuple-lane-k`, and only multiset equality of the output
holds.
"""

from __future__ import annotations

from .topology import Engine, JobReport, Topology, run_chain, run_lanes

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def execute(self, topology: Topology, parallelism: int = 1) -> JobReport:
        # Names read at call time, so that a patch on this module applies.
        return run_lanes(self._broker, topology, parallelism, _READ_CHUNK, run_chain)
