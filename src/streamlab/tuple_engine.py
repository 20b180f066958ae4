"""Tuple-at-a-time mini stream engine.

Each source element traverses the full operator chain individually in
one pass (operator chaining) through the job's drain, which
`topology.compile_drain` generates once per job, and surviving values
are appended to the sink topic. The engine runs `topology.run_lanes`
with free lanes: lane k reads the source range itself, as each
parallel source instance reads its own split of the log, and keeps
from each chunk the offsets that are k mod p, each indexed by its
offset. No thread hands elements to another and no lane waits for
another, and a lane holds one chunk at a time, so memory does not grow
with the corpus. At p = 1 the one lane runs on the calling thread and
keeps source order; at p > 1 lane k is thread `tuple-lane-k`, and only
multiset equality of the output holds.
"""

from __future__ import annotations

from .topology import Engine, JobReport, Topology, run_lanes
# No engine calls run_chain; the name stays because perfbench's tracer
# patches it on this module by name.
from .topology import run_chain  # noqa: F401

_READ_CHUNK = 1024


class TupleEngine(Engine):
    def execute(self, topology: Topology, parallelism: int = 1) -> JobReport:
        # _READ_CHUNK is read at call time, so that a patch on this module applies.
        return run_lanes(self._broker, topology, parallelism, _READ_CHUNK)
