"""Micro-batch mini stream engine.

The bounded source range is discretized into immutable batches of
max_batch_size elements (the final batch may be smaller). The engine
runs `topology.run_lanes` with batched lanes: partition k of p is a
lane that drains the batch's offsets that are k mod p, each element
numbered by its offset, and the lanes meet at a strict barrier after
each batch. The barrier's action reads the next batch once for all
lanes, so every output of batch i is appended to the sink before batch
i+1 is read, and it records the batch count and each batch's sink
bounds. At p = 1 the one lane runs on the calling thread; at p > 1
lane k is thread `microbatch-lane-k`. The first failing batch ends the
job: every lane finishes its share of it, and no later batch is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .broker import LogBroker
from .topology import Engine, JobReport, Topology, run_chain, run_lanes


@dataclass(frozen=True)
class BatchPolicy:
    max_batch_size: int = 1000

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")


class MicrobatchEngine(Engine):
    plan_annotation = "microbatch"

    def __init__(self, broker: LogBroker, policy: BatchPolicy | None = None):
        super().__init__(broker)
        self.policy = policy or BatchPolicy()

    def execute(self, topology: Topology, parallelism: int = 1) -> JobReport:
        # Names read at call time, so that a patch on this module applies.
        return run_lanes(
            self._broker, topology, parallelism, self.policy.max_batch_size, run_chain,
            batches=True, name="microbatch-lane",
        )
