"""Micro-batch mini stream engine.

The bounded source range is discretized into immutable batches of
max_batch_size elements (the final batch may be smaller). The range is
already in the log, so the calling thread reads each batch with one
read just before it runs, as a start offset and a list of payloads;
each element's index is its offset. Partition i of p holds the batch's
offsets that are i mod p, by the tuple engine's lane rule
(`topology.lane_items`). Partitions run concurrently, with a strict
barrier between batches: every output of batch i is appended to the
sink before any output of batch i+1. So partition i can count into one
dict for the whole job, and `topology.job_report` sums the dicts. The
first failing batch ends the job; no later batch is read.
"""

from __future__ import annotations

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .broker import LogBroker
from .topology import (
    Engine, JobReport, Topology, drain, job_report, lane_items, read_chunks, run_chain,
)


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
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = self._broker.topic(topology.source_topic)
        sink = self._broker.topic(topology.sink_topic)
        p = parallelism
        invocations = [defaultdict(int) for _ in range(p)]
        records_out = 0
        batch_count = 0
        batch_sink_bounds: list[tuple[int, int]] = []

        with ThreadPoolExecutor(max_workers=p) as pool:
            for start, batch in read_chunks(
                source, topology.end_offset, self.policy.max_batch_size
            ):
                batch_count += 1
                pre_hwm = sink.high_water_mark(0)
                parts = [list(lane_items(start, batch, i, p)) for i in range(p)]
                # run_chain is passed by this module's name for it, so that
                # a wrapper installed on microbatch.run_chain sees every call.
                # An empty partition gets no task.
                futures = [
                    pool.submit(drain, run_chain, topology.operators, part, sink, counts)
                    for part, counts in zip(parts, invocations)
                    if part
                ]
                # The barrier; the first failing partition's error ends the job.
                for future in futures:
                    records_out += future.result()
                post_hwm = sink.high_water_mark(0)
                if post_hwm > pre_hwm:
                    batch_sink_bounds.append((pre_hwm, post_hwm - 1))
        return job_report(
            topology, records_out, invocations,
            batches=batch_count, batch_sink_bounds=batch_sink_bounds,
        )
