"""Micro-batch mini stream engine.

The bounded source range is discretized into immutable batches of
max_batch_size elements by a former thread (the final batch may be
smaller). The range is already in the log when the job is built, so
each batch is one read that returns all it asks for, and no batch waits
for data to arrive. Each batch is split round-robin into p partitions
processed concurrently, with a strict barrier between batches: every
output of batch i is appended to the sink before any output of batch
i+1.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .broker import LogBroker
from .plan import ExecutionPlan, plan_from_topology
from .topology import Engine, JobReport, Topology, run_chain, run_flush


class InvalidPolicyError(ValueError):
    pass


@dataclass(frozen=True)
class BatchPolicy:
    max_batch_size: int = 1000

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise InvalidPolicyError("max_batch_size must be positive")


@dataclass(frozen=True)
class Batch:
    batch_index: int
    partitions: tuple[tuple[tuple[int, bytes], ...], ...]

    def size(self) -> int:
        return sum(len(p) for p in self.partitions)


class MicrobatchEngine(Engine):
    def __init__(self, broker: LogBroker, policy: BatchPolicy | None = None):
        super().__init__(broker)
        self.policy = policy or BatchPolicy()

    def plan(self, topology: Topology, parallelism: int = 1) -> ExecutionPlan:
        return plan_from_topology(topology, parallelism, annotation="microbatch")

    def execute(self, topology: Topology, parallelism: int = 1) -> JobReport:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        source = self._broker.topic(topology.source_topic)
        sink = self._broker.topic(topology.sink_topic)

        batches: queue.SimpleQueue = queue.SimpleQueue()
        former = threading.Thread(
            target=_form_batches,
            args=(source, topology.end_offset, self.policy, parallelism, batches),
            name="microbatch-former",
            daemon=True,
        )
        former.start()

        invocations: dict[str, int] = defaultdict(int)
        ops = topology.operators
        sink_name = topology.sink_name
        records_in = 0
        records_out = 0
        batch_count = 0
        batch_sink_bounds: list[tuple[int, int]] = []
        failure: Exception | None = None

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            while True:
                batch = batches.get()
                if batch is None:
                    break
                batch_count += 1
                records_in += batch.size()
                if failure is not None:
                    continue  # drain remaining batches after a failure
                pre_hwm = sink.high_water_mark(0)
                futures = [
                    pool.submit(_process_partition, part, ops, sink, sink_name)
                    for part in batch.partitions
                    if part
                ]
                for future in futures:
                    try:
                        out_count, local_invocations = future.result()
                    except Exception as exc:
                        failure = exc
                        continue
                    records_out += out_count
                    for name, count in local_invocations.items():
                        invocations[name] += count
                post_hwm = sink.high_water_mark(0)
                if post_hwm > pre_hwm:
                    batch_sink_bounds.append((pre_hwm, post_hwm - 1))
        former.join()
        if failure is not None:
            raise failure

        for value in run_flush(ops, invocations):
            sink.append(0, value)
            invocations[sink_name] += 1
            records_out += 1

        for op in ops:
            invocations.setdefault(op.name, 0)
        return JobReport(
            records_in=records_in,
            records_out=records_out,
            operator_invocations=dict(invocations),
            lanes=parallelism,
            batches=batch_count,
            batch_sink_bounds=batch_sink_bounds,
        )


def _form_batches(source, end_offset, policy, parallelism, out_queue):
    next_offset = 0
    batch_index = 0
    while next_offset < end_offset:
        chunk = source.read(
            0, next_offset, min(policy.max_batch_size, end_offset - next_offset)
        )
        partitions: list[list[tuple[int, bytes]]] = [[] for _ in range(parallelism)]
        for i, entry in enumerate(chunk):
            partitions[i % parallelism].append((entry.offset, entry.payload))
        out_queue.put(Batch(batch_index, tuple(tuple(p) for p in partitions)))
        batch_index += 1
        next_offset += len(chunk)
    out_queue.put(None)


def _process_partition(partition, ops, sink, sink_name):
    invocations: dict[str, int] = defaultdict(int)
    out_count = 0
    for index, payload in partition:
        for value in run_chain(ops, index, payload, invocations):
            sink.append(0, value)
            invocations[sink_name] += 1
            out_count += 1
    return out_count, invocations
