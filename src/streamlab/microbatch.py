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
from .topology import Engine, JobReport, Topology, drain, job_report, run_chain


class InvalidPolicyError(ValueError):
    pass


@dataclass(frozen=True)
class BatchPolicy:
    max_batch_size: int = 1000

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise InvalidPolicyError("max_batch_size must be positive")


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

        batches: queue.SimpleQueue = queue.SimpleQueue()
        former_errors: list[Exception] = []
        former = threading.Thread(
            target=_form_batches,
            args=(source, topology.end_offset, self.policy, parallelism, batches, former_errors),
            name="microbatch-former",
            daemon=True,
        )
        former.start()

        invocations: dict[str, int] = defaultdict(int)
        records_out = 0
        batch_count = 0
        batch_sink_bounds: list[tuple[int, int]] = []
        failure: Exception | None = None

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            while True:
                partitions = batches.get()
                if partitions is None:
                    break
                batch_count += 1
                if failure is not None:
                    continue  # drain remaining batches after a failure
                pre_hwm = sink.high_water_mark(0)
                work = [(part, defaultdict(int)) for part in partitions if part]
                # run_chain is passed by this module's name for it, so that
                # a wrapper installed on microbatch.run_chain sees every call.
                futures = [
                    pool.submit(drain, run_chain, topology.operators, part, sink, counts)
                    for part, counts in work
                ]
                for future, (_, counts) in zip(futures, work):
                    try:
                        records_out += future.result()
                    except Exception as exc:
                        failure = exc
                        continue
                    for name, count in counts.items():
                        invocations[name] += count
                post_hwm = sink.high_water_mark(0)
                if post_hwm > pre_hwm:
                    batch_sink_bounds.append((pre_hwm, post_hwm - 1))
        former.join()
        if failure is not None or former_errors:
            raise failure or former_errors[0]
        return job_report(
            topology, records_out, invocations, lanes=parallelism,
            batches=batch_count, batch_sink_bounds=batch_sink_bounds,
        )


def _form_batches(source, end_offset, policy, parallelism, out_queue, errors):
    """Put each batch on out_queue as a tuple of p partitions of
    (offset, payload) items, then None, which also follows a failure;
    the failure goes to errors."""
    try:
        next_offset = 0
        while next_offset < end_offset:
            chunk = source.read(
                0, next_offset, min(policy.max_batch_size, end_offset - next_offset)
            )
            partitions: list[list[tuple[int, bytes]]] = [[] for _ in range(parallelism)]
            for i, entry in enumerate(chunk):
                partitions[i % parallelism].append((entry.offset, entry.payload))
            out_queue.put(tuple(tuple(p) for p in partitions))
            next_offset += len(chunk)
    except Exception as exc:
        errors.append(exc)
    finally:
        out_queue.put(None)
