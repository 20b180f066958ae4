"""Operator DAG and `run_lanes`, the one lane runner of both engines.

Benchmark jobs are linear chains: one bounded source (a topic prefix
captured as [0, end_offset)), zero or more stateless operators, and one
sink, the last node of `Topology.operators`, with fn None. Every other
node is called fn(payload, source_index) and returns an iterable of
outputs; the builder adapts each user function to that once.
`read_chunks` reads the source as (start offset, payloads) chunks from
`Topic.read_payloads`, building no per-record log entry; `lane_items`
gives lane k of p the offsets of a chunk that are k mod p; `drain`
pushes those through the fused chain into the sink; and `job_report`
sums the per-lane counts. In the fused chain each element makes one
pass with one function call per operator and no inter-operator
queueing; `run_chain` calls a node once per value entering it, and
when that is one value it skips the nested comprehension.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .broker import LogBroker
from .plan import ExecutionPlan, plan_from_topology


class TopologyError(Exception):
    pass


class OperatorFailure(RuntimeError):
    """Raised when an operator function fails; names the node."""

    def __init__(self, node: str, index: int, cause: BaseException):
        super().__init__(f"operator {node!r} failed on element {index}: {cause!r}")
        self.node = node
        self.index = index
        self.cause = cause


_NAME_RE = re.compile(r"[\w.:-]+")


@dataclass(frozen=True)
class OperatorSpec:
    """One named node: fn(payload, index) -> outputs, or None for the
    sink."""

    name: str
    fn: Callable | None


@dataclass(frozen=True)
class Topology:
    source_topic: str
    end_offset: int
    source_name: str
    operators: tuple[OperatorSpec, ...]  # sink is the last node
    sink_topic: str

    def node_names(self) -> list[str]:
        return [self.source_name] + [op.name for op in self.operators]


@dataclass
class JobReport:
    """Run instrumentation used for overhead accounting."""

    records_in: int
    records_out: int
    operator_invocations: dict[str, int]
    batches: int | None = None
    batch_sink_bounds: list[tuple[int, int]] | None = None


class TopologyBuilder:
    """Chainable builder; sink_write is required before build()."""

    def __init__(
        self,
        source_topic: str,
        end_offset: int,
        source_name: str = "source",
    ):
        if end_offset < 0:
            raise TopologyError("end_offset must be non-negative")
        self._source_topic = source_topic
        self._end_offset = end_offset
        self._source_name = _check_name(source_name)
        self._operators: list[OperatorSpec] = []
        self._sink_topic: str | None = None

    def _add(self, base: str, fn, name):
        if self._sink_topic is not None:
            raise TopologyError("cannot add operators after sink_write")
        name = _check_name(name or base)
        if name in {op.name for op in self._operators} or name == self._source_name:
            raise TopologyError(f"duplicate node name {name!r}")
        self._operators.append(OperatorSpec(name, fn))
        return self

    def map(self, fn, name: str | None = None, with_index: bool = False):
        if with_index:
            return self._add("map", lambda v, i: (fn(v, i),), name)
        return self._add("map", lambda v, i: (fn(v),), name)

    def flat_map(self, fn, name: str | None = None, with_index: bool = False):
        return self._add("flat_map", fn if with_index else lambda v, i: fn(v), name)

    def filter(self, fn, name: str | None = None, with_index: bool = False):
        if with_index:
            return self._add("filter", lambda v, i: (v,) if fn(v, i) else (), name)
        return self._add("filter", lambda v, i: (v,) if fn(v) else (), name)

    def sink_write(self, topic: str, name: str = "sink"):
        self._add("sink_write", None, name)
        self._sink_topic = topic
        return self

    def build(self) -> Topology:
        if self._sink_topic is None:
            raise TopologyError("topology has no sink; call sink_write")
        return Topology(
            source_topic=self._source_topic,
            end_offset=self._end_offset,
            source_name=self._source_name,
            operators=tuple(self._operators),
            sink_topic=self._sink_topic,
        )


class Engine:
    """What both engines share: a broker, builders over a source range
    that is already in the log, and plans. Since the log is append-only,
    an engine reads that range without ever waiting for data."""

    plan_annotation: str | None = None  # marks every node of the plan

    def __init__(self, broker: LogBroker):
        self._broker = broker

    def plan(self, topology: Topology, parallelism: int = 1) -> ExecutionPlan:
        return plan_from_topology(topology, parallelism, self.plan_annotation)

    def build(
        self, source_topic: str, end_offset: int, source_name: str = "source"
    ) -> TopologyBuilder:
        hwm = self._broker.topic(source_topic).high_water_mark(0)
        if end_offset > hwm:
            raise TopologyError(
                f"end_offset {end_offset} beyond high-water mark {hwm}"
            )
        return TopologyBuilder(source_topic, end_offset, source_name)


@dataclass
class Job:
    """Executable job handle: an engine, a topology, and a parallelism."""

    engine: Engine
    topology: Topology
    parallelism: int

    @property
    def plan(self) -> ExecutionPlan:
        return self.engine.plan(self.topology, self.parallelism)

    def execute(self) -> JobReport:
        return self.engine.execute(self.topology, self.parallelism)


def _check_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name):
        raise TopologyError(f"invalid node name {name!r}")
    return name


def read_chunks(source, end_offset: int, size: int):
    """Yield partition 0 of the source topic over [0, end_offset) as
    (start, payloads): one `read_payloads` of at most size entries each,
    with payloads[k] at offset start + k. Raises TopologyError if the log
    ends before end_offset."""
    offset = 0
    while offset < end_offset:
        payloads = source.read_payloads(0, offset, min(size, end_offset - offset))
        if not payloads:
            raise TopologyError(
                f"topic {source.name!r} ends at offset {offset}, "
                f"before end_offset {end_offset}"
            )
        yield offset, payloads
        offset += len(payloads)


def lane_items(start: int, payloads: list[bytes], k: int, p: int):
    """The (offset, payload) items of the chunk payloads, read from offset
    start, whose offsets are k mod p: what lane or partition k of p gets."""
    j = (k - start) % p
    return zip(range(start + j, start + len(payloads), p), payloads[j::p])


def run_chain(
    operators: tuple[OperatorSpec, ...],
    index: int,
    payload: bytes,
    invocations: dict[str, int],
) -> list[bytes]:
    """Push one source element through operators, a chain without its
    sink, counting one invocation per element entering each node.
    Returns the surviving values (empty once a node drops it)."""
    values = [payload]
    for op in operators:
        n = len(values)
        invocations[op.name] += n
        try:
            # One value (the common case) needs no nested comprehension.
            if n == 1:
                values = list(op.fn(values[0], index))
            else:
                values = [w for v in values for w in op.fn(v, index)]
        except Exception as exc:
            raise OperatorFailure(op.name, index, exc) from exc
        if not values:
            return values
    return values


def drain(run, operators, items, sink, invocations) -> None:
    """Push (index, payload) items through the chain with run, a
    run_chain, and append the survivors to partition 0 of the sink
    topic, counting each at the sink, the last node."""
    chain = operators[:-1]
    append = sink.append
    appended = 0
    for index, payload in items:
        for value in run(chain, index, payload, invocations):
            append(0, value)
            appended += 1
    invocations[operators[-1].name] += appended


def job_report(
    topology: Topology, lane_invocations: list[dict[str, int]],
    batches: int | None = None, batch_sink_bounds: list[tuple[int, int]] | None = None,
) -> JobReport:
    """The report of a completed run: each node's count summed over the
    lanes (zero for a node no element reached), the sink's as records out."""
    invocations = dict.fromkeys((op.name for op in topology.operators), 0)
    for counts in lane_invocations:
        for name, calls in counts.items():
            invocations[name] += calls
    return JobReport(
        records_in=topology.end_offset,
        records_out=invocations[topology.operators[-1].name],
        operator_invocations=invocations,
        batches=batches,
        batch_sink_bounds=batch_sink_bounds,
    )


def run_lanes(
    broker: LogBroker, topology: Topology, p: int, size: int, run,
    batches: bool = False, name: str = "tuple-lane",
) -> JobReport:
    """Run topology on p lanes: lane k drains with run, a run_chain, the
    offsets k mod p of each chunk of at most size records. Free lanes
    (tuple) each read every chunk themselves. With batches (micro-batch),
    a barrier ends each chunk, and its action notes the sink's high-water
    mark and reads the next chunk once for all lanes. At p = 1 the lane
    runs on the calling thread; above that, lane k is thread {name}-{k}.
    Once a lane fails no lane takes another chunk, and after every lane
    has ended the lowest failed lane's error is raised."""
    if p < 1:
        raise ValueError("parallelism must be >= 1")
    source = broker.topic(topology.source_topic)
    sink = broker.topic(topology.sink_topic)
    invocations = [defaultdict(int) for _ in range(p)]
    failures: list[Exception | None] = [None] * p
    batch_chunks = read_chunks(source, topology.end_offset, size)
    batch = [None]  # the chunk every lane drains; None ends the lanes
    marks: list[int] = []  # the sink's high-water mark at each barrier

    def next_batch():
        marks.append(sink.high_water_mark(0))
        batch[0] = None if any(failures) else next(batch_chunks, None)

    barrier = threading.Barrier(p, action=next_batch)

    def free(k):
        for start, payloads in read_chunks(source, topology.end_offset, size):
            yield lane_items(start, payloads, k, p)
            if any(failures):
                return

    def batched(k):
        barrier.wait()
        while batch[0] is not None:
            yield lane_items(*batch[0], k, p)
            barrier.wait()

    def run_lane(k):
        items = itertools.chain.from_iterable(batched(k) if batches else free(k))
        try:
            drain(run, topology.operators, items, sink, invocations[k])
        except threading.BrokenBarrierError:
            pass  # the lane whose barrier action raised holds the error
        except Exception as exc:
            failures[k] = exc
            if batches and not barrier.broken:
                barrier.wait()  # end this batch with the others; read no more

    if p == 1:
        run_lane(0)
    else:
        threads = [
            threading.Thread(target=run_lane, args=(k,), name=f"{name}-{k}", daemon=True)
            for k in range(p)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    for failure in failures:
        if failure is not None:
            raise failure
    if not batches:
        return job_report(topology, invocations)
    bounds = [(a, b - 1) for a, b in zip(marks, marks[1:]) if b > a]
    return job_report(topology, invocations, len(marks) - 1, bounds)
