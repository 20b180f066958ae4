"""Operator DAG shared by both native engines.

Benchmark jobs are linear chains: one bounded source (a topic prefix
captured as [0, end_offset)), zero or more stateless operators, and one
sink. `read_chunks` is the one place where either engine reads its
source. Chained operators run fused: each element makes one pass
through the whole chain with one function call per operator and no
inter-operator queueing. `drain` is the one loop both engines use to
push elements through a chain into the sink. Every node is called
fn(payload, source_index) and returns an iterable of outputs; the
builder adapts each user function to that once. The sink is always the
last node of `Topology.operators`, with fn None.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .broker import LogBroker
from .plan import ExecutionPlan, plan_from_topology


class TopologyError(Exception):
    pass


class MissingSinkError(TopologyError):
    pass


class OperatorFailure(RuntimeError):
    """Raised when an operator function fails; names the node."""

    def __init__(self, node: str, index: int, cause: BaseException):
        super().__init__(f"operator {node!r} failed on element {index}: {cause!r}")
        self.node = node
        self.index = index
        self.cause = cause


_NAME_RE = re.compile(r"^[\w.:-]+$")


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
    lanes: int
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
        name = _check_name(name or self._default_name(base))
        if name in {op.name for op in self._operators} or name == self._source_name:
            raise TopologyError(f"duplicate node name {name!r}")
        self._operators.append(OperatorSpec(name, fn))
        return self

    def _default_name(self, base: str) -> str:
        taken = {op.name for op in self._operators}
        if base not in taken:
            return base
        n = 2
        while f"{base}-{n}" in taken:
            n += 1
        return f"{base}-{n}"

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
        if self._sink_topic is not None:
            raise TopologyError("sink_write may only be called once")
        self._add("sink_write", None, name)
        self._sink_topic = topic
        return self

    def build(self) -> Topology:
        if self._sink_topic is None:
            raise MissingSinkError("topology has no sink; call sink_write")
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
    if not _NAME_RE.match(name):
        raise TopologyError(f"invalid node name {name!r}")
    return name


def read_chunks(source, end_offset: int, size: int):
    """Yield partition 0 of the source topic over [0, end_offset) as
    lists of (offset, payload), one read of at most size entries each.
    Raises TopologyError if the log ends before end_offset."""
    offset = 0
    while offset < end_offset:
        chunk = source.read(0, offset, min(size, end_offset - offset))
        if not chunk:
            raise TopologyError(
                f"topic {source.name!r} ends at offset {offset}, "
                f"before end_offset {end_offset}"
            )
        yield [(entry.offset, entry.payload) for entry in chunk]
        offset += len(chunk)


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
        invocations[op.name] += len(values)
        try:
            values = [w for v in values for w in op.fn(v, index)]
        except Exception as exc:
            raise OperatorFailure(op.name, index, exc) from exc
        if not values:
            return values
    return values


def drain(run, operators, items, sink, invocations) -> int:
    """Push (index, payload) items through the chain with run, a
    run_chain, and append the survivors to partition 0 of the sink
    topic, counting each at the sink, the last node. Returns the number
    appended."""
    chain = operators[:-1]
    appended = 0
    for index, payload in items:
        for value in run(chain, index, payload, invocations):
            sink.append(0, value)
            appended += 1
    invocations[operators[-1].name] += appended
    return appended


def job_report(
    topology: Topology, records_out: int, invocations: dict[str, int], lanes: int,
    batches: int | None = None, batch_sink_bounds: list[tuple[int, int]] | None = None,
) -> JobReport:
    """The report of a completed run; every node of the chain appears,
    with a zero count if no element reached it."""
    for op in topology.operators:
        invocations.setdefault(op.name, 0)
    return JobReport(
        records_in=topology.end_offset,
        records_out=records_out,
        operator_invocations=dict(invocations),
        lanes=lanes,
        batches=batches,
        batch_sink_bounds=batch_sink_bounds,
    )
