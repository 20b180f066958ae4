"""Operator DAG shared by both native engines.

Benchmark jobs are linear chains: one bounded source (a topic prefix
captured as [0, end_offset)), zero or more stateless operators, and one
sink. Chained operators run fused: each element makes one pass through
the whole chain with one function call per operator and no
inter-operator queueing. `drain` is the one loop both engines use to
push elements through a chain into the sink.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

from .broker import LogBroker


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


class OpKind(enum.Enum):
    MAP = "map"
    FLAT_MAP = "flat_map"
    FILTER = "filter"
    SINK_WRITE = "sink_write"


_NAME_RE = re.compile(r"^[\w.:-]+$")


@dataclass(frozen=True)
class OperatorSpec:
    """One named node. fn is called fn(payload) or, with with_index,
    fn(payload, source_index)."""

    name: str
    kind: OpKind
    fn: Callable | None
    with_index: bool = False


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

    def _add(self, kind: OpKind, fn, name, with_index=False):
        if self._sink_topic is not None:
            raise TopologyError("cannot add operators after sink_write")
        name = _check_name(name or self._default_name(kind))
        if name in {op.name for op in self._operators} or name == self._source_name:
            raise TopologyError(f"duplicate node name {name!r}")
        self._operators.append(OperatorSpec(name, kind, fn, with_index))
        return self

    def _default_name(self, kind: OpKind) -> str:
        taken = {op.name for op in self._operators}
        if kind.value not in taken:
            return kind.value
        n = 2
        while f"{kind.value}-{n}" in taken:
            n += 1
        return f"{kind.value}-{n}"

    def map(self, fn, name: str | None = None, with_index: bool = False):
        return self._add(OpKind.MAP, fn, name, with_index)

    def flat_map(self, fn, name: str | None = None, with_index: bool = False):
        return self._add(OpKind.FLAT_MAP, fn, name, with_index)

    def filter(self, fn, name: str | None = None, with_index: bool = False):
        return self._add(OpKind.FILTER, fn, name, with_index)

    def sink_write(self, topic: str, name: str = "sink"):
        if self._sink_topic is not None:
            raise TopologyError("sink_write may only be called once")
        self._add(OpKind.SINK_WRITE, None, name)
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
    """What both engines share: a broker, and builders over a source
    range that is already in the log. Since the log is append-only, an
    engine reads that range without ever waiting for data."""

    def __init__(self, broker: LogBroker):
        self._broker = broker

    def build(
        self, source_topic: str, end_offset: int, source_name: str = "source"
    ) -> TopologyBuilder:
        hwm = self._broker.topic(source_topic).high_water_mark(0)
        if end_offset > hwm:
            raise TopologyError(
                f"end_offset {end_offset} beyond high-water mark {hwm}"
            )
        return TopologyBuilder(source_topic, end_offset, source_name)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise TopologyError(f"invalid node name {name!r}")
    return name


def run_chain(
    operators: tuple[OperatorSpec, ...],
    index: int,
    payload: bytes,
    invocations: dict[str, int],
) -> list[bytes]:
    """Push one source element through all non-sink operators, counting
    one invocation per element entering each node. Returns the surviving
    values (empty once a filter drops the element)."""
    values = [payload]
    for op in operators:
        if op.kind is OpKind.SINK_WRITE:
            break
        invocations[op.name] += len(values)
        try:
            if op.kind is OpKind.FILTER:
                if op.with_index:
                    values = [v for v in values if op.fn(v, index)]
                else:
                    values = [v for v in values if op.fn(v)]
            elif op.kind is OpKind.MAP:
                if op.with_index:
                    values = [op.fn(v, index) for v in values]
                else:
                    values = [op.fn(v) for v in values]
            else:  # FLAT_MAP
                if op.with_index:
                    values = [w for v in values for w in op.fn(v, index)]
                else:
                    values = [w for v in values for w in op.fn(v)]
        except Exception as exc:
            raise OperatorFailure(op.name, index, exc) from exc
        if not values:
            return values
    return values


def drain(run, operators, items, sink, invocations) -> int:
    """Push (index, payload) items through the chain with run, a
    run_chain, and append the survivors to partition 0 of the sink
    topic, counting each at the sink node. Returns the number appended."""
    appended = 0
    for index, payload in items:
        for value in run(operators, index, payload, invocations):
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
