"""Operator DAG and `run_lanes`, the one lane runner of both engines.

Benchmark jobs are linear chains: one bounded source (a topic prefix
captured as [0, end_offset)), zero or more stateless operators, and one
sink, the last node of `Topology.operators`, with fn None. Every other
node keeps the user's function as given, with its shape (map, filter or
flat_map) and whether it also takes the element's source index.
`read_chunks` reads the source as (start offset, payloads) chunks from
`Topic.read_payloads`, building no per-record log entry; `lane_items`
gives lane k of p the offsets of a chunk that are k mod p;
`compile_drain` generates, once per job, the loop that pushes those
through the chain into the sink; and `job_report` sums the per-lane
counts. As in an engine that chains operators into one task, each
element makes one pass with one call per node and no inter-operator
queueing, and the generated code calls each node's function directly,
as its shape needs: a map's result is the next value, a filter whose
result is false moves on to the next value, and only a flat_map loops
over its outputs, with nothing fused. `run_chain` is the reference
definition of one element's pass, which tests compare the generated
drain with; no engine calls it.
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


class _DrainFailure(OperatorFailure):
    """The OperatorFailure that generated drain code raises, so that a
    flat_map node lets a downstream node's failure through and wraps one
    its own function raises."""


_NAME_RE = re.compile(r"[\w.:-]+")

# The most flat_maps one chain may hold. `compile_drain` generates the
# chain as one function, and CPython nests at most 20 blocks in one
# function: the drain's own try and loop and the sink's handler take
# four, and each flat_map two.
MAX_FLAT_MAPS = 8


@dataclass(frozen=True)
class OperatorSpec:
    """One named node: the user's function as given, and how a value v
    goes through it. shape "map" outputs fn(v), "filter" outputs v when
    fn(v) is true, and "flat_map" outputs each value fn(v) iterates;
    with_index calls fn(v, index) instead, index being the element's
    source offset. The sink has shape "sink" and fn None."""

    name: str
    fn: Callable | None
    shape: str
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
    batches: int | None = None
    batch_sink_bounds: list[tuple[int, int]] | None = None


class TopologyBuilder:
    """Chainable builder; sink_write is required before build(), which
    refuses a chain of more than MAX_FLAT_MAPS flat_maps."""

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

    def _add(self, shape: str, fn, name, with_index: bool = False):
        if self._sink_topic is not None:
            raise TopologyError("cannot add operators after sink_write")
        name = _check_name(name or shape)
        if name in {op.name for op in self._operators} or name == self._source_name:
            raise TopologyError(f"duplicate node name {name!r}")
        self._operators.append(OperatorSpec(name, fn, shape, with_index))
        return self

    def map(self, fn, name: str | None = None, with_index: bool = False):
        return self._add("map", fn, name, with_index)

    def flat_map(self, fn, name: str | None = None, with_index: bool = False):
        return self._add("flat_map", fn, name, with_index)

    def filter(self, fn, name: str | None = None, with_index: bool = False):
        return self._add("filter", fn, name, with_index)

    def sink_write(self, topic: str, name: str = "sink"):
        self._add("sink", None, name)
        self._sink_topic = topic
        return self

    def build(self) -> Topology:
        if self._sink_topic is None:
            raise TopologyError("topology has no sink; call sink_write")
        if sum(op.shape == "flat_map" for op in self._operators) > MAX_FLAT_MAPS:
            raise TopologyError(
                f"a chain of {len(self._operators) - 1} nodes nests too deeply: "
                f"more than {MAX_FLAT_MAPS} flat_maps"
            )
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
    Returns the surviving values (empty once a node drops it). The
    reference definition of what `compile_drain`'s code does per
    element; the engines run that code, not this."""
    values = [payload]
    for op in operators:
        invocations[op.name] += len(values)
        try:
            values = [w for v in values for w in _outputs(op, v, index)]
        except Exception as exc:
            raise OperatorFailure(op.name, index, exc) from exc
        if not values:
            return values
    return values


def _outputs(op: OperatorSpec, v, index: int):
    """The values that node op outputs for value v of element index."""
    out = op.fn(v, index) if op.with_index else op.fn(v)
    if op.shape == "map":
        return (out,)
    if op.shape == "filter":
        return (v,) if out else ()
    return out


_DRAIN_FILE = "<streamlab drain>"  # co_filename of generated code


def _node_loops(operators, inner: list[str]) -> list[str]:
    """Source lines that run a chain without its sink on v, each output
    of node k going through nodes k+1.. and then inner. Each node's call
    is in its own try; only a flat_map node loops, and a filter that
    drops v continues the innermost loop."""
    lines = inner
    for k in reversed(range(len(operators))):
        op = operators[k]
        call = f"f{k}(v, index)" if op.with_index else f"f{k}(v)"
        wrap = [
            "except Exception as exc:",
            f"    raise _DrainFailure(n{k}, index, exc) from exc",
        ]
        # As for the sink, a try on its body's line costs no NOP; an
        # if cannot share the try's line, so a filter's try has its own.
        if op.shape == "map":
            lines = [f"c{k} += 1", f"try: v = {call}", *wrap, *lines]
        elif op.shape == "filter":
            lines = [f"c{k} += 1", "try:", f"    if not {call}: continue", *wrap, *lines]
        else:
            lines = [
                f"c{k} += 1",
                "try:",
                f"    for v in {call}:",
                *("        " + line for line in lines),
                "except _DrainFailure:",
                "    raise",
                *wrap,
            ]
    return lines


def compile_drain(operators: tuple[OperatorSpec, ...]):
    """Generate drain(items, append, counts) for one chain, once per job.

    The drain pushes each (index, payload) item through the chain and
    calls append(0, value) for each survivor. When it returns or raises,
    it adds each node's count to counts: the values that entered it,
    and for the sink, the last node, the values appended. Each node is
    one call of its own function per value, in a try of its own, and
    its code follows its shape. Map node k is `v = f_k(v)`, and the
    nodes after it follow it; a filter is the guard
    `if not f_k(v): continue`, which moves on to the innermost loop's
    next value, and the nodes after it follow it too; a flat_map is
    `for v in f_k(v):`, with the nodes after it in the loop body, so a
    generator is iterated inside its node's try. A node with_index is
    called f_k(v, index). A failure, a filter result's truth test and
    the sink's append included, raises OperatorFailure naming its node
    and element, also when a node's own function raised an
    OperatorFailure: the drain raises a private subclass, which a
    flat_map's try lets through from the nodes after it. The source text
    holds only indices; each node's function and name reach it through
    the exec namespace. The whole chain is one function, and only a
    flat_map nests, so it compiles for the chains `TopologyBuilder.build`
    accepts, with at most MAX_FLAT_MAPS flat_maps; a longer chain of
    operators built by hand raises TopologyError here.

    It is `run_chain` plus an append per survivor, with the same sink
    order and counts on success: depth-first over nested loops visits
    the values in run_chain's order. On failure two things differ. A
    record whose node fails partway, a fan-out whose later value fails
    or a generator that raises after yielding, may already have earlier
    outputs in the sink. If two values of one record would fail at
    different nodes, the first one in depth-first order is named."""
    n = len(operators) - 1  # operators[n] is the sink
    namespace = {"_DrainFailure": _DrainFailure}
    for k, op in enumerate(operators):
        namespace[f"n{k}"] = op.name
        namespace[f"f{k}"] = op.fn
    inner = [  # the sink; on the try's own line, the try costs no NOP
        f"try: append(0, v); c{n} += 1",
        "except Exception as exc:",
        f"    raise _DrainFailure(n{n}, index, exc) from exc",
    ]
    lines = [
        "def drain(items, append, counts):",
        "    " + " = ".join(f"c{k}" for k in range(n + 1)) + " = 0",
        "    try:",
        "        for index, v in items:",
        *("            " + line for line in _node_loops(operators[:n], inner)),
        "    finally:",
        *(f"        counts[n{k}] += c{k}" for k in range(n + 1)),
    ]
    try:
        code = compile("\n".join(lines) + "\n", _DRAIN_FILE, "exec")
    except SyntaxError as exc:  # CPython's "too many statically nested blocks"
        raise TopologyError(f"a chain of {n} nodes nests too deeply: {exc.msg}") from exc
    exec(code, namespace)
    return namespace["drain"]


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
    broker: LogBroker, topology: Topology, p: int, size: int,
    batches: bool = False, name: str = "tuple-lane",
) -> JobReport:
    """Run topology on p lanes: lane k pushes the offsets k mod p of each
    chunk of at most size records through the job's drain, compiled once
    for all lanes. Free lanes (tuple) each read every chunk themselves.
    With batches (micro-batch), a barrier ends each chunk, and its action
    notes the sink's high-water mark and reads the next chunk once for
    all lanes. At p = 1 the lane runs on the calling thread; above that,
    lane k is thread {name}-{k}. Once a lane fails no lane takes another
    chunk, and after every lane has ended the lowest failed lane's error
    is raised."""
    if p < 1:
        raise ValueError("parallelism must be >= 1")
    source = broker.topic(topology.source_topic)
    sink = broker.topic(topology.sink_topic)
    drain = compile_drain(topology.operators)
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
            drain(items, sink.append, invocations[k])
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
