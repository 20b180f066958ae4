"""Unified dataflow layer: pipeline description plus engine runners.

A pipeline is a DAG of transforms over typed collections. Runners
translate a pipeline into a native engine topology. The translation
always emits a fixed wrapper chain around the user's transforms, and
this chain is the measured abstraction overhead:

    source "UnknownRawPTransform"
      -> FlatMap          (wrap payload in a key-value envelope with
                           synthetic metadata: topic, offset, timestamp)
      -> withoutMetadata  (strip metadata, keep key-value)
      -> Values           (drop key, keep value)
      -> one node per user transform
      -> serialize        (value back to a sink payload)
      -> sinkAppend       (append to the output topic)

The wrapper stages are never fused away, even when trivially
composable. A grep pipeline with its single user transform therefore
translates to exactly 7 nodes, versus 3 for its native counterpart.

Between engine nodes every element travels as bytes; key-value and
keyed-group elements use a length-prefixed field encoding.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .broker import LogBroker
from .jobs import Job, make_job
from .microbatch import BatchPolicy, MicrobatchEngine
from .tuple_engine import TupleEngine


class PipelineError(Exception):
    pass


class TypeMismatchError(PipelineError):
    pass


class UnwindowedGroupByKeyError(PipelineError):
    pass


class UnsupportedConstructError(PipelineError):
    pass


class ElementKind(enum.Enum):
    BYTES = "bytes"
    KEY_VALUE = "key_value"
    KEYED_GROUP = "keyed_group"


@dataclass(frozen=True)
class TumblingCount:
    """Count-based tumbling window: groups close every n elements."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window size must be >= 1")


@dataclass(frozen=True)
class ReadFromLog:
    topic: str
    end_offset: int


@dataclass(frozen=True)
class ParDo:
    name: str
    fn: Callable
    with_index: bool = False
    output_kind: ElementKind | None = None


@dataclass(frozen=True)
class GroupByKey:
    window: TumblingCount | None = None


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class WriteToLog:
    topic: str


@dataclass(frozen=True)
class PCollection:
    id: int
    element_kind: ElementKind
    bounded: bool = False
    terminal: bool = False


@dataclass(frozen=True)
class _Application:
    transform: object
    inputs: tuple[PCollection, ...]
    output: PCollection


class Pipeline:
    """Program representation before runner translation."""

    def __init__(self):
        self._applications: list[_Application] = []
        self._ids = itertools.count()

    @property
    def applications(self) -> tuple[_Application, ...]:
        return tuple(self._applications)

    def apply(self, transform, pinput=None) -> PCollection:
        """Extend the DAG with one transform application and return its
        output collection. pinput is a PCollection (a sequence of them
        for Flatten) or None for the pipeline root."""
        inputs = self._check_inputs(transform, pinput)
        output = self._output_collection(transform, inputs)
        self._applications.append(_Application(transform, inputs, output))
        return output

    def _check_inputs(self, transform, pinput) -> tuple[PCollection, ...]:
        if isinstance(transform, ReadFromLog):
            if pinput is not None:
                raise TypeMismatchError("ReadFromLog applies only at the pipeline root")
            return ()
        if pinput is None:
            raise TypeMismatchError(
                f"{type(transform).__name__} requires an input collection"
            )
        if isinstance(transform, Flatten):
            inputs = tuple(pinput) if isinstance(pinput, Sequence) else (pinput,)
            if not inputs:
                raise TypeMismatchError("Flatten requires at least one input")
        else:
            if isinstance(pinput, Sequence):
                raise TypeMismatchError(
                    f"{type(transform).__name__} takes a single input collection"
                )
            inputs = (pinput,)
        for pc in inputs:
            if pc.terminal:
                raise TypeMismatchError("cannot apply a transform to a written collection")
        return inputs

    def _output_collection(self, transform, inputs) -> PCollection:
        if isinstance(transform, ReadFromLog):
            kind = ElementKind.BYTES
        elif isinstance(transform, ParDo):
            kind = transform.output_kind or inputs[0].element_kind
        elif isinstance(transform, GroupByKey):
            if inputs[0].element_kind is not ElementKind.KEY_VALUE:
                raise TypeMismatchError("GroupByKey requires key-value elements")
            if transform.window is None:
                raise UnwindowedGroupByKeyError(
                    "GroupByKey on a stream requires a window"
                )
            kind = ElementKind.KEYED_GROUP
        elif isinstance(transform, Flatten):
            kinds = {pc.element_kind for pc in inputs}
            if len(kinds) != 1:
                raise TypeMismatchError("Flatten inputs must share an element kind")
            kind = kinds.pop()
        elif isinstance(transform, WriteToLog):
            return PCollection(next(self._ids), inputs[0].element_kind, terminal=True)
        else:
            raise TypeMismatchError(f"unknown transform {transform!r}")
        return PCollection(next(self._ids), kind)


def group_by_key_semantics(window: Iterable[tuple]) -> list[tuple]:
    """Group one fully formed window of (key, value) pairs: one output
    per distinct key, values in arrival order, keys in first-arrival
    order."""
    groups: dict = {}
    for key, value in window:
        groups.setdefault(key, []).append(value)
    return [(key, list(values)) for key, values in groups.items()]


def flatten_semantics(inputs: Sequence[Sequence]) -> list:
    out = []
    for elements in inputs:
        out.extend(elements)
    return out


# ---------------------------------------------------------------------------
# Element encoding between engine nodes.

def encode_fields(*fields: bytes) -> bytes:
    out = bytearray()
    for f in fields:
        out += len(f).to_bytes(4, "big")
        out += f
    return bytes(out)


def decode_fields(data: bytes) -> list[bytes]:
    fields = []
    pos, n = 0, len(data)
    while pos < n:
        if pos + 4 > n:
            raise ValueError("truncated field header")
        ln = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        if pos + ln > n:
            raise ValueError("truncated field body")
        fields.append(data[pos:pos + ln])
        pos += ln
    return fields


def _encode_element(kind: ElementKind, element) -> bytes:
    if kind is ElementKind.BYTES:
        return bytes(element)
    if kind is ElementKind.KEY_VALUE:
        key, value = element
        return encode_fields(key, value)
    key, values = element
    return encode_fields(key, *values)


def _decode_element(kind: ElementKind, data: bytes):
    if kind is ElementKind.BYTES:
        return data
    fields = decode_fields(data)
    if kind is ElementKind.KEY_VALUE:
        if len(fields) != 2:
            raise ValueError("key-value element must have 2 fields")
        return fields[0], fields[1]
    return fields[0], tuple(fields[1:])


# ---------------------------------------------------------------------------
# Local evaluation: list-at-a-time reference semantics, independent of
# the engines. Elements carry the source index of the read element they
# descend from (-1 once windowed).

@dataclass
class LocalRun:
    collections: dict[int, list]
    written: dict[str, list[bytes]]

    def materialize(self, pc: PCollection) -> list:
        return [element for _, element in self.collections[pc.id]]


def evaluate_local(pipeline: Pipeline, sources: dict[str, list[bytes]]) -> LocalRun:
    collections: dict[int, list] = {}
    written: dict[str, list[bytes]] = {}
    for app in pipeline.applications:
        t = app.transform
        if isinstance(t, ReadFromLog):
            data = sources[t.topic][: t.end_offset]
            out = list(enumerate(data))
        elif isinstance(t, ParDo):
            out = []
            for index, element in collections[app.inputs[0].id]:
                results = t.fn(element, index) if t.with_index else t.fn(element)
                out.extend((index, r) for r in results)
        elif isinstance(t, GroupByKey):
            elements = [e for _, e in collections[app.inputs[0].id]]
            out = []
            n = t.window.n
            for start in range(0, len(elements), n):
                for key, values in group_by_key_semantics(elements[start:start + n]):
                    out.append((-1, (key, tuple(values))))
        elif isinstance(t, Flatten):
            out = flatten_semantics([collections[pc.id] for pc in app.inputs])
        elif isinstance(t, WriteToLog):
            kind = app.inputs[0].element_kind
            rows = [
                _encode_element(kind, element)
                for _, element in collections[app.inputs[0].id]
            ]
            written.setdefault(t.topic, []).extend(rows)
            out = []
        else:  # pragma: no cover - apply() rejects unknown transforms
            raise UnsupportedConstructError(repr(t))
        collections[app.output.id] = out
    return LocalRun(collections, written)


# ---------------------------------------------------------------------------
# Runners and translation.

class TupleRunner:
    def __init__(self, broker: LogBroker):
        self.broker = broker

    def new_engine(self) -> TupleEngine:
        return TupleEngine(self.broker)


class MicrobatchRunner:
    def __init__(self, broker: LogBroker, policy: BatchPolicy | None = None):
        self.broker = broker
        self.policy = policy

    def new_engine(self) -> MicrobatchEngine:
        return MicrobatchEngine(self.broker, self.policy)


_SOURCE_NODE = "UnknownRawPTransform"


def _linear_transforms(pipeline: Pipeline):
    """Validate the benchmark pipeline shape: one ReadFromLog, a linear
    chain of ParDo/GroupByKey applications, one terminal WriteToLog."""
    apps = pipeline.applications
    reads = [a for a in apps if isinstance(a.transform, ReadFromLog)]
    if len(reads) != 1:
        raise UnsupportedConstructError("translation requires exactly one ReadFromLog")
    consumers: dict[int, list[_Application]] = {}
    for app in apps:
        for pc in app.inputs:
            consumers.setdefault(pc.id, []).append(app)

    chain = []
    current = reads[0].output
    while True:
        next_apps = consumers.get(current.id, [])
        if len(next_apps) != 1:
            raise UnsupportedConstructError(
                "translation requires a linear pipeline ending in WriteToLog"
            )
        app = next_apps[0]
        if isinstance(app.transform, WriteToLog):
            return reads[0].transform, chain, app.transform
        if not isinstance(app.transform, (ParDo, GroupByKey)):
            raise UnsupportedConstructError(
                f"{type(app.transform).__name__} is not translatable"
            )
        chain.append(app)
        current = app.output


def _make_envelope_fn(topic: str):
    topic_b = topic.encode("utf-8")

    def envelope(payload: bytes, index: int) -> list[bytes]:
        # Synthetic metadata record materialized per element; the cost
        # of building it is part of what the benchmark measures.
        return [encode_fields(topic_b, b"%d" % index, b"0", b"", payload)]

    return envelope


def _without_metadata(envelope: bytes) -> bytes:
    fields = decode_fields(envelope)  # topic, offset, ts, key, value
    return encode_fields(fields[3], fields[4])


def _values(kv: bytes) -> bytes:
    return decode_fields(kv)[1]


def _serialize(value: bytes) -> bytes:
    return bytes(value)


def _adapt_pardo(pardo: ParDo, in_kind: ElementKind, out_kind: ElementKind):
    if pardo.with_index:
        def wrapped(data: bytes, index: int) -> list[bytes]:
            element = _decode_element(in_kind, data)
            return [_encode_element(out_kind, o) for o in pardo.fn(element, index)]
    else:
        def wrapped(data: bytes) -> list[bytes]:
            element = _decode_element(in_kind, data)
            return [_encode_element(out_kind, o) for o in pardo.fn(element)]
    return wrapped


def _make_gbk_ops(window_n: int):
    # Sequence-stateful by nature: the window buffer lives in the
    # closure and persists for the lifetime of the translated job.
    buffer: list[tuple[bytes, bytes]] = []

    def emit() -> list[bytes]:
        grouped = group_by_key_semantics(buffer)
        buffer.clear()
        return [encode_fields(key, *values) for key, values in grouped]

    def step(data: bytes) -> list[bytes]:
        key, value = _decode_element(ElementKind.KEY_VALUE, data)
        buffer.append((key, value))
        return emit() if len(buffer) == window_n else []

    def flush() -> list[bytes]:
        return emit() if buffer else []

    return step, flush


def translate(pipeline: Pipeline, runner, parallelism: int = 1) -> Job:
    """Translate a pipeline into an executable native job.

    Pure in structure: for a fixed (pipeline, runner, parallelism) the
    produced topology and plan are identical across calls.
    """
    read, chain, write = _linear_transforms(pipeline)
    has_gbk = any(isinstance(app.transform, GroupByKey) for app in chain)
    if has_gbk and parallelism != 1:
        raise UnsupportedConstructError(
            "GroupByKey pipelines run with parallelism 1 only"
        )
    engine = runner.new_engine()
    if has_gbk and isinstance(engine, MicrobatchEngine):
        largest = max(
            app.transform.window.n
            for app in chain
            if isinstance(app.transform, GroupByKey)
        )
        if largest > engine.policy.max_batch_size:
            raise UnsupportedConstructError(
                f"window of {largest} exceeds max_batch_size "
                f"{engine.policy.max_batch_size} on the micro-batch runner"
            )

    builder = engine.build(read.topic, read.end_offset, source_name=_SOURCE_NODE)
    builder.flat_map(_make_envelope_fn(read.topic), name="FlatMap", with_index=True)
    builder.map(_without_metadata, name="withoutMetadata")
    builder.map(_values, name="Values")
    for app in chain:
        t = app.transform
        if isinstance(t, ParDo):
            fn = _adapt_pardo(t, app.inputs[0].element_kind, app.output.element_kind)
            builder.flat_map(fn, name=t.name, with_index=t.with_index)
        else:
            step, flush = _make_gbk_ops(t.window.n)
            builder.flat_map(step, name="GroupByKey", flush_fn=flush)
    builder.map(_serialize, name="serialize")
    builder.sink_write(write.topic, name="sinkAppend")
    return make_job(engine, builder.build(), parallelism)
