"""Unified dataflow layer: pipeline description plus its translation.

A pipeline applies three kinds of transform to collections of bytes:
ReadFromLog at the root, ParDo, and WriteToLog, after which nothing
may follow. `translate` turns a linear pipeline (one
ReadFromLog, a chain of ParDo, one WriteToLog) into a topology on a
given native engine. The translation always emits a fixed wrapper
chain around the user's transforms, and this chain is the measured
abstraction overhead:

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

Between engine nodes every element travels as bytes; the envelope and
the key-value pair use a length-prefixed field encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .topology import Engine, Job


class PipelineError(Exception):
    pass


class TypeMismatchError(PipelineError):
    pass


class UnsupportedConstructError(PipelineError):
    pass


@dataclass(frozen=True)
class ReadFromLog:
    topic: str
    end_offset: int


@dataclass(frozen=True)
class ParDo:
    name: str
    fn: Callable
    with_index: bool = False


@dataclass(frozen=True)
class WriteToLog:
    topic: str


@dataclass(frozen=True)
class PCollection:
    id: int
    terminal: bool = False


@dataclass(frozen=True)
class _Application:
    transform: object
    input: PCollection | None
    output: PCollection


class Pipeline:
    """Program representation before runner translation."""

    def __init__(self):
        self._applications: list[_Application] = []
        self._ids = itertools.count()

    @property
    def applications(self) -> tuple[_Application, ...]:
        return tuple(self._applications)

    def apply(self, transform, pinput: PCollection | None = None) -> PCollection:
        """Extend the DAG with one transform application and return its
        output collection. pinput is None for the pipeline root."""
        if not isinstance(transform, (ReadFromLog, ParDo, WriteToLog)):
            raise TypeMismatchError(f"unknown transform {transform!r}")
        if isinstance(transform, ReadFromLog):
            if pinput is not None:
                raise TypeMismatchError("ReadFromLog applies only at the pipeline root")
        elif pinput is None:
            raise TypeMismatchError(
                f"{type(transform).__name__} requires an input collection"
            )
        elif not isinstance(pinput, PCollection):
            raise TypeMismatchError(
                f"{type(transform).__name__} takes a single input collection"
            )
        elif pinput.terminal:
            raise TypeMismatchError("cannot apply a transform to a written collection")
        output = PCollection(next(self._ids), terminal=isinstance(transform, WriteToLog))
        self._applications.append(_Application(transform, pinput, output))
        return output


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


# ---------------------------------------------------------------------------
# Translation.

_SOURCE_NODE = "UnknownRawPTransform"


def _linear_transforms(pipeline: Pipeline):
    """Validate the benchmark pipeline shape: one ReadFromLog, a linear
    chain of ParDo transforms, one terminal WriteToLog."""
    apps = pipeline.applications
    reads = [a for a in apps if isinstance(a.transform, ReadFromLog)]
    if len(reads) != 1:
        raise UnsupportedConstructError("translation requires exactly one ReadFromLog")
    consumers: dict[int, list[_Application]] = {}
    for app in apps:
        if app.input is not None:
            consumers.setdefault(app.input.id, []).append(app)

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
        chain.append(app.transform)
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


def _adapt_pardo(pardo: ParDo):
    if pardo.with_index:
        def wrapped(data: bytes, index: int) -> list[bytes]:
            return [bytes(o) for o in pardo.fn(data, index)]
    else:
        def wrapped(data: bytes) -> list[bytes]:
            return [bytes(o) for o in pardo.fn(data)]
    return wrapped


def translate(pipeline: Pipeline, engine: Engine, parallelism: int = 1) -> Job:
    """Translate a pipeline into an executable job on engine.

    Pure in structure: for a fixed (pipeline, engine kind, parallelism)
    the produced topology and plan are identical across calls.
    """
    read, chain, write = _linear_transforms(pipeline)
    builder = engine.build(read.topic, read.end_offset, source_name=_SOURCE_NODE)
    builder.flat_map(_make_envelope_fn(read.topic), name="FlatMap", with_index=True)
    builder.map(_without_metadata, name="withoutMetadata")
    builder.map(_values, name="Values")
    for pardo in chain:
        builder.flat_map(_adapt_pardo(pardo), name=pardo.name, with_index=pardo.with_index)
    builder.map(_serialize, name="serialize")
    builder.sink_write(write.topic, name="sinkAppend")
    return Job(engine, builder.build(), parallelism)
