"""Unified dataflow layer: pipeline description plus its translation.

A pipeline is (read, pardos, write): one ReadFromLog, a chain of
ParDo transforms over bytes, and one WriteToLog, so a pipeline that is
not linear cannot be expressed. `translate` turns it into a topology
on a given native engine. The translation always emits a fixed wrapper
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

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .topology import Engine, Job


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
class Pipeline:
    """Program representation before runner translation: one read, a
    chain of ParDos, one write. No other shape can be expressed."""

    read: ReadFromLog
    pardos: tuple[ParDo, ...]
    write: WriteToLog


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
    read = pipeline.read
    builder = engine.build(read.topic, read.end_offset, source_name=_SOURCE_NODE)
    builder.flat_map(_make_envelope_fn(read.topic), name="FlatMap", with_index=True)
    builder.map(_without_metadata, name="withoutMetadata")
    builder.map(_values, name="Values")
    for pardo in pipeline.pardos:
        builder.flat_map(_adapt_pardo(pardo), name=pardo.name, with_index=pardo.with_index)
    builder.map(_serialize, name="serialize")
    builder.sink_write(pipeline.write.topic, name="sinkAppend")
    return Job(engine, builder.build(), parallelism)
