"""The four stateless benchmark queries, native and unified.

Identity passes records through unchanged, Sample keeps a seeded ~40%
of records, Projection keeps the first tab-separated column, and Grep
keeps records containing a literal needle ("test" by default).

Sample's randomness is indexed: the keep/drop decision for element i
depends only on (seed, i), never on arrival order, so the emitted
offset set is identical across engines, API kinds, and parallelisms.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from .broker import LogBroker
from .corpus import DEFAULT_SEED, MalformedRecordError
from .microbatch import BatchPolicy, MicrobatchEngine
from .topology import Job
from .tuple_engine import TupleEngine
from .unified import ParDo, Pipeline, ReadFromLog, WriteToLog, translate


class QueryKind(enum.Enum):
    IDENTITY = "identity"
    SAMPLE = "sample"
    PROJECTION = "projection"
    GREP = "grep"


class ApiKind(enum.Enum):
    NATIVE = "native"
    UNIFIED = "unified"


class EngineKind(enum.Enum):
    TUPLE = "tuple"
    MICROBATCH = "microbatch"


@dataclass(frozen=True)
class QuerySpec:
    kind: QueryKind
    sample_probability: float = 0.4
    grep_needle: str = "test"
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0 < self.sample_probability <= 1:
            raise ValueError("sample_probability must be in (0, 1]")
        if not self.grep_needle:
            raise ValueError("grep_needle must be non-empty")


def identity_fn(payload: bytes) -> bytes:
    return payload


def sample_uniform(seed: int, index: int) -> float:
    """i-th value of a counter-based seeded generator, uniform in [0, 1)."""
    digest = hashlib.sha256(b"sample:%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def sample_fn(payload: bytes, index: int, probability: float, seed: int) -> list[bytes]:
    if sample_uniform(seed, index) < probability:
        return [payload]
    return []


def projection_fn(payload: bytes) -> bytes:
    columns = payload.split(b"\t")
    if len(columns) != 5:
        raise MalformedRecordError(len(columns))
    return columns[0]


def grep_fn(payload: bytes, needle: bytes) -> list[bytes]:
    return [payload] if needle in payload else []


class InvalidCombinationError(ValueError):
    pass


def build_query(
    spec: QuerySpec,
    api_kind: ApiKind,
    engine_kind: EngineKind,
    *,
    broker: LogBroker,
    source_topic: str,
    end_offset: int,
    sink_topic: str,
    parallelism: int = 1,
    batch_policy: BatchPolicy | None = None,
) -> Job:
    """Assemble an executable job for one benchmark setup."""
    if not isinstance(api_kind, ApiKind) or not isinstance(engine_kind, EngineKind):
        raise InvalidCombinationError(f"invalid combination {api_kind!r}/{engine_kind!r}")
    if engine_kind is EngineKind.TUPLE:
        engine = TupleEngine(broker)
    else:
        engine = MicrobatchEngine(broker, batch_policy)
    if api_kind is ApiKind.NATIVE:
        return _build_native(spec, engine, source_topic, end_offset, sink_topic, parallelism)
    pipeline = build_unified_pipeline(spec, source_topic, end_offset, sink_topic)
    return translate(pipeline, engine, parallelism)


def _sample_pred(spec: QuerySpec):
    probability, seed = spec.sample_probability, spec.rng_seed

    def pred(payload: bytes, index: int) -> bool:
        return sample_uniform(seed, index) < probability

    return pred


def _grep_pred(spec: QuerySpec):
    needle = spec.grep_needle.encode("utf-8")

    def pred(payload: bytes) -> bool:
        return needle in payload

    return pred


def _build_native(spec, engine, source_topic, end_offset, sink_topic, parallelism):
    builder = engine.build(source_topic, end_offset)

    if spec.kind is QueryKind.SAMPLE:
        builder.filter(_sample_pred(spec), name="sample", with_index=True)
    elif spec.kind is QueryKind.PROJECTION:
        builder.map(projection_fn, name="projection")
    elif spec.kind is QueryKind.GREP:
        builder.filter(_grep_pred(spec), name="filter")
    builder.sink_write(sink_topic)
    return Job(engine, builder.build(), parallelism)


def build_unified_pipeline(
    spec: QuerySpec, source_topic: str, end_offset: int, sink_topic: str
) -> Pipeline:
    pardos: tuple[ParDo, ...] = ()
    if spec.kind is QueryKind.SAMPLE:
        probability, seed = spec.sample_probability, spec.rng_seed
        pardos = (ParDo(
            "sample",
            lambda payload, index: sample_fn(payload, index, probability, seed),
            with_index=True,
        ),)
    elif spec.kind is QueryKind.PROJECTION:
        pardos = (ParDo("projection", lambda payload: [projection_fn(payload)]),)
    elif spec.kind is QueryKind.GREP:
        needle = spec.grep_needle.encode("utf-8")
        pardos = (ParDo("grep", lambda payload: grep_fn(payload, needle)),)
    return Pipeline(ReadFromLog(source_topic, end_offset), pardos, WriteToLog(sink_topic))
