"""The four stateless benchmark queries, native and unified.

Identity passes records through unchanged, Sample keeps a seeded ~40%
of records, Projection keeps the first tab-separated column, and Grep
keeps records containing a literal needle ("test" by default).

Sample's randomness is indexed: the keep/drop decision for element i
depends only on (seed, i), never on arrival order, so the emitted
offset set is identical across engines, API kinds, and parallelisms.
`sample_uniform` is the reference definition of that decision:
element i is kept when `sample_uniform(seed, i) < probability`. Both
API kinds decide through one kernel, `sample_kernel`, built per job
when the query is built. It hashes the seeded prefix `b"sample:<seed>:"`
once, and per element copies that SHA-256 state, adds the index and
compares the digest with an exact 8-byte threshold: the smallest N
with N / 2**64 >= probability. The decisions are bit-identical to the
reference, float rounding at the edge included.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Callable
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


SAMPLE_PROBABILITY = 0.4


@dataclass(frozen=True)
class QuerySpec:
    kind: QueryKind
    grep_needle: str = "test"
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not self.grep_needle:
            raise ValueError("grep_needle must be non-empty")


def sample_uniform(seed: int, index: int) -> float:
    """i-th value of a counter-based seeded generator, uniform in [0, 1]
    (1.0 only where the division rounds up). The reference definition of
    the sample decision; jobs decide through sample_kernel."""
    digest = hashlib.sha256(b"sample:%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def sample_threshold(probability: float) -> int:
    """The smallest N in [0, 2**64] with N / 2**64 >= probability, found
    by bisection on that predicate, so that for every 64-bit u,
    u < N exactly when u / 2**64 < probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"sample probability must be in [0, 1], got {probability!r}")
    lo, hi = 0, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= probability:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sample_kernel(seed: int, probability: float) -> Callable[[int], bool]:
    """keep(index), equal to sample_uniform(seed, index) < probability."""
    # Fits in 8 bytes: (2**64 - 1) / 2**64 rounds to 1.0, so even
    # probability 1.0 has a threshold below 2**64. A digest compares
    # below these 8 bytes exactly when its first 8 bytes do.
    threshold = sample_threshold(probability).to_bytes(8, "big")
    copy = hashlib.sha256(b"sample:%d:" % seed).copy

    def keep(index: int) -> bool:
        state = copy()
        state.update(b"%d" % index)
        return state.digest() < threshold

    return keep


def sample_fn(payload: bytes, index: int, keep: Callable[[int], bool]) -> list[bytes]:
    return [payload] if keep(index) else []


def projection_fn(payload: bytes) -> bytes:
    columns = payload.split(b"\t")
    if len(columns) != 5:
        raise MalformedRecordError(len(columns))
    return columns[0]


def grep_fn(payload: bytes, needle: bytes) -> list[bytes]:
    return [payload] if needle in payload else []


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
        raise ValueError(f"invalid combination {api_kind!r}/{engine_kind!r}")
    if engine_kind is EngineKind.TUPLE:
        engine = TupleEngine(broker)
    else:
        engine = MicrobatchEngine(broker, batch_policy)
    if api_kind is ApiKind.NATIVE:
        return _build_native(spec, engine, source_topic, end_offset, sink_topic, parallelism)
    pipeline = build_unified_pipeline(spec, source_topic, end_offset, sink_topic)
    return translate(pipeline, engine, parallelism)


def _sample_pred(spec: QuerySpec):
    keep = sample_kernel(spec.rng_seed, SAMPLE_PROBABILITY)

    def pred(payload: bytes, index: int) -> bool:
        return keep(index)

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
        keep = sample_kernel(spec.rng_seed, SAMPLE_PROBABILITY)
        pardos = (ParDo(
            "sample", lambda payload, index: sample_fn(payload, index, keep), with_index=True,
        ),)
    elif spec.kind is QueryKind.PROJECTION:
        pardos = (ParDo("projection", lambda payload: [projection_fn(payload)]),)
    elif spec.kind is QueryKind.GREP:
        needle = spec.grep_needle.encode("utf-8")
        pardos = (ParDo("grep", lambda payload: grep_fn(payload, needle)),)
    return Pipeline(ReadFromLog(source_topic, end_offset), pardos, WriteToLog(sink_topic))
