"""Embedded single-node append-only log broker.

Each topic is one in-memory append-only log with dense offsets and a
broker-assigned append timestamp (milliseconds on a process-wide
monotonic clock, the same formula as `clock_ms`). The timestamp is
taken inside the append critical section, so timestamp order can never
contradict offset order.

There are two read paths over the same log: `read` returns `LogEntry`
records (offset, timestamp and payload), and `read_payloads` returns
just the payloads, which is all an engine needs; its offsets follow
from the start offset.

A topic has exactly one partition, numbered 0. Every log operation
still takes a partition argument and rejects any other index, so the
engines, the harness and the benchmark (which wraps `Topic.append` and
`Topic.read`) keep addressing entries as (topic, partition, offset).

This is the timing substrate for the whole benchmark: execution times
are derived from the append timestamps of output-topic records, which
keeps the measurement independent of any engine's own metrics. The
broker keeps every log in memory until `drop_topic` releases it; the
harness drops each run's output topic once it has read the run's
timing from it.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from time import monotonic_ns as _monotonic_ns

_EPOCH_NS = _monotonic_ns()


def clock_ms() -> int:
    """Milliseconds since process epoch on the monotonic clock; the
    append stamp uses the same formula."""
    return (_monotonic_ns() - _EPOCH_NS) // 1_000_000


class BrokerError(Exception):
    pass


@dataclass(frozen=True)
class LogEntry:
    offset: int
    append_ts: int
    payload: bytes


@dataclass(frozen=True)
class TopicConfig:
    name: str
    partitions: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("topic name must be non-empty")
        if self.partitions != 1:
            raise ValueError("a topic has exactly one partition")


class Topic:
    """One topic: a single append-only log. Appends are serialized;
    reads over the already-appended prefix take no lock (the prefix is
    immutable)."""

    def __init__(self, config: TopicConfig):
        self.config = config
        self._lock = threading.Lock()
        self._timestamps = array("q")
        self._payloads: list[bytes] = []

    @property
    def name(self) -> str:
        return self.config.name

    def _check_partition(self, partition: int) -> None:
        if partition != 0:
            raise BrokerError(
                f"topic {self.name!r} has no partition {partition}"
            )

    def append(self, partition: int, payload: bytes) -> tuple[int, int]:
        """Append a payload and return (offset, append_ts). The entry is
        readable when the call returns, so appends from one producer
        keep their order."""
        if partition != 0:
            self._check_partition(partition)
        if type(payload) is not bytes:  # bytes(b) is b for exact bytes
            payload = bytes(payload)
        self._lock.acquire()
        try:
            ts = (_monotonic_ns() - _EPOCH_NS) // 1_000_000  # clock_ms(), inline
            offset = len(self._payloads)
            # timestamp first: readers key on len(_payloads), so the
            # timestamp for any visible offset is always present.
            self._timestamps.append(ts)
            self._payloads.append(payload)
        finally:
            self._lock.release()
        return offset, ts

    def _read_end(self, partition: int, from_offset: int, max_count: int) -> int:
        """Check a read's arguments; return the offset after its last entry."""
        self._check_partition(partition)
        if from_offset < 0:
            raise ValueError("from_offset must be non-negative")
        if max_count < 0:
            raise ValueError("max_count must be non-negative")
        return min(from_offset + max_count, len(self._payloads))

    def read(self, partition: int, from_offset: int, max_count: int) -> list[LogEntry]:
        """Return entries [from_offset, from_offset+max_count) without
        blocking; empty list at end of log."""
        end = self._read_end(partition, from_offset, max_count)
        return [
            LogEntry(i, self._timestamps[i], self._payloads[i])
            for i in range(from_offset, end)
        ]

    def read_payloads(self, partition: int, from_offset: int, max_count: int) -> list[bytes]:
        """The payloads of read(...) as a new list, without building an
        entry per record: item k is the payload at from_offset + k."""
        end = self._read_end(partition, from_offset, max_count)
        return self._payloads[from_offset:end]

    def boundary_timestamps(self, partition: int) -> tuple[int, int]:
        """(append_ts of first entry, append_ts of last entry)."""
        self._check_partition(partition)
        n = len(self._payloads)
        if n == 0:
            raise BrokerError("partition is empty")
        return self._timestamps[0], self._timestamps[n - 1]

    def high_water_mark(self, partition: int) -> int:
        self._check_partition(partition)
        return len(self._payloads)


class LogBroker:
    """Registry of topics; no networking, persistence, or replication."""

    def __init__(self):
        self._topics: dict[str, Topic] = {}
        self._lock = threading.Lock()

    def create_topic(self, config: TopicConfig) -> Topic:
        with self._lock:
            if config.name in self._topics:
                raise BrokerError(f"topic {config.name!r} already exists")
            topic = Topic(config)
            self._topics[config.name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise BrokerError(f"no topic named {name!r}") from None

    def drop_topic(self, name: str) -> None:
        """Remove a topic and release its log; the name can be created
        again."""
        with self._lock:
            if self._topics.pop(name, None) is None:
                raise BrokerError(f"no topic named {name!r}")

    def has_topic(self, name: str) -> bool:
        return name in self._topics

    def topic_names(self) -> list[str]:
        return sorted(self._topics)
