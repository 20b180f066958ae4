"""Embedded single-node append-only log broker.

Topics hold one or more partitions; each partition is an in-memory
append-only log with dense offsets and a broker-assigned append
timestamp (milliseconds on a process-wide monotonic clock). The
timestamp is taken inside the append critical section, so timestamp
order can never contradict offset order within a partition.

This is the timing substrate for the whole benchmark: execution times
are derived from the append timestamps of output-topic records, which
keeps the measurement independent of any engine's own metrics.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass

_EPOCH_NS = time.monotonic_ns()


def clock_ms() -> int:
    """Milliseconds since process epoch on the monotonic clock."""
    return (time.monotonic_ns() - _EPOCH_NS) // 1_000_000


class BrokerError(Exception):
    pass


class DuplicateTopicError(BrokerError):
    pass


class UnknownTopicError(BrokerError):
    pass


class InvalidPartitionError(BrokerError):
    pass


class EmptyPartitionError(BrokerError):
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
        if self.partitions < 1:
            raise ValueError("partitions must be a positive integer")


class _Partition:
    """One append-only log. Appends are serialized; reads over the
    already-appended prefix take no lock (the prefix is immutable)."""

    __slots__ = ("_lock", "_timestamps", "_payloads")

    def __init__(self):
        self._lock = threading.Lock()
        self._timestamps = array("q")
        self._payloads: list[bytes] = []

    def append(self, payload: bytes) -> tuple[int, int]:
        with self._lock:
            ts = clock_ms()
            offset = len(self._payloads)
            # timestamp first: readers key on len(_payloads), so the
            # timestamp for any visible offset is always present.
            self._timestamps.append(ts)
            self._payloads.append(payload)
            return offset, ts

    def __len__(self) -> int:
        return len(self._payloads)

    def read(self, from_offset: int, max_count: int) -> list[LogEntry]:
        if from_offset < 0:
            raise ValueError("from_offset must be non-negative")
        if max_count < 0:
            raise ValueError("max_count must be non-negative")
        end = min(from_offset + max_count, len(self._payloads))
        return [
            LogEntry(i, self._timestamps[i], self._payloads[i])
            for i in range(from_offset, end)
        ]

    def boundary_timestamps(self) -> tuple[int, int]:
        n = len(self._payloads)
        if n == 0:
            raise EmptyPartitionError("partition is empty")
        return self._timestamps[0], self._timestamps[n - 1]


class Topic:
    """Handle for one topic; all log operations live here."""

    def __init__(self, config: TopicConfig):
        self.config = config
        self._partitions = [_Partition() for _ in range(config.partitions)]

    @property
    def name(self) -> str:
        return self.config.name

    def _partition(self, index: int) -> _Partition:
        if not 0 <= index < len(self._partitions):
            raise InvalidPartitionError(
                f"topic {self.name!r} has no partition {index}"
            )
        return self._partitions[index]

    def append(self, partition: int, payload: bytes) -> tuple[int, int]:
        """Append a payload and return (offset, append_ts). The entry is
        readable when the call returns, so appends from one producer
        keep their order."""
        return self._partition(partition).append(bytes(payload))

    def read(self, partition: int, from_offset: int, max_count: int) -> list[LogEntry]:
        """Return entries [from_offset, from_offset+max_count) without
        blocking; empty list at end of log."""
        return self._partition(partition).read(from_offset, max_count)

    def boundary_timestamps(self, partition: int) -> tuple[int, int]:
        """(append_ts of first entry, append_ts of last entry)."""
        return self._partition(partition).boundary_timestamps()

    def high_water_mark(self, partition: int) -> int:
        return len(self._partition(partition))


class LogBroker:
    """Registry of topics; no networking, persistence, or replication."""

    def __init__(self):
        self._topics: dict[str, Topic] = {}
        self._lock = threading.Lock()

    def create_topic(self, config: TopicConfig) -> Topic:
        with self._lock:
            if config.name in self._topics:
                raise DuplicateTopicError(f"topic {config.name!r} already exists")
            topic = Topic(config)
            self._topics[config.name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(f"no topic named {name!r}") from None

    def has_topic(self, name: str) -> bool:
        return name in self._topics

    def topic_names(self) -> list[str]:
        return sorted(self._topics)
