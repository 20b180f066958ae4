import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from streamlab.broker import BrokerError, LogBroker, TopicConfig, clock_ms


@pytest.fixture
def broker():
    return LogBroker()


def assert_log_coherent(topic, partition=0):
    """Offsets dense from 0, timestamps non-decreasing in offset order."""
    entries = topic.read(partition, 0, topic.high_water_mark(partition))
    for i, entry in enumerate(entries):
        assert entry.offset == i
    for a, b in zip(entries, entries[1:]):
        assert a.append_ts <= b.append_ts


def test_create_topic_starts_empty(broker):
    topic = broker.create_topic(TopicConfig("input", partitions=1))
    assert topic.high_water_mark(0) == 0


def test_create_topic_duplicate_name(broker):
    broker.create_topic(TopicConfig("input"))
    with pytest.raises(BrokerError, match="already exists"):
        broker.create_topic(TopicConfig("input"))


def test_drop_topic(broker):
    with pytest.raises(BrokerError, match="no topic named"):
        broker.drop_topic("out")
    kept = broker.create_topic(TopicConfig("input"))
    kept.append(0, b"kept")
    broker.create_topic(TopicConfig("out")).append(0, b"dropped")
    broker.drop_topic("out")
    assert broker.topic_names() == ["input"]
    assert not broker.has_topic("out")
    with pytest.raises(BrokerError, match="no topic named"):
        broker.drop_topic("out")
    # the name is free again, for a new, empty log
    assert broker.create_topic(TopicConfig("out")).high_water_mark(0) == 0
    assert broker.topic("input") is kept
    assert kept.read_payloads(0, 0, 10) == [b"kept"]


def test_appends_get_dense_offsets(broker):
    topic = broker.create_topic(TopicConfig("out-run-3", partitions=1))
    offsets = [topic.append(0, b"payload-%d" % i)[0] for i in range(5)]
    assert offsets == [0, 1, 2, 3, 4]
    assert_log_coherent(topic)


def test_sequential_appends_monotone_timestamps(broker):
    topic = broker.create_topic(TopicConfig("t"))
    off1, ts1 = topic.append(0, b"a")
    off2, ts2 = topic.append(0, b"b")
    assert (off1, off2) == (0, 1)
    assert ts1 <= ts2


def test_append_to_unknown_topic(broker):
    with pytest.raises(BrokerError, match="no topic named"):
        broker.topic("nope")


def test_append_invalid_partition(broker):
    topic = broker.create_topic(TopicConfig("t", partitions=1))
    with pytest.raises(BrokerError, match="has no partition"):
        topic.append(1, b"x")
    with pytest.raises(BrokerError, match="has no partition"):
        topic.append(-1, b"x")


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t.read(1, 0, 1),
        lambda t: t.read_payloads(1, 0, 1),
        lambda t: t.boundary_timestamps(1),
        lambda t: t.high_water_mark(1),
    ],
    ids=["read", "read_payloads", "boundary_timestamps", "high_water_mark"],
)
def test_read_side_rejects_partition_1(broker, call):
    topic = broker.create_topic(TopicConfig("t"))
    topic.append(0, b"x")
    with pytest.raises(BrokerError, match="has no partition"):
        call(topic)


def test_payload_round_trip_and_immutability(broker):
    topic = broker.create_topic(TopicConfig("t"))
    buf = bytearray(b"mutate me")
    topic.append(0, buf)
    buf[0:6] = b"MUTATE"
    [entry] = topic.read(0, 0, 1)
    assert entry.payload == b"mutate me"


@pytest.mark.parametrize("make", [memoryview, type("Payload", (bytes,), {})],
                         ids=["memoryview", "bytes-subclass"])
def test_append_stores_an_exact_bytes_copy(broker, make):
    topic = broker.create_topic(TopicConfig("t"))
    buf = bytearray(b"mutate me")
    topic.append(0, make(buf))
    buf[0:6] = b"MUTATE"
    [payload] = topic.read_payloads(0, 0, 1)
    assert type(payload) is bytes
    assert payload == b"mutate me"


def test_append_stores_exact_bytes_as_is(broker):
    topic = broker.create_topic(TopicConfig("t"))
    payload = b"stored as is"
    topic.append(0, payload)
    assert topic.read_payloads(0, 0, 1)[0] is payload
    assert topic.read(0, 0, 1)[0].payload is payload


def test_read_basics(broker):
    topic = broker.create_topic(TopicConfig("t"))
    for i in range(3):
        topic.append(0, b"%d" % i)
    entries = topic.read(0, 0, 10)
    assert [e.payload for e in entries] == [b"0", b"1", b"2"]
    assert topic.read(0, 3, 10) == []
    assert topic.read(0, 1, 1)[0].payload == b"1"


def test_read_payloads_equals_the_payloads_of_read(broker):
    rng = random.Random(11)
    topic = broker.create_topic(TopicConfig("t"))
    for i in range(50):
        topic.append(0, b"p%d" % i)
    ranges = [(0, 0), (0, 50), (0, 60), (49, 1), (50, 3), (55, 2), (10, 0)]
    ranges += [(rng.randint(0, 55), rng.randint(0, 20)) for _ in range(200)]
    for start, count in ranges:
        expected = [e.payload for e in topic.read(0, start, count)]
        assert topic.read_payloads(0, start, count) == expected, (start, count)


@pytest.mark.parametrize("start, count", [(-1, 1), (0, -1)])
def test_read_payloads_rejects_negative_arguments(broker, start, count):
    topic = broker.create_topic(TopicConfig("t"))
    topic.append(0, b"x")
    with pytest.raises(ValueError):
        topic.read_payloads(0, start, count)


def test_read_payloads_returns_a_copy(broker):
    topic = broker.create_topic(TopicConfig("t"))
    for payload in (b"a", b"b", b"c"):
        topic.append(0, payload)
    got = topic.read_payloads(0, 0, 3)
    got[0] = b"changed"
    got.append(b"extra")
    del got[1]
    assert topic.read_payloads(0, 0, 10) == [b"a", b"b", b"c"]
    assert topic.high_water_mark(0) == 3


def test_append_stamp_is_the_clock_during_the_append(broker):
    topic = broker.create_topic(TopicConfig("t"))
    for _ in range(100):
        before = clock_ms()
        offset, ts = topic.append(0, b"x")
        after = clock_ms()
        assert before <= ts <= after
        assert topic.read(0, offset, 1)[0].append_ts == ts


def test_interleaved_appends_and_reads_replay():
    rng = random.Random(7)
    broker = LogBroker()
    topic = broker.create_topic(TopicConfig("t"))
    model = []
    cursor = 0
    seen = []
    for step in range(2000):
        if rng.random() < 0.5:
            payload = b"p%d" % step
            topic.append(0, payload)
            model.append(payload)
        else:
            got = topic.read(0, cursor, rng.randint(1, 5))
            seen.extend(e.payload for e in got)
            cursor += len(got)
    seen.extend(e.payload for e in topic.read(0, cursor, len(model)))
    assert seen == model  # each entry returned exactly once, in order


def test_boundary_timestamps_single_entry(broker):
    topic = broker.create_topic(TopicConfig("t"))
    topic.append(0, b"only")
    first, last = topic.boundary_timestamps(0)
    assert first == last


def test_boundary_timestamps_match_full_read(broker):
    topic = broker.create_topic(TopicConfig("t"))
    for i in range(100):
        topic.append(0, b"%d" % i)
    entries = topic.read(0, 0, 100)
    assert topic.boundary_timestamps(0) == (entries[0].append_ts, entries[-1].append_ts)


def test_boundary_timestamps_empty_partition(broker):
    topic = broker.create_topic(TopicConfig("t"))
    with pytest.raises(BrokerError, match="partition is empty"):
        topic.boundary_timestamps(0)


def test_high_water_mark(broker):
    topic = broker.create_topic(TopicConfig("t"))
    assert topic.high_water_mark(0) == 0
    for i in range(7):
        topic.append(0, b"x")
    assert topic.high_water_mark(0) == 7


def test_concurrent_producers_dense_offsets_and_monotone_ts():
    broker = LogBroker()
    topic = broker.create_topic(TopicConfig("stress"))
    per_producer = 2500
    producers = 4

    def produce(pid):
        for i in range(per_producer):
            topic.append(0, b"%d:%d" % (pid, i))

    threads = [threading.Thread(target=produce, args=(p,)) for p in range(producers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    total = producers * per_producer
    entries = topic.read(0, 0, total + 1)
    assert [e.offset for e in entries] == list(range(total))
    assert_log_coherent(topic)


def test_high_water_mark_stable_under_concurrent_reads():
    broker = LogBroker()
    topic = broker.create_topic(TopicConfig("t"))
    stop = threading.Event()
    violations = []

    def reader():
        last = 0
        while not stop.is_set():
            hwm = topic.high_water_mark(0)
            if hwm < last:
                violations.append(("hwm went backwards", last, hwm))
            start = max(0, hwm - 5)
            entries = topic.read(0, start, 5)
            if [e.offset for e in entries] != list(range(start, start + len(entries))):
                violations.append(("non-dense read", [e.offset for e in entries]))
            last = hwm

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for i in range(5000):
        topic.append(0, b"%d" % i)
    stop.set()
    for t in threads:
        t.join()
    assert violations == []
    assert topic.high_water_mark(0) == 5000


def test_topic_config_validation():
    with pytest.raises(ValueError):
        TopicConfig("")
    with pytest.raises(ValueError):
        TopicConfig("t", partitions=0)
    with pytest.raises(ValueError):
        TopicConfig("t", partitions=2)


def test_importing_broker_loads_no_other_layer():
    package = Path(__file__).resolve().parents[1] / "src" / "streamlab"
    # perfbench's program_present() refuses to run without this file
    assert (package / "__init__.py").is_file()
    code = (
        "import sys, streamlab.broker; "
        "print(sorted(m for m in ('streamlab.harness', 'streamlab.queries') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
