import threading

import pytest

from streamlab.broker import LogBroker, Topic, TopicConfig
from streamlab.corpus import CorpusSpec, generate_corpus, send, serialize_record

DEFAULT_N = 10001


def verify_broker_coherence(broker):
    """Every topic: offsets dense from 0, append timestamps
    non-decreasing in offset order."""
    for name in broker.topic_names():
        topic = broker.topic(name)
        n = topic.high_water_mark(0)
        entries = topic.read(0, 0, n)
        assert [e.offset for e in entries] == list(range(n)), name
        for a, b in zip(entries, entries[1:]):
            assert a.append_ts <= b.append_ts, name


@pytest.fixture(autouse=True)
def no_engine_thread_outlives_a_test():
    """Every lane and worker thread an engine starts has ended by the
    time execute returns or raises."""
    yield
    alive = [
        t.name for t in threading.enumerate()
        if t.name.startswith(("tuple-lane-", "ThreadPoolExecutor"))
    ]
    assert alive == []


@pytest.fixture
def failing_read(monkeypatch):
    """Make every Topic.read_payloads after the first raise OSError."""
    real_read = Topic.read_payloads
    calls = []

    def read(self, partition, from_offset, max_count):
        calls.append(from_offset)
        if len(calls) > 1:
            raise OSError("read failed")
        return real_read(self, partition, from_offset, max_count)

    monkeypatch.setattr(Topic, "read_payloads", read)


@pytest.fixture
def run_with_timeout():
    """A runner that calls fn in a daemon thread, so that a hang fails
    the test instead of blocking the suite. It returns whether fn
    finished within timeout_s, and the exception fn raised or None."""

    def run(fn, timeout_s=10):
        raised = []

        def target():
            try:
                fn()
            except Exception as exc:
                raised.append(exc)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout_s)
        return not thread.is_alive(), raised[0] if raised else None

    return run


@pytest.fixture(scope="session")
def default_spec():
    return CorpusSpec(n_records=DEFAULT_N)


@pytest.fixture(scope="session")
def default_records(default_spec):
    return generate_corpus(default_spec)


@pytest.fixture(scope="session")
def default_payloads(default_records):
    return [serialize_record(r) for r in default_records]


@pytest.fixture
def ingested_broker(default_payloads):
    broker = LogBroker()
    broker.create_topic(TopicConfig("input"))
    send(default_payloads, broker, "input")
    yield broker
    verify_broker_coherence(broker)
