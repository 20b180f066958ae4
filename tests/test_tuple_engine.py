import sys
import threading
from collections import Counter

import pytest

from streamlab import tuple_engine
from streamlab.broker import Topic, TopicConfig
from streamlab.microbatch import MicrobatchEngine
from streamlab.topology import OperatorFailure, TopologyError
from streamlab.tuple_engine import TupleEngine


@pytest.fixture
def engine(ingested_broker):
    return TupleEngine(ingested_broker)


def out_topic(broker, name="out"):
    broker.create_topic(TopicConfig(name))
    return name


def read_all(broker, topic):
    t = broker.topic(topic)
    return [e.payload for e in t.read(0, 0, t.high_water_mark(0))]


def test_build_rejects_end_offset_beyond_hwm(engine):
    with pytest.raises(TopologyError):
        engine.build("input", 999_999)


def test_identity_p1_in_order_and_byte_identical(ingested_broker, engine, default_payloads):
    out = out_topic(ingested_broker)
    topo = engine.build("input", len(default_payloads)).sink_write(out).build()
    report = engine.execute(topo, parallelism=1)
    assert report.records_in == len(default_payloads)
    assert report.records_out == len(default_payloads)
    assert read_all(ingested_broker, out) == default_payloads


def test_grep_filter_count_matches_corpus_scan(ingested_broker, engine, default_payloads):
    out = out_topic(ingested_broker)
    expected = [p for p in default_payloads if b"test" in p]
    topo = (
        engine.build("input", len(default_payloads))
        .filter(lambda v: b"test" in v)
        .sink_write(out)
        .build()
    )
    report = engine.execute(topo, parallelism=1)
    assert report.records_out == len(expected) == 30
    assert read_all(ingested_broker, out) == expected
    assert report.operator_invocations["filter"] == report.records_in
    assert report.operator_invocations["sink"] == report.records_out


def test_p2_identity_multiset_preserved(ingested_broker, engine, default_payloads):
    out = out_topic(ingested_broker)
    topo = engine.build("input", len(default_payloads)).sink_write(out).build()
    report = engine.execute(topo, parallelism=2)
    assert report.records_in == len(default_payloads)
    assert Counter(read_all(ingested_broker, out)) == Counter(default_payloads)


def test_no_lane_loses_an_update_under_fast_switching(
    ingested_broker, engine, default_payloads, run_with_timeout
):
    # more lanes than cores, with the interpreter switching threads
    # every 10 us instead of every 5 ms
    n = len(default_payloads)
    out = out_topic(ingested_broker)
    topo = engine.build("input", n).map(lambda v: v, name="head").sink_write(out).build()
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        finished, raised = run_with_timeout(lambda: reports.append(engine.execute(topo, 4)))
    finally:
        sys.setswitchinterval(interval)
    assert finished and raised is None
    (report,) = reports
    assert report.records_out == report.operator_invocations["head"] == n
    assert Counter(read_all(ingested_broker, out)) == Counter(default_payloads)


def test_exactly_once_at_chain_head_across_lanes(ingested_broker, engine, default_payloads):
    n = len(default_payloads)
    for p in (1, 2, 3):
        out = out_topic(ingested_broker, f"out-p{p}")
        topo = (
            engine.build("input", n)
            .map(lambda v: v, name="head")
            .sink_write(out)
            .build()
        )
        report = engine.execute(topo, parallelism=p)
        assert report.operator_invocations["head"] == n


def test_chaining_k_calls_zero_handoffs(ingested_broker, engine):
    out = out_topic(ingested_broker)
    n = 1000
    topo = (
        engine.build("input", n)
        .map(lambda v: v, name="m1")
        .map(lambda v: v, name="m2")
        .map(lambda v: v, name="m3")
        .sink_write(out)
        .build()
    )
    report = engine.execute(topo, parallelism=1)
    # k function calls per element
    total_fn_calls = sum(
        report.operator_invocations[name] for name in ("m1", "m2", "m3")
    )
    assert total_fn_calls == 3 * n


def test_operator_failure_names_node(ingested_broker, engine):
    def boom(v):
        raise ValueError("bad payload")

    for p in (1, 2):
        out = out_topic(ingested_broker, f"out-fail-{p}")
        topo = engine.build("input", 100).map(boom, name="exploder").sink_write(out).build()
        with pytest.raises(OperatorFailure) as exc:
            engine.execute(topo, parallelism=p)
        assert exc.value.node == "exploder"
        assert "exploder" in str(exc.value)


def test_plan_shapes(engine):
    grep = engine.build("input", 10).filter(lambda v: True).sink_write("out").build()
    plan = engine.plan(grep, 1)
    assert [n.name for n in plan.nodes] == ["source", "filter", "sink"]
    assert all(n.parallelism == 1 for n in plan.nodes)

    identity = engine.build("input", 10).sink_write("out").build()
    assert len(engine.plan(identity, 1).nodes) == 2


def test_execute_validates_parallelism(engine):
    topo = engine.build("input", 10).sink_write("out-p").build()
    with pytest.raises(ValueError):
        engine.execute(topo, parallelism=0)


def test_empty_source_range(ingested_broker, engine):
    out = out_topic(ingested_broker)
    topo = engine.build("input", 0).sink_write(out).build()
    report = engine.execute(topo, parallelism=1)
    assert report.records_in == 0
    assert report.records_out == 0


def test_p1_reads_on_the_calling_thread_and_starts_no_thread(
    ingested_broker, engine, monkeypatch
):
    real_read = Topic.read_payloads
    real_start = threading.Thread.start
    readers, started = set(), []

    def read(self, partition, from_offset, max_count):
        readers.add(threading.current_thread())
        return real_read(self, partition, from_offset, max_count)

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(Topic, "read_payloads", read)
    monkeypatch.setattr(threading.Thread, "start", start)
    # the micro-batch engine runs its one lane, barrier and reads there too
    for engine in (engine, MicrobatchEngine(ingested_broker)):
        out = out_topic(ingested_broker, f"out-{type(engine).__name__}")
        topo = engine.build("input", 2503).sink_write(out).build()
        assert engine.execute(topo, parallelism=1).records_out == 2503
        assert readers == {threading.current_thread()}
        assert started == []


def test_failing_source_read_ends_every_lane(
    ingested_broker, engine, failing_read, run_with_timeout
):
    # each lane reads the source itself, and only the first read of all
    # returns a chunk: one lane fails on its first read, and the other
    # stops or fails before its second chunk
    topo = engine.build("input", 3000).sink_write(out_topic(ingested_broker)).build()
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism=2))
    assert finished
    assert isinstance(raised, OSError)
    assert not [t for t in threading.enumerate() if t.name.startswith("tuple-lane-")]


@pytest.mark.parametrize("p", [2, 3])
def test_lane_k_gets_exactly_the_offsets_k_mod_p(
    ingested_broker, engine, default_payloads, monkeypatch, p
):
    # 1001-record chunks: neither p divides a chunk, so each chunk starts
    # a lane's slice at a different position
    monkeypatch.setattr(tuple_engine, "_READ_CHUNK", 1001)
    n = 2503
    seen = []

    def tag(v, i):
        seen.append((threading.current_thread().name, i, v))
        return v

    topo = (
        engine.build("input", n).map(tag, with_index=True)
        .sink_write(out_topic(ingested_broker)).build()
    )
    assert engine.execute(topo, parallelism=p).records_out == n
    by_lane = {}
    for lane, i, v in seen:
        assert v == default_payloads[i]
        by_lane.setdefault(lane, []).append(i)
    assert by_lane == {f"tuple-lane-{k}": list(range(k, n, p)) for k in range(p)}


@pytest.mark.parametrize("p", [2, 3])
def test_every_lane_reads_the_source_range_itself(
    ingested_broker, engine, monkeypatch, p
):
    real_read = Topic.read_payloads
    reads = []  # (thread, offset, count)

    def read(self, partition, from_offset, max_count):
        payloads = real_read(self, partition, from_offset, max_count)
        reads.append((threading.current_thread().name, from_offset, len(payloads)))
        return payloads

    monkeypatch.setattr(Topic, "read_payloads", read)
    n = 2503
    topo = engine.build("input", n).sink_write(out_topic(ingested_broker)).build()
    assert engine.execute(topo, parallelism=p).records_out == n
    by_thread = {}
    for thread, offset, size in reads:
        by_thread.setdefault(thread, []).append((offset, size))
    assert set(by_thread) == {f"tuple-lane-{k}" for k in range(p)}  # none by MainThread
    for lane_reads in by_thread.values():
        offsets = [offset for offset, _ in lane_reads]
        sizes = [size for _, size in lane_reads]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == n
        assert max(sizes) <= tuple_engine._READ_CHUNK


def test_a_failing_lane_stops_the_others_before_their_next_chunk(
    ingested_broker, engine, run_with_timeout
):
    lane_0_failed = threading.Event()
    lane_1_calls = []

    def fail_on_lane_0(v):
        if threading.current_thread().name == "tuple-lane-0":
            lane_0_failed.set()
            raise ValueError("lane 0 failed")
        # lane 1 starts its first slice only once lane 0 is failing
        lane_0_failed.wait(5)
        lane_1_calls.append(v)
        return v

    topo = (
        engine.build("input", 10001).map(fail_on_lane_0, name="exploder")
        .sink_write(out_topic(ingested_broker)).build()
    )
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism=2))
    assert finished
    assert lane_0_failed.is_set()
    assert isinstance(raised, OperatorFailure)
    assert (raised.node, raised.index) == ("exploder", 0)
    # lane 1 ends the slice it holds, and at most one more
    slice_len = -(-tuple_engine._READ_CHUNK // 2)
    assert len(lane_1_calls) <= 2 * slice_len
