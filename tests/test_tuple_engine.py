import queue
import threading
import time
from collections import Counter

import pytest

from streamlab import tuple_engine
from streamlab.broker import TopicConfig
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
    assert report.lanes == 2
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


def test_failing_source_read_ends_every_lane(
    ingested_broker, engine, failing_read, run_with_timeout
):
    # the first read returns one chunk, so the lanes are busy when the
    # second read fails
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


def test_a_slow_lane_holds_the_reader_back(
    ingested_broker, engine, default_payloads, monkeypatch
):
    backlogs = []  # payloads queued in a lane's queue, after each put
    real_put = queue.Queue.put

    def put(self, item, block=True, timeout=None):
        real_put(self, item, block, timeout)
        with self.mutex:
            backlogs.append(sum(len(s[1]) for s in self.queue if s is not None))

    monkeypatch.setattr(queue.Queue, "put", put)

    def slow_on_lane_0(v):
        if threading.current_thread().name == "tuple-lane-0":
            time.sleep(0.0001)
        return v

    n = len(default_payloads)
    topo = (
        engine.build("input", n).map(slow_on_lane_0)
        .sink_write(out_topic(ingested_broker)).build()
    )
    assert engine.execute(topo, parallelism=2).records_out == n
    # a lane's queue holds at most two slices of ceil(chunk / p) payloads
    slice_len = -(-tuple_engine._READ_CHUNK // 2)
    assert 0 < max(backlogs) <= 2 * slice_len


def test_lane_failing_while_the_reader_waits_on_it(
    ingested_broker, engine, monkeypatch, run_with_timeout
):
    reader_waits = threading.Event()
    real_put = queue.Queue.put

    def put(self, item, block=True, timeout=None):
        # lane 0's slices start at even offsets
        if item is not None and item[0] % 2 == 0 and self.full():
            reader_waits.set()
        real_put(self, item, block, timeout)

    monkeypatch.setattr(queue.Queue, "put", put)

    def fail_on_lane_0(v):
        if threading.current_thread().name == "tuple-lane-0":
            reader_waits.wait(5)
            raise ValueError("lane 0 failed")
        return v

    topo = (
        engine.build("input", 10001).map(fail_on_lane_0, name="exploder")
        .sink_write(out_topic(ingested_broker)).build()
    )
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism=2))
    assert finished
    assert reader_waits.is_set()
    assert isinstance(raised, OperatorFailure)
    assert (raised.node, raised.index) == ("exploder", 0)
