import threading
from collections import Counter

import pytest

from streamlab.broker import Topic, TopicConfig
from streamlab.microbatch import BatchPolicy, MicrobatchEngine
from streamlab.topology import OperatorFailure
from streamlab.tuple_engine import TupleEngine


def out_topic(broker, name="out"):
    broker.create_topic(TopicConfig(name))
    return name


def read_all(broker, topic):
    t = broker.topic(topic)
    return [e.payload for e in t.read(0, 0, t.high_water_mark(0))]


@pytest.fixture
def input_reads(monkeypatch, ingested_broker):
    """Record each read of the "input" topic as (payloads returned, high-
    water mark of the "out" topic when the read was made)."""
    real_read = Topic.read_payloads
    reads = []

    def read(self, partition, from_offset, max_count):
        payloads = real_read(self, partition, from_offset, max_count)
        if self.name == "input":
            reads.append((len(payloads), ingested_broker.topic("out").high_water_mark(0)))
        return payloads

    monkeypatch.setattr(Topic, "read_payloads", read)
    return reads


def test_policy_validation():
    with pytest.raises(ValueError, match="must be positive"):
        BatchPolicy(max_batch_size=0)
    assert BatchPolicy().max_batch_size == 1000


def test_batch_count_ceiling(ingested_broker, default_payloads):
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(1000))
    out = out_topic(ingested_broker)
    topo = engine.build("input", len(default_payloads)).sink_write(out).build()
    report = engine.execute(topo, parallelism=1)
    assert report.batches == 11  # 10 full batches plus one of size 1
    assert report.records_in == 10001
    assert report.records_out == 10001


def test_identity_output_order_at_p1(ingested_broker, default_payloads):
    engine = MicrobatchEngine(ingested_broker)
    out = out_topic(ingested_broker)
    topo = engine.build("input", len(default_payloads)).sink_write(out).build()
    engine.execute(topo, parallelism=1)
    assert read_all(ingested_broker, out) == default_payloads


def test_inter_batch_ordering(ingested_broker, default_payloads):
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(500))
    out = out_topic(ingested_broker)
    topo = engine.build("input", len(default_payloads)).sink_write(out).build()
    report = engine.execute(topo, parallelism=2)
    bounds = report.batch_sink_bounds
    assert bounds is not None and len(bounds) == report.batches
    for (first_i, last_i), (first_j, _) in zip(bounds, bounds[1:]):
        assert first_i <= last_i
        assert first_j > last_i
    total = sum(last - first + 1 for first, last in bounds)
    assert total == report.records_out == len(default_payloads)


def test_cross_engine_grep_equivalence(ingested_broker, default_payloads):
    n = len(default_payloads)
    tuple_out = out_topic(ingested_broker, "out-tuple")
    te = TupleEngine(ingested_broker)
    te_topo = te.build("input", n).filter(lambda v: b"test" in v).sink_write(tuple_out).build()
    te.execute(te_topo, parallelism=1)

    mb_out = out_topic(ingested_broker, "out-mb")
    mb = MicrobatchEngine(ingested_broker)
    mb_topo = mb.build("input", n).filter(lambda v: b"test" in v).sink_write(mb_out).build()
    mb.execute(mb_topo, parallelism=2)

    assert Counter(read_all(ingested_broker, mb_out)) == Counter(
        read_all(ingested_broker, tuple_out)
    )


def test_batch_conservation_under_parallelism(ingested_broker, default_payloads):
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(300))
    out = out_topic(ingested_broker)
    topo = engine.build("input", len(default_payloads)).sink_write(out).build()
    report = engine.execute(topo, parallelism=3)
    assert report.batches == (10001 + 299) // 300
    assert report.records_in == 10001
    assert Counter(read_all(ingested_broker, out)) == Counter(default_payloads)


def test_operator_failure_propagates(ingested_broker):
    engine = MicrobatchEngine(ingested_broker)
    out = out_topic(ingested_broker)

    def boom(v):
        raise RuntimeError("nope")

    topo = engine.build("input", 50).map(boom, name="bad").sink_write(out).build()
    with pytest.raises(OperatorFailure) as exc:
        engine.execute(topo, parallelism=2)
    assert exc.value.node == "bad"


def test_plan_annotated_microbatch(ingested_broker):
    engine = MicrobatchEngine(ingested_broker)
    topo = engine.build("input", 10).filter(lambda v: True).sink_write("x").build()
    plan = engine.plan(topo, 2)
    assert [n.name for n in plan.nodes] == ["source", "filter", "sink"]
    assert all(n.annotation == "microbatch" for n in plan.nodes)
    assert all(n.parallelism == 2 for n in plan.nodes)


def test_failing_source_read_raises_instead_of_hanging(
    ingested_broker, failing_read, run_with_timeout
):
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(100))
    topo = engine.build("input", 1000).sink_write(out_topic(ingested_broker)).build()
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism=2))
    assert finished
    assert isinstance(raised, OSError)


def test_failing_operator_stops_reading_and_names_the_first_element(
    ingested_broker, input_reads
):
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(100))
    out = out_topic(ingested_broker)

    def boom(v):
        raise RuntimeError("nope")

    topo = engine.build("input", 10001).map(boom, name="bad").sink_write(out).build()
    with pytest.raises(OperatorFailure) as exc:
        engine.execute(topo, parallelism=2)
    assert exc.value.index == 0
    assert input_reads == [(100, 0)]


def test_a_failing_lane_ends_its_batch_with_the_others_and_no_later_batch_is_read(
    ingested_broker, input_reads, run_with_timeout
):
    # only lane 1 fails, on element 151 of the second batch: lane 0 still
    # drains its 50 elements of that batch, and no third batch is read
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(100))

    def boom_at_151(v, i):
        if i == 151:
            raise RuntimeError("nope")
        return v

    topo = (
        engine.build("input", 10001).map(boom_at_151, name="bad", with_index=True)
        .sink_write(out_topic(ingested_broker)).build()
    )
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism=2))
    assert finished
    assert isinstance(raised, OperatorFailure)
    assert (raised.node, raised.index) == ("bad", 151)
    assert input_reads == [(100, 0), (100, 100)]
    # the first batch, lane 0's 50 of the second and lane 1's 25 before 151
    assert ingested_broker.topic("out").high_water_mark(0) == 175


def test_each_batch_is_read_after_the_previous_one_is_sunk(ingested_broker, input_reads):
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(100))
    topo = engine.build("input", 10001).sink_write(out_topic(ingested_broker)).build()
    report = engine.execute(topo, parallelism=2)
    assert report.batches == len(input_reads) == 101
    assert [hwm for _, hwm in input_reads] == [100 * k for k in range(101)]


@pytest.mark.parametrize(
    "end_offset, parallelism, batches, bounds", [(0, 2, 0, []), (1, 3, 1, [(0, 0)])]
)
def test_batch_accounting_at_the_edges(
    ingested_broker, end_offset, parallelism, batches, bounds
):
    engine = MicrobatchEngine(ingested_broker)
    topo = engine.build("input", end_offset).sink_write(out_topic(ingested_broker)).build()
    report = engine.execute(topo, parallelism=parallelism)
    assert report.batches == batches
    assert report.batch_sink_bounds == bounds
    assert report.records_out == end_offset


def test_partition_k_of_each_batch_gets_the_offsets_k_mod_p(
    ingested_broker, default_payloads
):
    # 1001-record batches start at offsets 0, 1001 and 2002, which are 0,
    # 1 and 0 mod 2 and 0, 2 and 1 mod 3, so a batch can start partition 0
    # at a different position within it
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(1001))
    n = 2503
    for p in (2, 3):
        seen = []

        def tag(v, i):
            seen.append((threading.current_thread().name, i, v))
            return v

        topo = (
            engine.build("input", n).map(tag, with_index=True)
            .sink_write(out_topic(ingested_broker, f"out-p{p}")).build()
        )
        report = engine.execute(topo, parallelism=p)
        assert report.records_out == n
        assert report.batches == 3
        by_lane = {}
        for lane, i, v in seen:
            assert v == default_payloads[i]
            by_lane.setdefault(lane, []).append(i)
        assert by_lane == {f"microbatch-lane-{k}": list(range(k, n, p)) for k in range(p)}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("engine_cls", [TupleEngine, MicrobatchEngine])
def test_empty_range_reports_every_node_at_zero(ingested_broker, engine_cls, p):
    engine = engine_cls(ingested_broker)
    topo = (
        engine.build("input", 0).map(lambda v: v, name="m")
        .sink_write(out_topic(ingested_broker)).build()
    )
    report = engine.execute(topo, parallelism=p)
    assert report.operator_invocations == {"m": 0, "sink": 0}


def test_single_element_batches_skip_empty_partitions(ingested_broker, default_payloads):
    # two of the three partitions of each batch are empty: their lanes
    # drain nothing and meet the third at the batch's barrier
    engine = MicrobatchEngine(ingested_broker, BatchPolicy(1))
    out = out_topic(ingested_broker)
    topo = engine.build("input", 50).sink_write(out).build()
    report = engine.execute(topo, parallelism=3)
    assert report.batches == 50
    assert read_all(ingested_broker, out) == default_payloads[:50]
