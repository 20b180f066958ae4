import random

import pytest

from streamlab.broker import LogBroker, Topic, TopicConfig
from streamlab.microbatch import MicrobatchEngine
from streamlab.plan import plan_from_topology, plan_to_text
from streamlab.topology import (
    OperatorFailure,
    TopologyBuilder,
    TopologyError,
    run_chain,
)
from streamlab.tuple_engine import TupleEngine


def linear_builder(n_ops=1):
    b = TopologyBuilder("input", 10)
    for k in range(n_ops):
        b.map(lambda x: x, name=f"m{k}")
    return b


class TestBuilder:
    def test_chain_and_default_names(self):
        topo = (
            TopologyBuilder("input", 10)
            .filter(lambda x: True)
            .sink_write("out")
            .build()
        )
        assert topo.node_names() == ["source", "filter", "sink"]
        assert topo.sink_topic == "out"
        assert topo.end_offset == 10

    def test_identity_topology_two_nodes(self):
        topo = TopologyBuilder("input", 10).sink_write("out").build()
        assert topo.node_names() == ["source", "sink"]

    def test_finalize_without_sink(self):
        with pytest.raises(TopologyError, match="has no sink"):
            linear_builder().build()

    def test_duplicate_default_name_rejected(self):
        b = TopologyBuilder("input", 10).map(lambda x: x)
        with pytest.raises(TopologyError, match="duplicate node name 'map'"):
            b.map(lambda x: x)

    def test_explicit_duplicate_name_rejected(self):
        b = TopologyBuilder("input", 10).map(lambda x: x, name="stage")
        with pytest.raises(TopologyError):
            b.map(lambda x: x, name="stage")

    def test_no_operators_after_sink(self):
        b = TopologyBuilder("input", 10).sink_write("out")
        with pytest.raises(TopologyError):
            b.map(lambda x: x)
        with pytest.raises(TopologyError):
            b.sink_write("other")

    def test_invalid_names_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder("input", 10).map(lambda x: x, name="has space")
        with pytest.raises(TopologyError):
            TopologyBuilder("input", 10, source_name="bad name")
        with pytest.raises(TopologyError):
            TopologyBuilder("input", 10).map(lambda x: x, name="trailing\n")

    def test_negative_end_offset(self):
        with pytest.raises(TopologyError):
            TopologyBuilder("input", -1)


class TestRunChain:
    def test_counts_and_filtering(self):
        topo = (
            TopologyBuilder("input", 3)
            .map(lambda v: v + b"!", name="excite")
            .filter(lambda v: v.startswith(b"keep"), name="keep")
            .sink_write("out")
            .build()
        )
        invocations = {op.name: 0 for op in topo.operators}
        out = []
        for i, payload in enumerate([b"keep-a", b"drop-b", b"keep-c"]):
            out.extend(run_chain(topo.operators[:-1], i, payload, invocations))
        assert out == [b"keep-a!", b"keep-c!"]
        assert invocations["excite"] == 3
        assert invocations["keep"] == 3
        assert invocations["sink"] == 0  # drain, not run_chain, counts the sink

    def test_flat_map_fan_out(self):
        topo = (
            TopologyBuilder("input", 1)
            .flat_map(lambda v: [v, v], name="dup")
            .map(lambda v: v.upper(), name="up")
            .sink_write("out")
            .build()
        )
        invocations = {op.name: 0 for op in topo.operators}
        out = run_chain(topo.operators[:-1], 0, b"x", invocations)
        assert out == [b"X", b"X"]
        assert invocations["dup"] == 1
        assert invocations["up"] == 2

    # (builder method, with_index, user function, outputs of payload
    # b"ab" at index 1, then at index 2). Each function fails on b"boom".
    NODE_CASES = [
        ("map", False, lambda v: v.upper() if v != b"boom" else 1 / 0,
         [b"AB"], [b"AB"]),
        ("map", True, lambda v, i: v * i if v != b"boom" else 1 / 0,
         [b"ab"], [b"abab"]),
        ("filter", False, lambda v: v.startswith(b"a") if v != b"boom" else 1 / 0,
         [b"ab"], [b"ab"]),
        ("filter", True, lambda v, i: i % 2 == 1 if v != b"boom" else 1 / 0,
         [b"ab"], []),
        ("flat_map", False, lambda v: [v, v[:1]] if v != b"boom" else 1 / 0,
         [b"ab", b"a"], [b"ab", b"a"]),
        ("flat_map", True, lambda v, i: [v] * i if v != b"boom" else 1 / 0,
         [b"ab"], [b"ab", b"ab"]),
    ]

    @pytest.mark.parametrize(
        "method, with_index, fn, at_1, at_2", NODE_CASES,
        ids=[f"{c[0]}{'-with_index' if c[1] else ''}" for c in NODE_CASES],
    )
    def test_node_outputs_and_failure(self, method, with_index, fn, at_1, at_2):
        builder = getattr(TopologyBuilder("input", 3), method)
        topo = builder(fn, name="node", with_index=with_index).sink_write("out").build()
        chain = topo.operators[:-1]
        invocations = {"node": 0}
        assert run_chain(chain, 1, b"ab", invocations) == at_1
        assert run_chain(chain, 2, b"ab", invocations) == at_2
        assert invocations["node"] == 2
        with pytest.raises(OperatorFailure) as info:
            run_chain(chain, 7, b"boom", invocations)
        assert (info.value.node, info.value.index) == ("node", 7)
        assert isinstance(info.value.cause, ZeroDivisionError)

    def test_generators_on_the_one_value_and_the_many_value_path(self):
        # "halves" sees one value and fans out; "again" then sees two.
        topo = (
            TopologyBuilder("input", 1)
            .flat_map(lambda v: (v[:k] for k in (1, 2)), name="halves")
            .flat_map(lambda v: (w for w in (v, v.upper())), name="again")
            .sink_write("out")
            .build()
        )
        invocations = {op.name: 0 for op in topo.operators}
        out = run_chain(topo.operators[:-1], 0, b"ab", invocations)
        assert type(out) is list
        assert out == [b"a", b"A", b"ab", b"AB"]
        assert invocations == {"halves": 1, "again": 2, "sink": 0}

    @pytest.mark.parametrize("fan_out", [1, 3], ids=["one-value", "many-value"])
    def test_generator_failing_partway_names_node_and_index(self, fan_out):
        def partial(v):
            yield v
            raise ValueError("halfway")

        chain = (
            TopologyBuilder("input", 1)
            .flat_map(lambda v: [v] * fan_out, name="fan")
            .flat_map(partial, name="partial")
            .sink_write("out")
            .build()
            .operators[:-1]
        )
        invocations = {"fan": 0, "partial": 0}
        with pytest.raises(OperatorFailure) as info:
            run_chain(chain, 4, b"x", invocations)
        assert (info.value.node, info.value.index) == ("partial", 4)
        assert isinstance(info.value.cause, ValueError)
        assert invocations == {"fan": 1, "partial": fan_out}

    @pytest.mark.parametrize("payload, expected", [(b"keep", [b"keep"]), (b"drop", [])])
    def test_returns_a_list(self, payload, expected):
        chain = (
            TopologyBuilder("input", 1)
            .filter(lambda v: v == b"keep")
            .sink_write("out")
            .build()
            .operators[:-1]
        )
        out = run_chain(chain, 0, payload, {"filter": 0})
        assert type(out) is list and out == expected


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("engine_cls", [TupleEngine, MicrobatchEngine])
def test_engines_never_build_log_entries(engine_cls, parallelism, monkeypatch):
    # Topic.read builds a LogEntry per record; the engines read payloads
    # only. 2,503 records span several tuple chunks and micro-batches,
    # the last one partial, so the tagged indices check every chunk's
    # start offset.
    payloads = [b"r%d" % i for i in range(2503)]
    broker = LogBroker()
    source = broker.create_topic(TopicConfig("input"))
    for payload in payloads:
        source.append(0, payload)
    sink = broker.create_topic(TopicConfig("out"))

    def no_read(self, partition, from_offset, max_count):
        raise AssertionError("Topic.read called")

    monkeypatch.setattr(Topic, "read", no_read)
    engine = engine_cls(broker)
    topo = (
        engine.build("input", len(payloads))
        .map(lambda v, i: b"%d:" % i + v, with_index=True)
        .sink_write("out")
        .build()
    )
    report = engine.execute(topo, parallelism)
    assert report.records_out == len(payloads)
    written = sink.read_payloads(0, 0, sink.high_water_mark(0))
    assert sorted(written) == sorted(b"%d:" % i + p for i, p in enumerate(payloads))


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("engine_cls", [TupleEngine, MicrobatchEngine])
def test_source_shorter_than_end_offset_raises(engine_cls, parallelism, run_with_timeout):
    # Engine.build guards end_offset; a topology built directly does not.
    broker = LogBroker()
    broker.create_topic(TopicConfig("input")).append(0, b"only")
    broker.create_topic(TopicConfig("out"))
    topo = TopologyBuilder("input", 5).sink_write("out").build()
    finished, raised = run_with_timeout(
        lambda: engine_cls(broker).execute(topo, parallelism)
    )
    assert finished
    assert isinstance(raised, TopologyError)
    assert "'input'" in str(raised) and "offset 1" in str(raised) and "5" in str(raised)


class TestPlan:
    def test_node_count_matches_topology_for_random_topologies(self):
        rng = random.Random(99)
        for _ in range(100):
            n_ops = rng.randint(0, 8)
            b = TopologyBuilder("input", rng.randint(0, 50))
            for k in range(n_ops):
                kind = rng.choice(["map", "flat_map", "filter"])
                getattr(b, kind)(lambda x: x, name=f"op{k}")
            topo = b.sink_write("out").build()
            p = rng.randint(1, 4)
            plan = plan_from_topology(topo, p)
            assert len(plan.nodes) == len(topo.node_names()) == n_ops + 2
            assert len(plan.edges) == len(plan.nodes) - 1
            assert all(node.parallelism == p for node in plan.nodes)

    def test_dump_format_exact(self):
        topo = (
            TopologyBuilder("input", 10)
            .filter(lambda x: True)
            .sink_write("out")
            .build()
        )
        text = plan_to_text(plan_from_topology(topo, 1))
        assert text == (
            "node 0 source parallelism=1\n"
            "node 1 filter parallelism=1\n"
            "node 2 sink parallelism=1\n"
            "edge 0 1\n"
            "edge 1 2\n"
        )

    def test_dump_byte_deterministic(self):
        topo = linear_builder(2).sink_write("out").build()
        a = plan_to_text(plan_from_topology(topo, 2))
        b = plan_to_text(plan_from_topology(topo, 2))
        assert a.encode() == b.encode()
