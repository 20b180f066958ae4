import random
import types
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamlab.broker import LogBroker, Topic, TopicConfig
from streamlab.microbatch import MicrobatchEngine
from streamlab.plan import plan_from_topology, plan_to_text
from streamlab.topology import (
    MAX_FLAT_MAPS,
    OperatorFailure,
    OperatorSpec,
    TopologyBuilder,
    TopologyError,
    compile_drain,
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

    @pytest.mark.parametrize("with_index", [False, True])
    @pytest.mark.parametrize("method", ["map", "filter", "flat_map"])
    def test_nodes_keep_the_function_as_given(self, method, with_index):
        def fn(v, i=0):
            return v

        builder = getattr(TopologyBuilder("input", 1), method)
        topo = builder(fn, name="node", with_index=with_index).sink_write("out").build()
        assert topo.operators == (
            OperatorSpec("node", fn, method, with_index),
            OperatorSpec("sink", None, "sink"),
        )


def drain_record(chain, index, payload, invocations):
    """run_chain's signature over a compiled drain: one record through
    chain and a sink that collects it, adding the chain's counts to
    invocations, also when a node fails."""
    out = []
    counts = defaultdict(int)
    drain = compile_drain((*chain, OperatorSpec("collect", None, "sink")))
    try:
        drain([(index, payload)], lambda partition, value: out.append(value), counts)
    finally:
        for op in chain:
            invocations[op.name] += counts[op.name]
    assert counts["collect"] == len(out)
    return out


# Each case runs on the reference and on a compiled drain; the
# reference's cases keep the plain test ids.
RUNNERS = [(run_chain, ""), (drain_record, "-drain")]


def with_runners(cases, ids):
    return [
        pytest.param(run, *case, id=f"{case_id}{suffix}")
        for run, suffix in RUNNERS
        for case, case_id in zip(cases, ids)
    ]


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
        assert invocations["sink"] == 0  # the sink is not in the chain run_chain takes

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
        "run, method, with_index, fn, at_1, at_2",
        with_runners(NODE_CASES, [f"{c[0]}{'-with_index' if c[1] else ''}" for c in NODE_CASES]),
    )
    def test_node_outputs_and_failure(self, run, method, with_index, fn, at_1, at_2):
        builder = getattr(TopologyBuilder("input", 3), method)
        topo = builder(fn, name="node", with_index=with_index).sink_write("out").build()
        chain = topo.operators[:-1]
        invocations = {"node": 0}
        assert run(chain, 1, b"ab", invocations) == at_1
        assert run(chain, 2, b"ab", invocations) == at_2
        assert invocations["node"] == 2
        with pytest.raises(OperatorFailure) as info:
            run(chain, 7, b"boom", invocations)
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
        for run, _ in RUNNERS:
            invocations = {op.name: 0 for op in topo.operators}
            out = run(topo.operators[:-1], 0, b"ab", invocations)
            assert type(out) is list
            assert out == [b"a", b"A", b"ab", b"AB"], run
            assert invocations == {"halves": 1, "again": 2, "sink": 0}, run

    @pytest.mark.parametrize(
        "run, fan_out", with_runners([(1,), (3,)], ["one-value", "many-value"])
    )
    def test_generator_failing_partway_names_node_and_index(self, run, fan_out):
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
            run(chain, 4, b"x", invocations)
        assert (info.value.node, info.value.index) == ("partial", 4)
        assert isinstance(info.value.cause, ValueError)
        # run_chain passes every value of fan to partial before it fails;
        # the drain goes depth first and stops at the first value.
        partial_calls = fan_out if run is run_chain else 1
        assert invocations == {"fan": 1, "partial": partial_calls}

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

    @pytest.mark.parametrize("run", [run for run, _ in RUNNERS])
    def test_a_filter_result_whose_truth_test_fails_names_the_filter(self, run):
        class Undecided:
            def __bool__(self):
                raise ValueError("no truth value")

        chain = (
            TopologyBuilder("input", 1)
            .filter(lambda v: Undecided(), name="keep")
            .sink_write("out")
            .build()
            .operators[:-1]
        )
        with pytest.raises(OperatorFailure) as info:
            run(chain, 5, b"x", {"keep": 0})
        assert (info.value.node, info.value.index) == ("keep", 5)
        assert isinstance(info.value.cause, ValueError)


def _chain_failing_on_3(builder, method):
    """builder with a node "node" of method's shape, whose function raises
    an OperatorFailure naming another node on element 3, then a map."""

    def fn(v, i):
        if i == 3:
            raise OperatorFailure("elsewhere", 99, ValueError(v))
        return [v] if method == "flat_map" else v

    return getattr(builder, method)(fn, name="node", with_index=True).map(
        lambda v: v, name="after"
    )


@pytest.mark.parametrize("run", [run for run, _ in RUNNERS])
@pytest.mark.parametrize("method", ["map", "filter", "flat_map"])
def test_an_operator_failure_from_a_node_function_names_that_node(method, run):
    chain = _chain_failing_on_3(TopologyBuilder("input", 5), method)
    chain = chain.sink_write("out").build().operators[:-1]
    invocations = {"node": 0, "after": 0}
    assert run(chain, 2, b"x", invocations) == [b"x"]
    with pytest.raises(OperatorFailure) as info:
        run(chain, 3, b"y", invocations)
    assert (info.value.node, info.value.index) == ("node", 3)
    assert (info.value.cause.node, info.value.cause.index) == ("elsewhere", 99)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("engine_cls", [TupleEngine, MicrobatchEngine])
@pytest.mark.parametrize("method", ["map", "filter", "flat_map"])
def test_engines_name_the_node_whose_function_raised_an_operator_failure(
    method, engine_cls, parallelism, run_with_timeout
):
    broker = LogBroker()
    source = broker.create_topic(TopicConfig("input"))
    for i in range(5):
        source.append(0, b"r%d" % i)
    broker.create_topic(TopicConfig("out"))
    engine = engine_cls(broker)
    topo = _chain_failing_on_3(engine.build("input", 5), method).sink_write("out").build()
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism))
    assert finished
    assert isinstance(raised, OperatorFailure)
    assert (raised.node, raised.index) == ("node", 3)
    assert (raised.cause.node, raised.cause.index) == ("elsewhere", 99)


# One random chain node: (builder method, with_index, a flat_map's
# fan-out or the other methods' salt, whether a flat_map returns a
# generator, and the residue of (len(value) + index) % 7 on which the
# node fails before it returns or yields anything, or None).
NODES = st.tuples(
    st.sampled_from(["map", "filter", "flat_map"]),
    st.booleans(),
    st.integers(0, 3),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 6)),
)


def random_node_fn(method, with_index, k, generator, fails_at):
    def check(v, i):
        if fails_at is not None and (len(v) + i) % 7 == fails_at:
            raise ValueError(v)

    if method == "map":
        def fn(v, i):
            check(v, i)
            return v + b"%d" % (k + i)
    elif method == "filter":
        def fn(v, i):
            check(v, i)
            return (len(v) + k + i) % 3 != 0
    elif generator:
        def fn(v, i):
            check(v, i)
            yield from (v + b"%d" % j for j in range(k))
    else:
        def fn(v, i):
            check(v, i)
            return [v + b"%d" % j for j in range(k)]
    return fn if with_index else lambda v: fn(v, 0)


def fan_out(nodes):
    product = 1
    for method, _, k, _, _ in nodes:
        product *= k if method == "flat_map" else 1
    return product


@settings(max_examples=300, deadline=None)
@given(
    # Up to ten nodes, so that some chains have nine flat_maps or more,
    # which no one generated function can nest and build() refuses.
    nodes=st.lists(NODES, max_size=10).filter(lambda nodes: fan_out(nodes) <= 64),
    start=st.integers(0, 20),
    payloads=st.lists(st.binary(max_size=4), max_size=6),
)
# Eight flat_maps, the most that compile; the last fails on b"".
@example(
    nodes=[("flat_map", k % 2 == 0, 1, k % 2 == 1, None) for k in range(7)]
    + [("flat_map", False, 1, False, 0)],
    start=0,
    payloads=[b"ab", b""],
)
@example(nodes=[("flat_map", False, 1, False, None)] * 9, start=0, payloads=[b"ab"])
def test_compiled_drain_is_run_chain_plus_append(nodes, start, payloads):
    builder = TopologyBuilder("input", 0)
    for k, (method, with_index, *args) in enumerate(nodes):
        fn = random_node_fn(method, with_index, *args)
        getattr(builder, method)(fn, name=f"n{k}", with_index=with_index)
    builder.sink_write("out")
    if sum(method == "flat_map" for method, *_ in nodes) > MAX_FLAT_MAPS:
        with pytest.raises(TopologyError, match=f"chain of {len(nodes)} nodes"):
            builder.build()
        return
    operators = builder.build().operators
    items = list(enumerate(payloads, start))

    expected, expected_counts, expected_error = [], dict.fromkeys(
        (op.name for op in operators), 0
    ), None
    try:
        for index, payload in items:
            for value in run_chain(operators[:-1], index, payload, expected_counts):
                expected.append(value)
                expected_counts["sink"] += 1
    except OperatorFailure as exc:
        expected_error = exc

    out, counts, error = [], defaultdict(int), None
    try:
        compile_drain(operators)(items, lambda partition, value: out.append(value), counts)
    except OperatorFailure as exc:
        error = exc

    if expected_error is None:
        assert error is None
        assert out == expected
        assert {op.name: counts[op.name] for op in operators} == expected_counts
    else:
        assert error is not None and error.index == expected_error.index
        assert isinstance(error.cause, ValueError)
        assert out[:len(expected)] == expected  # every record before the failing one
        if all(method != "flat_map" or k <= 1 for method, _, k, _, _ in nodes):
            assert error.node == expected_error.node


def _twenty_nodes(builder):
    # Four flat_maps, each doubling every value; node 17 fails on b"a1".
    for k in range(20):
        if k % 6 == 1:
            builder.flat_map(lambda v: [v, v.upper()], name=f"n{k}")
        elif k == 17:
            builder.filter(lambda v: 1 / (v != b"a1"), name=f"n{k}")
        else:
            builder.map(lambda v, i: v[:1] + b"%d" % i, name=f"n{k}", with_index=True)


def _five_hundred_nodes(builder):
    # Maps and filters only; filters drop b"z", and node 497 fails on b"a1".
    for k in range(500):
        if k == 497:
            builder.filter(lambda v: 1 / (v != b"a1"), name=f"n{k}")
        elif k % 2:
            builder.filter(lambda v: v[:1] != b"z", name=f"n{k}")
        else:
            builder.map(lambda v, i: v[:1] + b"%d" % i, name=f"n{k}", with_index=True)


@pytest.mark.parametrize(
    "build, failing, outputs",
    [(_twenty_nodes, "n17", 2 * 2**4), (_five_hundred_nodes, "n497", 1)],
    ids=["20-nodes", "500-nodes"],
)
def test_a_long_chain_is_one_generated_function(build, failing, outputs):
    builder = TopologyBuilder("input", 0)
    build(builder)
    operators = builder.sink_write("out").build().operators
    drain = compile_drain(operators)
    assert not any(isinstance(c, types.CodeType) for c in drain.__code__.co_consts)
    for items in ([(2, b"x"), (3, b"z")], [(0, b"a"), (1, b"a")]):
        expected, expected_counts = [], dict.fromkeys((op.name for op in operators), 0)
        out, counts = [], defaultdict(int)
        try:
            for index, payload in items:
                expected += run_chain(operators[:-1], index, payload, expected_counts)
            expected_counts["sink"] = len(expected)
        except OperatorFailure as exc:
            with pytest.raises(OperatorFailure) as info:
                drain(items, lambda partition, value: out.append(value), counts)
            assert (info.value.node, info.value.index) == (exc.node, exc.index) == (failing, 1)
        else:
            drain(items, lambda partition, value: out.append(value), counts)
            assert out == expected and len(out) == outputs
            assert {op.name: counts[op.name] for op in operators} == expected_counts


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("engine_cls", [TupleEngine, MicrobatchEngine])
def test_a_value_the_sink_cannot_append_names_the_sink_and_element(
    engine_cls, parallelism, run_with_timeout
):
    broker = LogBroker()
    source = broker.create_topic(TopicConfig("input"))
    for i in range(10):
        source.append(0, b"r%d" % i)
    broker.create_topic(TopicConfig("out"))
    engine = engine_cls(broker)
    topo = (
        engine.build("input", 10)
        .map(lambda v: v.decode(), name="to_str")
        .sink_write("out", name="write")
        .build()
    )
    finished, raised = run_with_timeout(lambda: engine.execute(topo, parallelism))
    assert finished
    assert isinstance(raised, OperatorFailure)
    assert (raised.node, raised.index) == ("write", 0)
    assert isinstance(raised.cause, TypeError)


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
