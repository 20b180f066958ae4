import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import CorpusSpec, generate_corpus, serialize_record
from streamlab.microbatch import MicrobatchEngine
from streamlab.queries import (
    ApiKind,
    EngineKind,
    QueryKind,
    QuerySpec,
    build_query,
    build_unified_pipeline,
)
from streamlab.tuple_engine import TupleEngine
from streamlab.unified import (
    ElementKind,
    Flatten,
    GroupByKey,
    ParDo,
    Pipeline,
    ReadFromLog,
    TumblingCount,
    TypeMismatchError,
    UnsupportedConstructError,
    UnwindowedGroupByKeyError,
    WriteToLog,
    decode_fields,
    encode_fields,
    evaluate_local,
    flatten_semantics,
    group_by_key_semantics,
    translate,
)

WRAPPER_NODES = 5  # FlatMap, withoutMetadata, Values, serialize, sinkAppend


def fresh_broker(payloads, topic="input"):
    broker = LogBroker()
    t = broker.create_topic(TopicConfig(topic))
    for p in payloads:
        t.append(0, p)
    return broker


def read_all(broker, topic):
    t = broker.topic(topic)
    return [e.payload for e in t.read(0, 0, t.high_water_mark(0))]


class TestApply:
    def test_linear_grep_pipeline_is_valid(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 10))
        pc = p.apply(ParDo("grep", lambda v: [v] if b"x" in v else []), pc)
        p.apply(WriteToLog("out"), pc)
        assert len(p.applications) == 3
        assert p.applications[0].output.element_kind is ElementKind.BYTES

    def test_read_only_at_root(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 10))
        with pytest.raises(TypeMismatchError):
            p.apply(ReadFromLog("other", 5), pc)

    def test_group_by_key_on_unkeyed(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 10))
        with pytest.raises(TypeMismatchError):
            p.apply(GroupByKey(TumblingCount(4)), pc)

    def test_unwindowed_group_by_key(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 10))
        kv = p.apply(ParDo("kv", lambda v: [(v, v)], output_kind=ElementKind.KEY_VALUE), pc)
        with pytest.raises(UnwindowedGroupByKeyError):
            p.apply(GroupByKey(window=None), kv)

    def test_write_is_terminal(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 10))
        done = p.apply(WriteToLog("out"), pc)
        with pytest.raises(TypeMismatchError):
            p.apply(ParDo("late", lambda v: [v]), done)

    def test_flatten_kind_mismatch(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 10))
        kv = p.apply(ParDo("kv", lambda v: [(v, v)], output_kind=ElementKind.KEY_VALUE), pc)
        with pytest.raises(TypeMismatchError):
            p.apply(Flatten(), [pc, kv])

    def test_flatten_requires_inputs(self):
        p = Pipeline()
        with pytest.raises(TypeMismatchError):
            p.apply(Flatten(), [])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TumblingCount(0)


class TestGroupByKeySemantics:
    def test_tiny_window(self):
        grouped = group_by_key_semantics([("a", 1), ("b", 2), ("a", 3)])
        assert grouped == [("a", [1, 3]), ("b", [2])]

    def test_single_element(self):
        assert group_by_key_semantics([("k", "v")]) == [("k", ["v"])]

    def test_random_windows_match_hash_map_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            window = [
                (rng.randint(0, 9), rng.randint(0, 999))
                for _ in range(rng.randint(1, 200))
            ]
            # independent oracle: plain dict accumulation
            oracle: dict = {}
            for k, v in window:
                oracle.setdefault(k, []).append(v)
            got = dict(group_by_key_semantics(window))
            assert got == oracle
            assert sum(len(vs) for vs in got.values()) == len(window)

    def test_value_arrival_order_preserved(self):
        window = [("k", i) for i in range(50)]
        assert group_by_key_semantics(window) == [("k", list(range(50)))]


class TestFlatten:
    def test_union_multiset_of_two_kv_collections(self):
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 4))
        left = p.apply(
            ParDo("left", lambda v: [(v, b"l")], output_kind=ElementKind.KEY_VALUE), pc
        )
        right = p.apply(
            ParDo("right", lambda v: [(v, b"r")], output_kind=ElementKind.KEY_VALUE), pc
        )
        merged = p.apply(Flatten(), [left, right])
        assert merged.element_kind is ElementKind.KEY_VALUE

        data = [b"a", b"b", b"c", b"d"]
        run = evaluate_local(p, {"input": data})
        got = Counter(run.materialize(merged))
        expected = Counter((v, b"l") for v in data) + Counter((v, b"r") for v in data)
        assert got == expected

    def test_cardinality_additivity_random_cases(self):
        rng = random.Random(11)
        for _ in range(100):
            inputs = [
                [rng.randint(0, 100) for _ in range(rng.randint(0, 30))]
                for _ in range(rng.randint(1, 5))
            ]
            merged = flatten_semantics(inputs)
            assert len(merged) == sum(len(i) for i in inputs)
            assert Counter(merged) == sum((Counter(i) for i in inputs), Counter())


@given(st.lists(st.binary(max_size=40), max_size=8))
@settings(max_examples=200)
def test_field_encoding_round_trip(fields):
    assert decode_fields(encode_fields(*fields)) == fields


def test_decode_rejects_truncation():
    data = encode_fields(b"abc", b"defg")
    with pytest.raises(ValueError):
        decode_fields(data[:-1])


class TestTranslate:
    def test_grep_translation_seven_named_nodes(self):
        broker = fresh_broker([b"x"])
        job = build_query(
            QuerySpec(QueryKind.GREP), ApiKind.UNIFIED, EngineKind.TUPLE,
            broker=broker, source_topic="input", end_offset=1,
            sink_topic="out", parallelism=1,
        )
        assert [n.name for n in job.plan.nodes] == [
            "UnknownRawPTransform", "FlatMap", "withoutMetadata", "Values",
            "grep", "serialize", "sinkAppend",
        ]
        assert all(n.parallelism == 1 for n in job.plan.nodes)

    def test_identity_translation_six_nodes(self):
        broker = fresh_broker([b"x"])
        job = build_query(
            QuerySpec(QueryKind.IDENTITY), ApiKind.UNIFIED, EngineKind.TUPLE,
            broker=broker, source_topic="input", end_offset=1,
            sink_topic="out", parallelism=1,
        )
        assert len(job.plan.nodes) == 6

    def test_translation_deterministic(self):
        broker = fresh_broker([b"x"])
        pipeline = build_unified_pipeline(QuerySpec(QueryKind.GREP), "input", 1, "out")
        a = translate(pipeline, TupleEngine(broker), 2)
        b = translate(pipeline, TupleEngine(broker), 2)
        assert a.plan == b.plan
        assert [op.name for op in a.topology.operators] == [
            op.name for op in b.topology.operators
        ]

    def test_microbatch_translation_annotated(self):
        broker = fresh_broker([b"x"])
        pipeline = build_unified_pipeline(QuerySpec(QueryKind.GREP), "input", 1, "out")
        job = translate(pipeline, MicrobatchEngine(broker), 1)
        assert all(n.annotation == "microbatch" for n in job.plan.nodes)
        assert len(job.plan.nodes) == 7

    def test_structural_overhead_at_least_three_nodes(self, ingested_broker):
        n = 10001
        for kind in QueryKind:
            native = build_query(
                QuerySpec(kind), ApiKind.NATIVE, EngineKind.TUPLE,
                broker=ingested_broker, source_topic="input", end_offset=n,
                sink_topic=f"out-n-{kind.value}", parallelism=1,
            )
            unified = build_query(
                QuerySpec(kind), ApiKind.UNIFIED, EngineKind.TUPLE,
                broker=ingested_broker, source_topic="input", end_offset=n,
                sink_topic=f"out-u-{kind.value}", parallelism=1,
            )
            assert len(unified.plan.nodes) >= len(native.plan.nodes) + 3

    def test_non_linear_pipeline_rejected(self):
        broker = fresh_broker([b"x"])
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 1))
        a = p.apply(ParDo("a", lambda v: [v]), pc)
        p.apply(ParDo("b", lambda v: [v]), pc)  # fan-out
        p.apply(WriteToLog("out"), a)
        with pytest.raises(UnsupportedConstructError):
            translate(p, TupleEngine(broker), 1)

    def test_flatten_not_translatable(self):
        broker = fresh_broker([b"x"])
        p = Pipeline()
        pc = p.apply(ReadFromLog("input", 1))
        merged = p.apply(Flatten(), [pc])
        p.apply(WriteToLog("out"), merged)
        # Windowed grouping is not translatable either.
        for pipeline in (p, kv_pipeline(1, window_n=4)):
            with pytest.raises(UnsupportedConstructError, match="is not translatable"):
                translate(pipeline, TupleEngine(broker), 1)


def kv_pipeline(end_offset, window_n, sink="out"):
    """Read -> key by first column -> windowed group -> write."""
    p = Pipeline()
    pc = p.apply(ReadFromLog("input", end_offset))
    kv = p.apply(
        ParDo(
            "keyByCol0",
            lambda v: [(v.split(b"\t")[0], v)],
            output_kind=ElementKind.KEY_VALUE,
        ),
        pc,
    )
    grouped = p.apply(GroupByKey(TumblingCount(window_n)), kv)
    p.apply(WriteToLog(sink), grouped)
    return p


class TestGroupByKeyOnRunners:
    @pytest.fixture
    def small_payloads(self):
        records = generate_corpus(CorpusSpec(n_records=251, rng_seed=5))
        # narrow the key space so groups actually form
        return [
            b"%d\t" % (i % 7) + serialize_record(r).split(b"\t", 1)[1]
            for i, r in enumerate(records)
        ]

    def test_partial_final_window_flushed(self, small_payloads):
        # 251 elements with window 40: the last window holds 11 elements
        pipeline = kv_pipeline(len(small_payloads), window_n=40)
        run = evaluate_local(pipeline, {"input": small_payloads})
        total_grouped_values = sum(
            len(decode_fields(row)) - 1 for row in run.written["out"]
        )
        assert total_grouped_values == len(small_payloads)


class TestSemanticTransparency:
    def test_unified_equals_native_grep_all_engines(self, default_records):
        payloads = [serialize_record(r) for r in default_records[:3001]]
        outputs = {}
        for api in ApiKind:
            for eng in EngineKind:
                broker = fresh_broker(payloads)
                broker.create_topic(TopicConfig("out"))
                job = build_query(
                    QuerySpec(QueryKind.GREP), api, eng,
                    broker=broker, source_topic="input", end_offset=len(payloads),
                    sink_topic="out", parallelism=2,
                )
                job.execute()
                outputs[(api, eng)] = Counter(read_all(broker, "out"))
        reference = outputs[(ApiKind.NATIVE, EngineKind.TUPLE)]
        assert sum(reference.values()) > 0
        assert all(c == reference for c in outputs.values())

    def test_unified_invocations_strictly_exceed_native(self, ingested_broker):
        reports = {}
        for api in ApiKind:
            out = f"out-inv-{api.value}"
            ingested_broker.create_topic(TopicConfig(out))
            job = build_query(
                QuerySpec(QueryKind.GREP), api, EngineKind.TUPLE,
                broker=ingested_broker, source_topic="input", end_offset=10001,
                sink_topic=out, parallelism=1,
            )
            reports[api] = job.execute()
        native_total = sum(reports[ApiKind.NATIVE].operator_invocations.values())
        unified_total = sum(reports[ApiKind.UNIFIED].operator_invocations.values())
        assert unified_total > native_total
