import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import serialize_record
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
    ParDo,
    Pipeline,
    ReadFromLog,
    WriteToLog,
    decode_fields,
    encode_fields,
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

    @pytest.mark.parametrize("engine_cls", [TupleEngine, MicrobatchEngine])
    def test_two_pardos_translate_in_order_and_match_native(self, engine_cls):
        payloads = [b"r%d" % i for i in range(200)]

        def tag(value, index):
            return [value + b"#%d" % index] if index % 3 else []

        def twice(value):
            return [value, value.upper()]

        broker = fresh_broker(payloads)
        pipeline = Pipeline(
            ReadFromLog("input", len(payloads)),
            (ParDo("tag", tag, with_index=True), ParDo("twice", twice)),
            WriteToLog("out-u"),
        )
        unified = translate(pipeline, engine_cls(broker), 2)
        assert [n.name for n in unified.plan.nodes] == [
            "UnknownRawPTransform", "FlatMap", "withoutMetadata", "Values",
            "tag", "twice", "serialize", "sinkAppend",
        ]
        native = (
            engine_cls(broker).build("input", len(payloads))
            .flat_map(tag, name="tag", with_index=True).flat_map(twice, name="twice")
            .sink_write("out-n").build()
        )
        for topic in ("out-u", "out-n"):
            broker.create_topic(TopicConfig(topic))
        unified.execute()
        engine_cls(broker).execute(native, 2)
        expected = Counter(w for i, v in enumerate(payloads) for t in tag(v, i) for w in twice(t))
        assert Counter(read_all(broker, "out-u")) == Counter(read_all(broker, "out-n")) == expected


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
