import hashlib
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import CorpusSpec, MalformedRecordError, generate_corpus, serialize_record
from streamlab.microbatch import BatchPolicy
from streamlab.queries import (
    SAMPLE_PROBABILITY,
    ApiKind,
    EngineKind,
    QueryKind,
    QuerySpec,
    build_query,
    grep_fn,
    projection_fn,
    sample_fn,
    sample_kernel,
    sample_threshold,
    sample_uniform,
)
from streamlab.topology import OperatorFailure


def reference_sample_decisions(seed, n, probability):
    """Independent re-implementation of the indexed sampling rule."""
    decisions = []
    for i in range(n):
        digest = hashlib.sha256(f"sample:{seed}:{i}".encode()).digest()
        value = int.from_bytes(digest[:8], "big") / 2**64
        decisions.append(value < probability)
    return decisions


class TestQueryFunctions:
    def test_projection(self):
        assert projection_fn(b"100\tflowers\t2006-03-01 10:00:00\t\t") == b"100"
        assert projection_fn(b"\ta\tb\tc\td") == b""

    def test_projection_malformed(self):
        with pytest.raises(MalformedRecordError):
            projection_fn(b"only\tthree\tcolumns")

    def test_grep(self):
        assert grep_fn(b"testing 123", b"test") == [b"testing 123"]
        assert grep_fn(b"flowers", b"test") == []

    def test_grep_literal_substring_not_regex(self):
        assert grep_fn(b"a.c", b"a.c") == [b"a.c"]
        assert grep_fn(b"abc", b"a.c") == []

    def test_sample_degenerate_probabilities(self):
        keep_all, keep_none = sample_kernel(9, 1.0), sample_kernel(9, 0.0)
        kept_all = [sample_fn(b"x", i, keep_all) for i in range(100)]
        assert all(out == [b"x"] for out in kept_all)
        kept_none = [sample_fn(b"x", i, keep_none) for i in range(100)]
        assert all(out == [] for out in kept_none)

    def test_sample_matches_reference_rule(self):
        seed, n, p = 123456789, 5000, 0.4
        expected = reference_sample_decisions(seed, n, p)
        keep = sample_kernel(seed, p)
        got = [sample_fn(b"x", i, keep) == [b"x"] for i in range(n)]
        assert got == expected

    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_sample_kernel_equals_sample_uniform(self, p):
        for seed in (0, 901, 123456789):
            keep = sample_kernel(seed, p)
            got = [keep(i) for i in range(20_000)]
            assert got == [sample_uniform(seed, i) < p for i in range(20_000)], seed

    @pytest.mark.parametrize("p", [0.4, 0.5, 1.0])
    def test_sample_threshold_byte_compare_is_exact(self, p):
        threshold = sample_threshold(p)
        threshold_bytes = threshold.to_bytes(8, "big")
        for n in range(max(0, threshold - 4096), min(2**64, threshold + 4097)):
            prefix = n.to_bytes(8, "big")
            for digest in (prefix + bytes(24), prefix + b"\xff" * 24):
                assert (digest < threshold_bytes) == (n / 2**64 < p), hex(n)

    def test_sample_threshold_values(self):
        assert sample_threshold(0.0) == 0
        assert sample_threshold(0.4) == 0x6666666666666600
        assert sample_threshold(1.0) < 2**64

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_sample_probability_out_of_range(self, p):
        with pytest.raises(ValueError):
            sample_kernel(1, p)

    def test_sample_uniform_range(self):
        values = [sample_uniform(7, i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuerySpec(QueryKind.GREP, grep_needle="")


class TestBuildQuery:
    def test_native_grep_three_node_plan(self, ingested_broker):
        ingested_broker.create_topic(TopicConfig("out-a"))
        job = build_query(
            QuerySpec(QueryKind.GREP), ApiKind.NATIVE, EngineKind.TUPLE,
            broker=ingested_broker, source_topic="input", end_offset=10001,
            sink_topic="out-a", parallelism=1,
        )
        assert [n.name for n in job.plan.nodes] == ["source", "filter", "sink"]

    def test_unified_grep_seven_node_plan(self, ingested_broker):
        ingested_broker.create_topic(TopicConfig("out-b"))
        job = build_query(
            QuerySpec(QueryKind.GREP), ApiKind.UNIFIED, EngineKind.TUPLE,
            broker=ingested_broker, source_topic="input", end_offset=10001,
            sink_topic="out-b", parallelism=1,
        )
        assert len(job.plan.nodes) == 7

    def test_invalid_combination(self, ingested_broker):
        with pytest.raises(ValueError, match="invalid combination"):
            build_query(
                QuerySpec(QueryKind.GREP), "native", EngineKind.TUPLE,
                broker=ingested_broker, source_topic="input", end_offset=1,
                sink_topic="x", parallelism=1,
            )

    def test_projection_failure_names_node(self):
        broker = LogBroker()
        t = broker.create_topic(TopicConfig("input"))
        t.append(0, b"not a five column record")
        broker.create_topic(TopicConfig("out"))
        job = build_query(
            QuerySpec(QueryKind.PROJECTION), ApiKind.NATIVE, EngineKind.TUPLE,
            broker=broker, source_topic="input", end_offset=1,
            sink_topic="out", parallelism=1,
        )
        with pytest.raises(OperatorFailure) as exc:
            job.execute()
        assert exc.value.node == "projection"


MINI_N = 1001


@pytest.fixture(scope="module")
def payloads():
    records = generate_corpus(CorpusSpec(n_records=MINI_N))
    return [serialize_record(r) for r in records]


class TestCrossSetupEquivalence:
    """All 16 (query x api x engine x parallelism) combinations on a
    small corpus: outputs per query kind are pairwise multiset-equal."""

    N = MINI_N

    def test_all_combinations_multiset_equal(self, payloads):
        assert len(set(payloads)) == len(payloads)  # payloads identify offsets
        for kind in QueryKind:
            outputs = {}
            for api in ApiKind:
                for eng in EngineKind:
                    for p in (1, 2):
                        broker = LogBroker()
                        t = broker.create_topic(TopicConfig("input"))
                        for payload in payloads:
                            t.append(0, payload)
                        broker.create_topic(TopicConfig("out"))
                        job = build_query(
                            QuerySpec(kind), api, eng,
                            broker=broker, source_topic="input",
                            end_offset=self.N, sink_topic="out", parallelism=p,
                        )
                        job.execute()
                        out = broker.topic("out")
                        outputs[(api, eng, p)] = Counter(
                            e.payload for e in out.read(0, 0, out.high_water_mark(0))
                        )
            reference = outputs[(ApiKind.NATIVE, EngineKind.TUPLE, 1)]
            for combo, counted in outputs.items():
                assert counted == reference, (kind, combo)

    def test_sample_offsets_identical_across_setups(self, payloads):
        # payload uniqueness (asserted above) makes multiset equality
        # equivalent to emitted-offset-set equality; spot-check against
        # the indexed rule directly.
        spec = QuerySpec(QueryKind.SAMPLE)
        expected_offsets = {
            i for i in range(self.N)
            if sample_uniform(spec.rng_seed, i) < SAMPLE_PROBABILITY
        }
        broker = LogBroker()
        t = broker.create_topic(TopicConfig("input"))
        for payload in payloads:
            t.append(0, payload)
        broker.create_topic(TopicConfig("out"))
        job = build_query(
            spec, ApiKind.UNIFIED, EngineKind.MICROBATCH,
            broker=broker, source_topic="input", end_offset=self.N,
            sink_topic="out", parallelism=2,
        )
        job.execute()
        out = broker.topic("out")
        got_payloads = {e.payload for e in out.read(0, 0, out.high_water_mark(0))}
        index_of = {payload: i for i, payload in enumerate(payloads)}
        assert {index_of[payload] for payload in got_payloads} == expected_offsets


class TestCardinalityContracts:
    def test_identity_and_projection_preserve_cardinality(self, ingested_broker, default_payloads):
        n = len(default_payloads)
        for kind in (QueryKind.IDENTITY, QueryKind.PROJECTION):
            out = f"out-card-{kind.value}"
            ingested_broker.create_topic(TopicConfig(out))
            job = build_query(
                QuerySpec(kind), ApiKind.NATIVE, EngineKind.TUPLE,
                broker=ingested_broker, source_topic="input", end_offset=n,
                sink_topic=out, parallelism=1,
            )
            report = job.execute()
            assert report.records_out == n

    def test_sample_count_within_three_sigma(self, ingested_broker, default_payloads):
        n = len(default_payloads)
        ingested_broker.create_topic(TopicConfig("out-s"))
        job = build_query(
            QuerySpec(QueryKind.SAMPLE), ApiKind.NATIVE, EngineKind.TUPLE,
            broker=ingested_broker, source_topic="input", end_offset=n,
            sink_topic="out-s", parallelism=1,
        )
        report = job.execute()
        sigma = math.sqrt(n * 0.4 * 0.6)
        assert abs(report.records_out - 0.4 * n) <= 3 * sigma

    def test_projection_shrinks_records_with_trailing_columns(self, ingested_broker, default_payloads):
        n = len(default_payloads)
        ingested_broker.create_topic(TopicConfig("out-p"))
        job = build_query(
            QuerySpec(QueryKind.PROJECTION), ApiKind.NATIVE, EngineKind.TUPLE,
            broker=ingested_broker, source_topic="input", end_offset=n,
            sink_topic="out-p", parallelism=1,
        )
        job.execute()
        out = ingested_broker.topic("out-p")
        projected = [e.payload for e in out.read(0, 0, n)]
        for original, first_col in zip(default_payloads, projected):
            assert first_col == original.split(b"\t")[0]
            assert len(first_col) < len(original)


PROPERTY_CORPUS = [
    serialize_record(r)
    for r in generate_corpus(CorpusSpec(n_records=40, grep_match_count=12))
]


def oracle_output(kind: QueryKind, payloads: list[bytes], spec: QuerySpec) -> Counter:
    """The query's output multiset, computed without streamlab's query code."""
    if kind is QueryKind.SAMPLE:
        keep = reference_sample_decisions(spec.rng_seed, len(payloads), SAMPLE_PROBABILITY)
        return Counter(p for p, kept in zip(payloads, keep) if kept)
    if kind is QueryKind.PROJECTION:
        return Counter(p.split(b"\t")[0] for p in payloads)
    if kind is QueryKind.GREP:
        return Counter(p for p in payloads if spec.grep_needle.encode() in p)
    return Counter(payloads)


@settings(max_examples=200, deadline=None)
@given(
    end_offset=st.integers(0, len(PROPERTY_CORPUS)),
    kind=st.sampled_from(QueryKind),
    engine=st.sampled_from(EngineKind),
    parallelism=st.sampled_from([1, 2, 3]),
    batch_size=st.integers(1, len(PROPERTY_CORPUS)),
)
@example(end_offset=0, kind=QueryKind.IDENTITY, engine=EngineKind.MICROBATCH,
         parallelism=2, batch_size=1)
@example(end_offset=1, kind=QueryKind.PROJECTION, engine=EngineKind.TUPLE,
         parallelism=3, batch_size=1)
def test_unified_equals_native_equals_oracle(end_offset, kind, engine, parallelism, batch_size):
    broker = LogBroker()
    source = broker.create_topic(TopicConfig("input"))
    for payload in PROPERTY_CORPUS:
        source.append(0, payload)
    spec = QuerySpec(kind)
    outputs = {}
    for api in ApiKind:
        sink = broker.create_topic(TopicConfig(f"out-{api.value}"))
        build_query(
            spec, api, engine, broker=broker, source_topic="input",
            end_offset=end_offset, sink_topic=sink.name, parallelism=parallelism,
            batch_policy=BatchPolicy(batch_size),
        ).execute()
        outputs[api] = Counter(e.payload for e in sink.read(0, 0, sink.high_water_mark(0)))
    expected = oracle_output(kind, PROPERTY_CORPUS[:end_offset], spec)
    assert outputs[ApiKind.UNIFIED] == outputs[ApiKind.NATIVE] == expected
