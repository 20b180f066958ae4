import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import (
    CorpusError,
    CorpusSpec,
    MalformedRecordError,
    SearchLogRecord,
    generate_corpus,
    iter_payloads,
    parse_record,
    send,
    serialize_record,
)


def payload_digest(payloads):
    h = hashlib.sha256()
    for p in payloads:
        h.update(p)
        h.update(b"\n")
    return h.hexdigest()


def corpus_digest(records):
    return payload_digest(map(serialize_record, records))


class TestSerialization:
    def test_optional_fields_serialize_empty(self):
        r = SearchLogRecord("100", "flowers", "2006-03-01 10:00:00")
        assert serialize_record(r) == b"100\tflowers\t2006-03-01 10:00:00\t\t"

    def test_five_columns_four_tabs(self):
        r = SearchLogRecord("7", "maps", "2006-04-02 08:30:00", 2, "u.com")
        data = serialize_record(r)
        assert data.count(b"\t") == 4
        assert len(data.split(b"\t")) == 5

    def test_parse_inverse(self):
        assert parse_record(b"100\tflowers\t2006-03-01 10:00:00\t\t") == SearchLogRecord(
            "100", "flowers", "2006-03-01 10:00:00"
        )
        r = parse_record(b"7\tmaps\t2006-04-02 08:30:00\t2\tu.com")
        assert r.click_rank == 2
        assert r.click_url == "u.com"

    def test_parse_malformed_reports_column_count(self):
        with pytest.raises(MalformedRecordError) as exc:
            parse_record(b"a\tb\tc")
        assert exc.value.column_count == 3

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SearchLogRecord("abc", "q", "2006-03-01 10:00:00")
        with pytest.raises(ValueError):
            SearchLogRecord("1", "tab\tin query", "2006-03-01 10:00:00")
        with pytest.raises(ValueError):
            SearchLogRecord("1", "q", "2006-03-01 10:00:00", click_rank=0)


_words = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 .", min_size=0, max_size=30
).filter(lambda s: "\t" not in s and "\n" not in s)


@given(
    user_id=st.integers(min_value=1, max_value=10**9).map(str),
    query=_words,
    when=st.datetimes().map(lambda d: d.strftime("%Y-%m-%d %H:%M:%S")),
    rank=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    url=st.one_of(st.none(), _words.filter(bool)),
)
@settings(max_examples=300)
def test_serialize_parse_round_trip(user_id, query, when, rank, url):
    record = SearchLogRecord(user_id, query, when, rank, url)
    assert parse_record(serialize_record(record)) == record


def test_round_trip_bulk_random_records():
    import random

    rng = random.Random(31337)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._-"
    for _ in range(100_000):
        record = SearchLogRecord(
            user_id=str(rng.randrange(1, 10**9)),
            query_text="".join(rng.choices(alphabet, k=rng.randrange(0, 25))),
            query_time="2006-03-01 10:00:00",
            click_rank=rng.randint(1, 10) if rng.random() < 0.5 else None,
            click_url="u.com" if rng.random() < 0.5 else None,
        )
        assert parse_record(serialize_record(record)) == record


class TestGeneration:
    def test_default_match_count_formula(self):
        assert CorpusSpec(n_records=1_000_001).resolved_match_count() == 3003
        assert CorpusSpec(n_records=10001).resolved_match_count() == 30
        assert CorpusSpec(n_records=1).resolved_match_count() == 0

    def test_exact_match_cardinality(self, default_spec, default_records):
        needle = default_spec.grep_needle.encode()
        hits = [r for r in default_records if needle in serialize_record(r)]
        assert len(hits) == 30
        for r in hits:
            assert default_spec.grep_needle in r.query_text

    def test_single_record_no_match(self):
        records = generate_corpus(CorpusSpec(n_records=1, grep_match_count=0))
        assert len(records) == 1
        assert b"test" not in serialize_record(records[0])

    def test_deterministic_regeneration(self):
        spec = CorpusSpec(n_records=10001, rng_seed=42)
        assert corpus_digest(generate_corpus(spec)) == corpus_digest(generate_corpus(spec))

    # Every benchmark input is a pure function of its spec: any change to
    # the random stream or the draw order changes these digests. The "99"
    # spec runs the redraw loop (user ids that contain "99").
    @pytest.mark.parametrize("spec, digest", [
        (CorpusSpec(50_001, rng_seed=901),
         "5e29fab2b57daf50e2ddf9e6b9b0005de88deea637d26c46a180166fadcba2e2"),
        (CorpusSpec(10_001),
         "29d796e69eaef9ff1e62df8540b56452d8b17420b8238728e53e95f903f5790f"),
        (CorpusSpec(400, grep_needle="flowers", grep_match_count=12, rng_seed=3),
         "76ee37392f0799f883ab6d8adb80609f9e09ed70dd12659c9dc73aba5785b0bd"),
        (CorpusSpec(2_000, grep_needle="99", grep_match_count=7, rng_seed=11),
         "bc635d6c09fe81500a6f510841dac8ff5b843f18ce05fdeef720343afbaf2516"),
    ], ids=["seed901-50001", "default-10001", "flowers-400", "redraw-99-2000"])
    def test_pinned_corpus_digest(self, spec, digest):
        assert payload_digest(iter_payloads(spec)) == digest

    def test_different_seed_changes_corpus(self):
        a = generate_corpus(CorpusSpec(n_records=500, rng_seed=1))
        b = generate_corpus(CorpusSpec(n_records=500, rng_seed=2))
        assert corpus_digest(a) != corpus_digest(b)

    def test_needle_isolation_brute_force(self, default_spec, default_records):
        needle = default_spec.grep_needle.encode()
        non_matches = [
            serialize_record(r)
            for r in default_records
            if default_spec.grep_needle not in r.query_text
        ]
        assert len(non_matches) == len(default_records) - 30
        assert all(needle not in line for line in non_matches)

    def test_custom_needle_from_vocabulary(self):
        spec = CorpusSpec(n_records=400, grep_needle="flowers", grep_match_count=12)
        records = generate_corpus(spec)
        hits = sum(b"flowers" in serialize_record(r) for r in records)
        assert hits == 12

    def test_unsatisfiable_needle(self):
        # "200" appears in every query_time year, so needle-free rows
        # cannot exist.
        with pytest.raises(CorpusError):
            generate_corpus(CorpusSpec(n_records=5, grep_needle="200", grep_match_count=0))

    def test_optional_columns_roughly_half(self, default_records):
        with_click = sum(r.click_rank is not None for r in default_records)
        assert 0.35 < with_click / len(default_records) < 0.65
        for r in default_records:
            assert (r.click_rank is None) == (r.click_url is None)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_records=0)
        with pytest.raises(ValueError):
            CorpusSpec(n_records=5, grep_match_count=6)
        with pytest.raises(ValueError):
            CorpusSpec(n_records=5, grep_match_count=-1)
        with pytest.raises(ValueError):
            CorpusSpec(n_records=5, grep_needle="")
        with pytest.raises(ValueError):
            CorpusSpec(n_records=5, grep_needle="a\tb")


class TestSend:
    def test_send_preserves_order_and_count(self, default_records, default_payloads):
        broker = LogBroker()
        broker.create_topic(TopicConfig("input"))
        count = send(default_payloads, broker, "input")
        assert count == len(default_records)
        topic = broker.topic("input")
        assert topic.high_water_mark(0) == len(default_records)
        entries = topic.read(0, 0, len(default_records))
        for i, entry in enumerate(entries):
            assert entry.payload == serialize_record(default_records[i])

    def test_send_to_non_empty_topic(self, default_payloads):
        broker = LogBroker()
        broker.create_topic(TopicConfig("input"))
        broker.topic("input").append(0, b"already here")
        with pytest.raises(CorpusError, match="already holds records"):
            send(default_payloads, broker, "input")

