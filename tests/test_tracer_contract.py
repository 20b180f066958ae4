"""Per-record call counts that perfbench's tracer relies on.

perfbench counts calls to `tuple_engine.run_chain`, `microbatch.run_chain`,
`unified.encode_fields` and `unified.decode_fields`, wrapped by those
names, and reads them per source record. This checks, on the corpus of
the invocation golden, that every record makes one `run_chain` call in
both API kinds, and four codec calls in unified jobs (the envelope's
encode, `withoutMetadata`'s decode and encode, and `Values`' decode).
"""

import threading
from collections import Counter

import pytest

from streamlab import microbatch, tuple_engine, unified
from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import CorpusSpec, generate_corpus, send
from streamlab.queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query

CORPUS = CorpusSpec(n_records=2503, grep_match_count=17)
CODEC_CALLS_PER_RECORD = {ApiKind.NATIVE: 0, ApiKind.UNIFIED: 4}


@pytest.fixture(scope="module")
def broker():
    broker = LogBroker()
    broker.create_topic(TopicConfig("input"))
    send(generate_corpus(CORPUS), broker, "input")
    return broker


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("engine", list(EngineKind), ids=[e.value for e in EngineKind])
def test_calls_per_source_record(broker, engine, parallelism, monkeypatch):
    calls = Counter()
    lock = threading.Lock()  # lanes and workers call from several threads

    def counted(owner, name, counter):
        fn = getattr(owner, name)

        def wrapper(*args):
            with lock:
                calls[counter] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(tuple_engine, "run_chain", "run_chain")
    counted(microbatch, "run_chain", "run_chain")
    counted(unified, "encode_fields", "codec")
    counted(unified, "decode_fields", "codec")
    for query in QueryKind:
        for api in ApiKind:
            calls.clear()
            sink = broker.create_topic(
                TopicConfig(f"out-{query.value}-{api.value}-{engine.value}-{parallelism}")
            )
            build_query(
                QuerySpec(query), api, engine, broker=broker, source_topic="input",
                end_offset=CORPUS.n_records, sink_topic=sink.name, parallelism=parallelism,
            ).execute()
            assert calls["run_chain"] == CORPUS.n_records, (query, api)
            assert calls["codec"] == CODEC_CALLS_PER_RECORD[api] * CORPUS.n_records, (query, api)
