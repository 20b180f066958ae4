"""Per-record call counts that perfbench's tracer relies on.

perfbench counts calls to `unified.encode_fields` and
`unified.decode_fields`, wrapped by those names, and reads them per
source record. This checks, on the corpus of the invocation golden,
that every record makes four codec calls in unified jobs (the
envelope's encode, `withoutMetadata`'s decode and encode, and `Values`'
decode) and none in native jobs. perfbench also patches
`tuple_engine.run_chain` and `microbatch.run_chain` by name, so both
names must exist, though the engines run each job's compiled drain and
call neither.
"""

import threading
from collections import Counter

import pytest

from streamlab import microbatch, topology, tuple_engine, unified
from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import CorpusSpec, iter_payloads, send
from streamlab.queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query

CORPUS = CorpusSpec(n_records=2503, grep_match_count=17)
CODEC_CALLS_PER_RECORD = {ApiKind.NATIVE: 0, ApiKind.UNIFIED: 4}


@pytest.fixture(scope="module")
def broker():
    broker = LogBroker()
    broker.create_topic(TopicConfig("input"))
    send(iter_payloads(CORPUS), broker, "input")
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
            assert calls["codec"] == CODEC_CALLS_PER_RECORD[api] * CORPUS.n_records, (query, api)


def test_run_chain_names_perfbench_patches_exist():
    assert tuple_engine.run_chain is microbatch.run_chain is topology.run_chain
