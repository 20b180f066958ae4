"""Golden per-operator invocation counts.

Every setup of the default grid (4 queries x native/unified x tuple/
microbatch x parallelism 1 and 2) runs once on a small fixed corpus,
and its `operator_invocations`, `records_in` and `records_out` are
compared with tests/golden_invocations.txt. A refactor of the engines'
execution loops cannot change what each node is called on silently.
The corpus is 2,503 records, so the micro-batch engine's default batch
size leaves a partial final batch and parallelism 2 an uneven split.
To regenerate the file after an intended change of the counts:

    PYTHONPATH=src python tests/test_invocation_golden.py > tests/golden_invocations.txt
"""

from pathlib import Path

from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import CorpusSpec, iter_payloads, send
from streamlab.queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query

GOLDEN = Path(__file__).with_name("golden_invocations.txt")

CORPUS = CorpusSpec(n_records=2503, grep_match_count=17)
PARALLELISMS = (1, 2)


def render_invocations() -> str:
    broker = LogBroker()
    broker.create_topic(TopicConfig("input"))
    send(iter_payloads(CORPUS), broker, "input")
    lines = []
    for query in QueryKind:
        for api_kind in ApiKind:
            for engine in EngineKind:
                for p in PARALLELISMS:
                    setup = f"{query.value} {api_kind.value} {engine.value} {p}"
                    sink = broker.create_topic(TopicConfig(f"out-{setup.replace(' ', '-')}"))
                    job = build_query(
                        QuerySpec(query), api_kind, engine, broker=broker,
                        source_topic="input", end_offset=CORPUS.n_records,
                        sink_topic=sink.name, parallelism=p,
                    )
                    report = job.execute()
                    counts = report.operator_invocations
                    sink_node = job.topology.operators[-1].name
                    assert counts[sink_node] == report.records_out == sink.high_water_mark(0)
                    nodes = " ".join(f"{op.name}={counts[op.name]}" for op in job.topology.operators)
                    lines.append(
                        f"{setup}: in={report.records_in} out={report.records_out} {nodes}\n"
                    )
    return "".join(lines)


def test_invocations_match_golden():
    assert render_invocations() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render_invocations(), end="")
