"""Golden bytecode counts per record.

Every (query, API kind, engine) setup runs one job at parallelism 1 on
a small fixed corpus while a `sys.settrace` hook with `f_trace_opcodes`
counts the bytecodes executed in frames of streamlab's own code: files
under `src/streamlab`, and the drain code that `topology` generates,
whose filename is `<streamlab drain>`. At parallelism 1 both engines
run the job on the calling thread, so one hook sees all of it. The
counts, per record and split by function, are compared with
tests/golden_opcodes.txt. Unlike a timing, a count is exact, so a
change of what each record costs shows here as a changed row.

Bytecode differs from one CPython release to the next, so the test
runs only on CPython 3.11.7, the interpreter the golden was generated
with. To regenerate the file after an intended change of per-record
work:

    PYTHONPATH=src python tests/test_opcode_golden.py > tests/golden_opcodes.txt
"""

import platform
import sys
from collections import Counter
from pathlib import Path

import pytest

import streamlab
from streamlab.broker import LogBroker, TopicConfig
from streamlab.corpus import CorpusSpec, iter_payloads, send
from streamlab.queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query

GOLDEN = Path(__file__).with_name("golden_opcodes.txt")

CORPUS = CorpusSpec(n_records=201, grep_match_count=5)
PACKAGE_DIR = str(Path(streamlab.__file__).resolve().parent)
GENERATED = "<streamlab drain>"
INTERPRETER = ("CPython", "3.11.7")


def count_opcodes(job) -> Counter:
    """Run job once; bytecodes executed per function of streamlab."""
    counts = Counter()

    def key(frame) -> str | None:
        code = frame.f_code
        if code.co_filename == GENERATED:
            return f"{GENERATED}.{code.co_qualname}"
        path = str(Path(code.co_filename).resolve())
        if not path.startswith(PACKAGE_DIR):
            return None
        module = Path(path).stem
        return f"{module}.{code.co_qualname.replace('.<locals>', '')}"

    def on_call(frame, event, arg):
        name = key(frame)
        if name is None:
            return None
        frame.f_trace_opcodes = True

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[name] += 1
            return on_event

        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        job.execute()
    finally:
        sys.settrace(previous)
    return counts


def render_opcodes() -> str:
    broker = LogBroker()
    broker.create_topic(TopicConfig("input"))
    send(iter_payloads(CORPUS), broker, "input")
    n = CORPUS.n_records
    lines = []
    for query in QueryKind:
        for api_kind in ApiKind:
            for engine in EngineKind:
                setup = f"{query.value} {api_kind.value} {engine.value} 1"
                sink = broker.create_topic(TopicConfig(f"out-{setup.replace(' ', '-')}"))
                job = build_query(
                    QuerySpec(query), api_kind, engine, broker=broker,
                    source_topic="input", end_offset=n, sink_topic=sink.name,
                )
                counts = count_opcodes(job)
                total = sum(counts.values())
                lines.append(
                    f"{setup}: in={n} out={sink.high_water_mark(0)} "
                    f"opcodes={total} per_record={total / n:.2f}\n"
                )
                for name in sorted(counts):
                    lines.append(f"  {counts[name] / n:8.2f} {name}\n")
    return "".join(lines)


@pytest.mark.skipif(
    (platform.python_implementation(), platform.python_version()) != INTERPRETER,
    reason="bytecode counts hold for one interpreter release; the golden "
    "was generated with CPython 3.11.7",
)
def test_opcodes_match_golden():
    assert render_opcodes() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render_opcodes(), end="")
