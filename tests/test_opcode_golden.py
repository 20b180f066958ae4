"""Golden bytecode counts per record.

Every (query, API kind, engine) setup runs one job at parallelism 1 on
a small fixed corpus while a `sys.settrace` hook with `f_trace_opcodes`
counts the bytecodes executed in frames of streamlab's own code: files
under `src/streamlab`, and the drain code that `topology` generates,
whose filename is `<streamlab drain>`. At parallelism 1 both engines
run the job on the calling thread, so one hook sees all of it. The
counts, split by function, are compared with tests/golden_opcodes.txt.
Unlike a timing, a count is exact, so a change of what each record
costs shows here as a changed row.

Each setup also runs once on zero records (end_offset=0). That count
is the job's fixed cost: compiling its drain, starting its lanes,
reporting. Each row prints a function's opcodes per record, its count
less the zero-record count divided by the records, and then its
zero-record count as a per-job column. A setup's header gives both
totals. So a once-per-job change moves only the per-job column, and a
per-record row moves only with the work each record costs.

After the 16 job blocks, one ingest block counts
`send(iter_payloads(CORPUS), ...)` into a fresh broker under the same
hook: the corpus generator and the sender. A corpus has at least one
record, so it has no zero-record run; its header gives the total and
the total per record, and each row a function's opcodes per record.

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


def count_opcodes(run) -> Counter:
    """Call run() once; bytecodes executed per function of streamlab."""
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
        run()
    finally:
        sys.settrace(previous)
    return counts


def run_job(broker, query, api_kind, engine, end_offset) -> tuple[Counter, int]:
    """Opcodes of one p1 job over records [0, end_offset), and its records out."""
    sink = broker.create_topic(TopicConfig(
        f"out-{end_offset}-{query.value}-{api_kind.value}-{engine.value}"
    ))
    job = build_query(
        QuerySpec(query), api_kind, engine, broker=broker,
        source_topic="input", end_offset=end_offset, sink_topic=sink.name,
    )
    return count_opcodes(job.execute), sink.high_water_mark(0)


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
                per_job, _ = run_job(broker, query, api_kind, engine, 0)
                counts, out = run_job(broker, query, api_kind, engine, n)
                total, fixed = sum(counts.values()), sum(per_job.values())
                lines.append(
                    f"{setup}: in={n} out={out} opcodes={total} per_job={fixed} "
                    f"per_record={(total - fixed) / n:.2f}\n"
                )
                for name in sorted(counts | per_job):
                    lines.append(
                        f"  {(counts[name] - per_job[name]) / n:8.2f} "
                        f"{per_job[name]:6d} {name}\n"
                    )
    ingest = LogBroker()
    ingest.create_topic(TopicConfig("input"))
    counts = count_opcodes(lambda: send(iter_payloads(CORPUS), ingest, "input"))
    total = sum(counts.values())
    lines.append(f"ingest: in={n} opcodes={total} per_record={total / n:.2f}\n")
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
