"""One workload run in its own process.

A workload run is the ingest phase, the execute phase for both API
kinds, and the slowdown report, all through streamlab's public entry
points. Afterwards, with every wrapper removed, the output oracle
checks the timed runs' record counts and one untimed native and one
untimed unified job, built through `queries.build_query` into topics
created here. The run prints one JSON object on stdout.

The process runs on one CPU: with the reader and lane threads spread
over two cores, the GIL handoff between cores made parallel jobs vary
twofold from process to process (see README.md). It also times a fixed
pure-Python loop before and after the workload, so that a comparison
can tell a change of the host's speed from a change of the program.

    python3 perfbench/child.py --workload NAME --seed N [--records N] [--traced]

run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from streamlab import harness, microbatch, queries, tuple_engine, unified  # noqa: E402
from streamlab.broker import LogBroker, Topic, TopicConfig  # noqa: E402
from streamlab.corpus import CorpusSpec, generate_corpus, serialize_record  # noqa: E402
from streamlab.harness import (  # noqa: E402
    INPUT_TOPIC,
    BenchmarkConfig,
    build_slowdown_report,
    phase_execute,
    phase_ingest,
)
from streamlab.microbatch import MicrobatchEngine  # noqa: E402
from streamlab.queries import ApiKind, EngineKind, QueryKind, build_query  # noqa: E402
from streamlab.tuple_engine import TupleEngine  # noqa: E402

from oracle import Accounting, OracleError, expected_output  # noqa: E402
from tracer import CALLS, CPU_NS, ITEMS, SELF_NS, WALL_NS, GcWatch, Patches, Tracer  # noqa: E402
from workloads import RECORDS, TIMED_RUNS, WARMUP_RUNS, WORKLOADS, Workload  # noqa: E402

ENGINES = (TupleEngine, MicrobatchEngine)


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host's speed, not the program's."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


class JobTimer:
    """Times each engine execute call, from submission to return, and
    files it under the API kind whose execute phase is running."""

    def __init__(self):
        self.kind: str | None = None
        self.jobs_ms: dict[str, list[float]] = {"native": [], "unified": []}

    def wrap(self, execute):
        def timed(engine, topology, parallelism=1):
            start = time.perf_counter_ns()
            report = execute(engine, topology, parallelism)
            self.jobs_ms[self.kind].append((time.perf_counter_ns() - start) / 1e6)
            return report

        return timed


class TracedJobs:
    """Wrappers that give every job an id and a span, and counters
    around the per-record calls of each layer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.jobs: list[dict] = []  # in build order
        self._pending: dict[int, dict] = {}  # id(topology) -> job

    def install(self, patches: Patches) -> None:
        t = self.tracer
        patches.replace(harness, "build_query", self._wrap_build_query)
        patches.replace(queries, "translate", lambda fn: t.spanned("translate", fn))
        for engine in ENGINES:
            patches.replace(engine, "execute", self._wrap_execute)
        patches.replace(Topic, "append", lambda fn: t.counted("append", fn))
        patches.replace(Topic, "read", lambda fn: t.counted("read", fn, items=True))
        # Names the engines and the codec's callers resolve at call time.
        patches.replace(tuple_engine, "run_chain", lambda fn: t.counted("run_chain", fn))
        patches.replace(microbatch, "run_chain", lambda fn: t.counted("run_chain", fn))
        patches.replace(unified, "encode_fields", lambda fn: t.counted("encode_fields", fn))
        patches.replace(unified, "decode_fields", lambda fn: t.counted("decode_fields", fn))
        patches.replace(queries, "sample_uniform", lambda fn: t.counted("sample_uniform", fn))
        # Query functions inside the chain, so that run_chain's self time
        # leaves them out. Unified ParDos call these names at call time;
        # native jobs get the predicate from a factory or the function
        # itself when the query is built.
        for name in ("sample_fn", "grep_fn", "projection_fn"):
            patches.replace(queries, name, lambda fn: t.counted("query_fn", fn))
        for name in ("_sample_pred", "_grep_pred"):
            patches.replace(
                queries, name,
                lambda factory: lambda spec: t.counted("query_fn", factory(spec)),
            )

    def _wrap_build_query(self, build):
        def traced_build(spec, api_kind, engine_kind, **kwargs):
            job = {"job": len(self.jobs), "kind": api_kind.value}
            with self.tracer.span("build_query", job=job["job"]) as span:
                built = build(spec, api_kind, engine_kind, **kwargs)
            job["build_span"] = span["id"]
            self.jobs.append(job)
            self._pending[id(built.topology)] = job
            return built

        return traced_build

    def _wrap_execute(self, execute):
        def traced_execute(engine, topology, parallelism=1):
            job = self._pending.pop(id(topology))
            self.tracer.job = job["job"]
            try:
                with self.tracer.span("job", job=job["job"], api_kind=job["kind"]) as span:
                    report = execute(engine, topology, parallelism)
            finally:
                self.tracer.job = None
            job["span"] = span["id"]
            job["report"] = report
            return report

        return traced_execute

    def timed_jobs(self) -> list[dict]:
        """Jobs that completed and were not warm-ups, in build order."""
        done = [j for j in self.jobs if "report" in j]
        timed = []
        for kind in ("native", "unified"):
            timed += [j for j in done if j["kind"] == kind][WARMUP_RUNS:]
        return timed

    def job_metrics(self, job: dict, workload: Workload) -> dict[str, float]:
        """The per-job layer metrics of one traced job."""
        spans = self.tracer.spans
        span = spans[job["span"]]
        job_ns = span["end_ns"] - span["start_ns"]
        build = spans[job["build_span"]]
        report = job["report"]
        counters = self.tracer.job_counters(job["job"])

        def total(name, field, thread=lambda t: True):
            return sum(c[field] for (t, n), c in counters.items() if n == name and thread(t))

        def ms(ns):
            return ns / 1e6

        lanes = workload.parallelism
        tuple_lanes = workload.engine == "tuple" and lanes > 1
        is_lane = lambda t: t.startswith("tuple-lane-")  # noqa: E731
        is_worker = lambda t: t.startswith("ThreadPoolExecutor")  # noqa: E731
        is_main = lambda t: t == "MainThread"  # noqa: E731
        is_former = lambda t: t == "microbatch-former"  # noqa: E731

        def busy(thread):
            return total("run_chain", WALL_NS, thread) + total("append", WALL_NS, thread)

        m = {
            "broker.append.calls": total("append", CALLS),
            "broker.append.ms": ms(total("append", WALL_NS)),
            "broker.append.wait_ms": ms(total("append", WALL_NS) - total("append", CPU_NS)),
            "broker.read.calls": total("read", CALLS),
            "broker.read.records": total("read", ITEMS),
            "broker.read.ms": ms(total("read", WALL_NS)),
            "topology.run_chain.calls": total("run_chain", CALLS),
            "topology.run_chain.ms": ms(total("run_chain", WALL_NS)),
            "topology.run_chain.self_ms": ms(total("run_chain", SELF_NS)),
            "topology.invocations_per_record":
                sum(report.operator_invocations.values()) / report.records_in,
            "tuple_engine.lane_busy_share":
                busy(is_lane) / (lanes * job_ns) if tuple_lanes else 0.0,
            "tuple_engine.reader_read_ms":
                ms(total("read", WALL_NS, is_main)) if tuple_lanes else 0.0,
            "microbatch.batches": report.batches or 0,
            "microbatch.former_read_ms": ms(total("read", WALL_NS, is_former)),
            "microbatch.worker_busy_share": busy(is_worker) / (lanes * job_ns),
            "queries.sample_uniform.ms": ms(total("sample_uniform", WALL_NS)),
            "queries.build_query_ms": ms(build["end_ns"] - build["start_ns"]),
        }
        if job["kind"] == "unified":
            translate = [s for s in spans if s["parent"] == build["id"] and s["name"] == "translate"]
            m["unified.translate_ms"] = ms(sum(s["end_ns"] - s["start_ns"] for s in translate))
            m["unified.codec.calls"] = total("encode_fields", CALLS) + total("decode_fields", CALLS)
            m["unified.codec.ms"] = ms(total("encode_fields", WALL_NS) + total("decode_fields", WALL_NS))
        return m


def run_workload(workload: Workload, seed: int, records: int, traced: bool) -> dict:
    spec = CorpusSpec(n_records=records, rng_seed=seed)
    query = QueryKind(workload.query)
    engine = EngineKind(workload.engine)
    config = BenchmarkConfig(
        corpus_spec=spec,
        runs_per_setup=TIMED_RUNS["native"],
        warmup=WARMUP_RUNS,
        parallelisms=(workload.parallelism,),
        engines=(engine,),
        queries=(query,),
    )
    tracer = Tracer() if traced else None
    traced_jobs = TracedJobs(tracer) if traced else None

    def span(name, **attrs):
        return tracer.span(name, **attrs) if traced else nullcontext()

    broker = LogBroker()
    timer = JobTimer()
    patches = Patches()
    results, failures = [], []
    calibration = [calibration_ms()]
    try:
        for cls in ENGINES:
            patches.replace(cls, "execute", timer.wrap)
        if traced:
            patches.replace(harness, "generate_corpus", lambda fn: tracer.spanned("corpus.generate", fn))
            patches.replace(harness, "send", lambda fn: tracer.spanned("corpus.send", fn))
        start = time.perf_counter()
        with span("ingest"):
            phase_ingest(config, broker)
        ingested = time.perf_counter()
        if traced:
            traced_jobs.install(patches)
        with GcWatch() as gc_watch:
            for api in (ApiKind.NATIVE, ApiKind.UNIFIED):
                timer.kind = api.value
                with span("execute", api_kind=api.value):
                    outcome = phase_execute(
                        dataclasses.replace(
                            config, api_kinds=(api,), runs_per_setup=TIMED_RUNS[api.value]
                        ),
                        broker,
                    )
                results += outcome.results
                failures += outcome.failures
        executed = time.perf_counter()
        with span("report"):
            report = build_slowdown_report(config, results)
        end = time.perf_counter()
    finally:
        patches.restore()
    calibration.append(calibration_ms())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    retained = [n for n in broker.topic_names() if n != INPUT_TOPIC]

    out = {
        "workload": workload.name,
        "seed": seed,
        "records": records,
        "traced": traced,
        "setup_s": ingested - start,
        "execute_phase_s": executed - ingested,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "job_ms": {k: v[WARMUP_RUNS:] for k, v in timer.jobs_ms.items()},
        "exec_ms": {
            api.value: [r.exec_time_ms for r in results if r.setup.api_kind is api]
            for api in (ApiKind.NATIVE, ApiKind.UNIFIED)
        },
        "sf": report.slowdowns[0].sf if report.slowdowns else None,
        "gc_collections": len(gc_watch.pauses_ns),
        "gc_pause_ms": sum(gc_watch.pauses_ns) / 1e6,
        "retained_topics": len(retained),
        "retained_records": sum(broker.topic(n).high_water_mark(0) for n in retained),
        "calibration_ms": calibration,
    }

    accounting = check_outputs(workload, config, broker, results, failures)
    out.update(attempted=accounting.attempted, failed=accounting.failed, failures=accounting.reasons)

    if traced:
        def span_s(name):
            return sum(s["end_ns"] - s["start_ns"] for s in tracer.spans if s["name"] == name) / 1e9

        out["corpus_generate_s"] = span_s("corpus.generate")
        out["corpus_send_s"] = span_s("corpus.send")
        out["jobs"] = [
            {"kind": j["kind"], "metrics": traced_jobs.job_metrics(j, workload)}
            for j in traced_jobs.timed_jobs()
        ]
        out["trace"] = tracer.to_json()
    return out


def check_outputs(workload, config, broker, results, failures) -> Accounting:
    """Every timed run's count, then one untimed job per API kind as a
    multiset, against the oracle computed from a fresh corpus."""
    spec = config.corpus_spec
    accounting = Accounting()
    for f in failures:
        accounting.record(False, f"{f.setup.slug()} run {f.run_label}: {f.error}")
    payloads = [serialize_record(r) for r in generate_corpus(spec)]
    try:
        expected = expected_output(
            workload.query, payloads, seed=spec.rng_seed,
            needle=spec.grep_needle.encode("utf-8"), match_count=spec.resolved_match_count(),
        )
    except OracleError as exc:
        accounting.record(False, f"oracle: {exc}")
        return accounting
    for r in results:
        accounting.timed_run(f"{r.setup.slug()} run {r.run_index}", r.records_out, expected)
    for api in (ApiKind.NATIVE, ApiKind.UNIFIED):
        topic = f"oracle-{api.value}"
        broker.create_topic(TopicConfig(topic, partitions=1))
        try:
            job = build_query(
                config.query_spec(QueryKind(workload.query)), api, EngineKind(workload.engine),
                broker=broker, source_topic=INPUT_TOPIC, end_offset=spec.n_records,
                sink_topic=topic, parallelism=workload.parallelism,
                batch_policy=config.batch_policy,
            )
            job.execute()
        except Exception as exc:  # any job failure is a failed run, not a crash
            accounting.record(False, f"{topic}: {type(exc).__name__}: {exc}")
            continue
        sink = broker.topic(topic)
        written = [e.payload for e in sink.read(0, 0, sink.high_water_mark(0))]
        accounting.output(topic, written, expected)
    return accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--records", type=int, default=RECORDS)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_workload(WORKLOADS[args.workload], args.seed, args.records, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
