"""Workloads and metric names of the streamlab benchmark.

This module imports nothing from streamlab: run.py uses it
before it knows whether the program is present. Engine, query and API
kind are therefore spelled as the string values of streamlab's enums.

Why each workload exists, and which layer it isolates, is written out
in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# Corpus size of one workload run. 50,001 keeps integer-millisecond
# broker stamps at well under 1% of the shortest measured value.
RECORDS = 50_001
# Jobs per API kind in one workload run; warm-up jobs are executed and
# checked but not timed. Native jobs are 3-6x shorter than unified ones
# and vary more from job to job, so they get four times as many runs.
WARMUP_RUNS = 1
TIMED_RUNS = {"native": 16, "unified": 4}

API_KINDS = ("native", "unified")


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    query: str
    parallelism: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identity-tuple-p1", "tuple", "identity", 1,
            "every record read, chained and appended once on one thread: "
            "broker append, the unified codec and output retention dominate",
        ),
        Workload(
            "grep-microbatch-p2", "microbatch", "grep", 2,
            "0.3% of records match, so appends vanish: the read path, "
            "the batch former and the per-batch barrier dominate",
        ),
        Workload(
            "sample-tuple-p2", "tuple", "sample", 2,
            "a reader feeds 2 lanes that append 40% of records under one "
            "partition lock: the append path under lock and GIL contention",
        ),
    )
}

# (name, unit): printed with --trace 0, each a median over the timed
# jobs or workload runs of one benchmark run.
END_TO_END = (
    ("setup_s", "s"),
    ("native_exec_ms", "ms"),
    ("unified_exec_ms", "ms"),
    ("native_job_ms", "ms"),
    ("unified_job_ms", "ms"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-job layer metrics reported once per API kind, as "<name>.<kind>".
PER_JOB = (
    ("broker.append.calls", "count"),
    ("broker.append.ms", "ms"),
    ("broker.append.wait_ms", "ms"),
    ("broker.read.calls", "count"),
    ("broker.read.records", "count"),
    ("broker.read.ms", "ms"),
    ("topology.run_chain.calls", "count"),
    ("topology.run_chain.ms", "ms"),
    ("topology.run_chain.self_ms", "ms"),
    ("topology.invocations_per_record", "count"),
    ("tuple_engine.lane_busy_share", "share"),
    ("tuple_engine.reader_read_ms", "ms"),
    ("microbatch.batches", "count"),
    ("microbatch.former_read_ms", "ms"),
    ("microbatch.worker_busy_share", "share"),
    ("queries.sample_uniform.ms", "ms"),
    ("queries.build_query_ms", "ms"),
    ("harness.tracing_overhead", "ratio"),
)

# Layer metrics that describe unified jobs only or a whole workload run.
PER_RUN = (
    ("broker.retained_topics", "count"),
    ("broker.retained_records", "count"),
    ("corpus.generate_s", "s"),
    ("corpus.send_s", "s"),
    ("unified.translate_ms", "ms"),
    ("unified.codec.calls", "count"),
    ("unified.codec.ms", "ms"),
    ("unified.invocation_ratio", "ratio"),
    ("unified.sf", "ratio"),
    ("unified.overhead_ms", "ms"),
    ("harness.execute_phase_s", "s"),
    ("harness.gc_collections", "count"),
    ("harness.gc_pause_ms", "ms"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric printed with --trace 1, in print order."""
    named = [(f"{name}.{kind}", unit) for name, unit in PER_JOB for kind in API_KINDS]
    return named + list(PER_RUN)
