"""Benchmark orchestration: ingest, execute, report.

The run process mirrors a three-phase protocol: data is ingested into
an input topic, every setup (engine x API kind x query x parallelism)
is executed a fixed number of times against a fresh per-run output
topic, and statistics are aggregated afterwards.

Execution time of one run is defined purely from broker metadata: the
difference between the append timestamps of the first and the last
record in the run's output topic. The value never relies on
engine-reported numbers. It is read from the log right after the run,
and the output topic is then dropped, so memory does not grow with the
number of runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from .broker import LogBroker, TopicConfig, clock_ms
# generate_corpus is not called here; the benchmark's tracer wraps it by name.
from .corpus import CorpusSpec, IngestSummary, generate_corpus, iter_payloads, send  # noqa: F401
from .microbatch import BatchPolicy
from .plan import ExecutionPlan, plan_to_text
from .queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query

INPUT_TOPIC = "input"


class HarnessError(Exception):
    pass


class EmptyOutputError(HarnessError):
    """A run produced no output records; its execution time is undefined."""


@dataclass(frozen=True)
class Setup:
    engine: EngineKind
    api_kind: ApiKind
    query: QueryKind
    parallelism: int

    def slug(self) -> str:
        return f"{self.engine.value}-{self.api_kind.value}-{self.query.value}-p{self.parallelism}"

    def sort_key(self):
        return (self.engine.value, self.api_kind.value, self.query.value, self.parallelism)


DEFAULT_QUERIES = (
    QueryKind.IDENTITY,
    QueryKind.SAMPLE,
    QueryKind.PROJECTION,
    QueryKind.GREP,
)


@dataclass(frozen=True)
class BenchmarkConfig:
    corpus_spec: CorpusSpec
    runs_per_setup: int = 10
    parallelisms: tuple[int, ...] = (1, 2)
    engines: tuple[EngineKind, ...] = (EngineKind.TUPLE, EngineKind.MICROBATCH)
    api_kinds: tuple[ApiKind, ...] = (ApiKind.NATIVE, ApiKind.UNIFIED)
    queries: tuple[QueryKind, ...] = DEFAULT_QUERIES
    batch_policy: BatchPolicy = BatchPolicy()
    output_dir: Path = Path("bench-out")
    warmup: int = 0

    def __post_init__(self):
        if self.runs_per_setup < 1:
            raise ValueError("runs_per_setup must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        for name in ("parallelisms", "engines", "api_kinds", "queries"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
        if any(p < 1 for p in self.parallelisms):
            raise ValueError("parallelisms must all be >= 1")

    def setups(self) -> list[Setup]:
        """Cross product in fixed lexicographic run order."""
        all_setups = [
            Setup(engine, api_kind, query, p)
            for engine in self.engines
            for api_kind in self.api_kinds
            for query in self.queries
            for p in self.parallelisms
        ]
        return sorted(all_setups, key=Setup.sort_key)

    def query_spec(self, kind: QueryKind) -> QuerySpec:
        return QuerySpec(
            kind=kind,
            grep_needle=self.corpus_spec.grep_needle,
            rng_seed=self.corpus_spec.rng_seed,
        )

    def config_dict(self) -> dict:
        return {
            "corpus.n_records": self.corpus_spec.n_records,
            "corpus.grep_needle": self.corpus_spec.grep_needle,
            "corpus.grep_match_count": self.corpus_spec.grep_match_count,
            "corpus.rng_seed": self.corpus_spec.rng_seed,
            "runs_per_setup": self.runs_per_setup,
            "parallelisms": list(self.parallelisms),
            "engines": [e.value for e in self.engines],
            "api_kinds": [a.value for a in self.api_kinds],
            "queries": [q.value for q in self.queries],
            "batch_policy.max_batch_size": self.batch_policy.max_batch_size,
            "output_dir": str(self.output_dir),
            "warmup": self.warmup,
        }

    def config_hash(self) -> str:
        """Hash of what determines the results: config_dict() without
        output_dir, so a moved or copied output directory keeps it."""
        config = self.config_dict()
        del config["output_dir"]
        canonical = json.dumps(config, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    setup: Setup
    run_index: int
    exec_time_ms: int
    records_out: int
    operator_invocations: dict[str, int]
    flagged_degenerate: bool = False


@dataclass(frozen=True)
class SetupFailure:
    setup: Setup
    run_label: str
    error: str


@dataclass
class ExecutionOutcome:
    results: list[RunResult]
    failures: list[SetupFailure]
    plans: dict[str, ExecutionPlan]  # setup slug -> plan


@dataclass(frozen=True)
class SetupStats:
    setup: Setup
    mean_ms: float
    stddev_ms: float
    rel_stddev: float
    insufficient_runs: bool = False


@dataclass(frozen=True)
class QueryDeviation:
    """Per system-query-SDK relative standard deviation, averaged over
    the measured parallelisms."""

    engine: EngineKind
    api_kind: ApiKind
    query: QueryKind
    rel_stddev: float


@dataclass(frozen=True)
class SlowdownEntry:
    engine: EngineKind
    query: QueryKind
    sf: float
    unified_mean_ms: float
    native_mean_ms: float


@dataclass
class SlowdownReport:
    slowdowns: list[SlowdownEntry]
    setup_stats: list[SetupStats]
    deviations: list[QueryDeviation]
    metadata: dict


# ---------------------------------------------------------------------------
# Phases.

def phase_ingest(config: BenchmarkConfig, broker: LogBroker) -> IngestSummary:
    """Generate the corpus and append it, in order, to the input topic.
    Each payload is appended as it is generated, with no record built
    for it, so the corpus is never held."""
    if not broker.has_topic(INPUT_TOPIC):
        broker.create_topic(TopicConfig(INPUT_TOPIC, partitions=1))
    return send(iter_payloads(config.corpus_spec), broker, INPUT_TOPIC)


def phase_execute(config: BenchmarkConfig, broker: LogBroker) -> ExecutionOutcome:
    """Run every setup runs_per_setup times, each against a fresh
    single-partition output topic and a fresh engine instance. A failing
    run aborts its setup; remaining setups continue.

    Each output topic is dropped once the run's execution time has been
    read from it, whether the run succeeded or failed, so memory does
    not grow with the number of runs."""
    end_offset = broker.topic(INPUT_TOPIC).high_water_mark(0)
    if end_offset == 0:
        raise HarnessError("input topic is empty; run the ingest phase first")

    results: list[RunResult] = []
    failures: list[SetupFailure] = []
    plans: dict[str, ExecutionPlan] = {}
    for setup in config.setups():
        spec, slug = config.query_spec(setup.query), setup.slug()
        run_labels = [f"warm{i}" for i in range(config.warmup)]
        run_labels += [str(i) for i in range(config.runs_per_setup)]
        for label in run_labels:
            out_topic = f"out-{slug}-{label}"
            broker.create_topic(TopicConfig(out_topic, partitions=1))
            job = build_query(
                spec,
                setup.api_kind,
                setup.engine,
                broker=broker,
                source_topic=INPUT_TOPIC,
                end_offset=end_offset,
                sink_topic=out_topic,
                parallelism=setup.parallelism,
                batch_policy=config.batch_policy,
            )
            if slug not in plans:
                plans[slug] = job.plan
            try:
                report = job.execute()
                exec_time = compute_execution_time(broker, out_topic)
            except Exception as exc:
                failures.append(
                    SetupFailure(setup, label, f"{type(exc).__name__}: {exc}")
                )
                break
            finally:
                broker.drop_topic(out_topic)
            if label.startswith("warm"):
                continue
            results.append(
                RunResult(
                    setup=setup,
                    run_index=int(label),
                    exec_time_ms=exec_time,
                    records_out=report.records_out,
                    operator_invocations=report.operator_invocations,
                    flagged_degenerate=report.records_out == 1,
                )
            )
    return ExecutionOutcome(results, failures, plans)


def compute_execution_time(broker: LogBroker, output_topic: str) -> int:
    """Last minus first output append timestamp, from the log itself."""
    topic = broker.topic(output_topic)
    if topic.high_water_mark(0) == 0:
        raise EmptyOutputError(f"topic {output_topic!r} holds no output records")
    first_ts, last_ts = topic.boundary_timestamps(0)
    return last_ts - first_ts


# ---------------------------------------------------------------------------
# Statistics.

def mean_time(times) -> float:
    if not times:
        raise ValueError("mean of empty list is undefined")
    return statistics.fmean(times)


def slowdown_factor(unified_means: dict, native_means: dict) -> float:
    """Mean over parallelisms of (unified mean / native mean)."""
    if set(unified_means) != set(native_means):
        raise ValueError("parallelism key sets differ")
    if not unified_means:
        raise ValueError("no parallelisms given")
    if any(v <= 0 for v in native_means.values()):
        raise ZeroDivisionError("native mean must be positive")
    ratios = [unified_means[p] / native_means[p] for p in unified_means]
    return sum(ratios) / len(ratios)


def aggregate_stats(
    results: list[RunResult],
) -> tuple[list[SetupStats], list[QueryDeviation]]:
    """Per-setup mean / population stddev / relative stddev, plus the
    per system-query-SDK deviation averaged across parallelisms."""
    by_setup: dict[Setup, list[int]] = {}
    for r in results:
        by_setup.setdefault(r.setup, []).append(r.exec_time_ms)

    stats = []
    for setup in sorted(by_setup, key=Setup.sort_key):
        times = by_setup[setup]
        mean = mean_time(times)
        stddev = statistics.pstdev(times)
        rel = stddev / mean if mean > 0 else 0.0
        stats.append(SetupStats(setup, mean, stddev, rel, insufficient_runs=len(times) < 2))

    by_combo: dict[tuple, list[float]] = {}
    for s in stats:
        key = (s.setup.engine, s.setup.api_kind, s.setup.query)
        by_combo.setdefault(key, []).append(s.rel_stddev)
    deviations = [
        QueryDeviation(engine, api_kind, query, sum(rels) / len(rels))
        for (engine, api_kind, query), rels in sorted(
            by_combo.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2].value)
        )
    ]
    return stats, deviations


def build_slowdown_report(
    config: BenchmarkConfig, results: list[RunResult]
) -> SlowdownReport:
    stats, deviations = aggregate_stats(results)
    means: dict[tuple, dict[int, float]] = {}
    for s in stats:
        key = (s.setup.engine, s.setup.api_kind, s.setup.query)
        means.setdefault(key, {})[s.setup.parallelism] = s.mean_ms

    slowdowns = []
    undefined = []
    for engine in config.engines:
        for query in config.queries:
            unified = means.get((engine, ApiKind.UNIFIED, query))
            native = means.get((engine, ApiKind.NATIVE, query))
            if not unified or not native:
                continue
            if set(unified) != set(native) or any(v <= 0 for v in native.values()):
                # ratio undefined (degenerate sub-millisecond native runs)
                undefined.append(f"{engine.value}-{query.value}")
                continue
            sf = slowdown_factor(unified, native)
            slowdowns.append(
                SlowdownEntry(
                    engine=engine,
                    query=query,
                    sf=sf,
                    unified_mean_ms=mean_time(list(unified.values())),
                    native_mean_ms=mean_time(list(native.values())),
                )
            )
    slowdowns.sort(key=lambda e: (e.engine.value, e.query.value))

    metadata = {
        "config": config.config_dict(),
        "config_hash": config.config_hash(),
        "rng_seed": config.corpus_spec.rng_seed,
        "clock": "process-wide monotonic clock, integer milliseconds since process epoch",
        "clock_now_ms": clock_ms(),
        "stddev_kind": "population",
        "undefined_slowdowns": undefined,
    }
    return SlowdownReport(slowdowns, stats, deviations, metadata)


# ---------------------------------------------------------------------------
# Emission.

RESULTS_COLUMNS = ["engine", "api_kind", "query", "parallelism",
                   "run_index", "exec_time_ms", "records_out"]
STATS_COLUMNS = ["engine", "api_kind", "query", "parallelism",
                 "mean_ms", "stddev_ms", "rel_stddev"]
SLOWDOWN_COLUMNS = ["engine", "query", "sf", "unified_mean_ms", "native_mean_ms"]


def write_results_csv(results: list[RunResult], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for r in results:
            writer.writerow([
                r.setup.engine.value, r.setup.api_kind.value, r.setup.query.value,
                r.setup.parallelism, r.run_index, r.exec_time_ms, r.records_out,
            ])


def read_results_csv(path: Path) -> list[RunResult]:
    results = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULTS_COLUMNS:
            raise HarnessError(f"unexpected results.csv columns: {reader.fieldnames}")
        for row in reader:
            try:
                setup = Setup(
                    EngineKind(row["engine"]), ApiKind(row["api_kind"]),
                    QueryKind(row["query"]), int(row["parallelism"]),
                )
                results.append(RunResult(
                    setup=setup,
                    run_index=int(row["run_index"]),
                    exec_time_ms=int(row["exec_time_ms"]),
                    records_out=int(row["records_out"]),
                    operator_invocations={},
                ))
            except (ValueError, TypeError) as exc:
                raise HarnessError(f"bad row on line {reader.line_num}: {exc}") from exc
    return results


def dump_plan(plan: ExecutionPlan, sink: Path) -> str:
    text = plan_to_text(plan)
    Path(sink).write_text(text)
    return text


def emit_runs(
    results: list[RunResult],
    out_dir: Path,
    plans: dict[str, ExecutionPlan] | None = None,
) -> list[Path]:
    """Write results.csv and one plans/plan-<slug>.txt per plan."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    write_results_csv(results, results_path)
    written = [results_path]
    if plans:
        plans_dir = out_dir / "plans"
        plans_dir.mkdir(exist_ok=True)
        for slug in sorted(plans):
            plan_path = plans_dir / f"plan-{slug}.txt"
            dump_plan(plans[slug], plan_path)
            written.append(plan_path)
    return written


def emit_report(
    report: SlowdownReport,
    results: list[RunResult],
    out_dir: Path,
    plans: dict[str, ExecutionPlan] | None = None,
) -> list[Path]:
    """emit_runs, then stats.csv, slowdown.csv and report.md."""
    out_dir = Path(out_dir)
    written = emit_runs(results, out_dir, plans)

    stats_path = out_dir / "stats.csv"
    with open(stats_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_COLUMNS)
        for s in report.setup_stats:
            writer.writerow([
                s.setup.engine.value, s.setup.api_kind.value, s.setup.query.value,
                s.setup.parallelism,
                f"{s.mean_ms:.6f}", f"{s.stddev_ms:.6f}", f"{s.rel_stddev:.6f}",
            ])
    written.append(stats_path)

    slowdown_path = out_dir / "slowdown.csv"
    with open(slowdown_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLOWDOWN_COLUMNS)
        for e in report.slowdowns:
            writer.writerow([
                e.engine.value, e.query.value, f"{e.sf:.6f}",
                f"{e.unified_mean_ms:.6f}", f"{e.native_mean_ms:.6f}",
            ])
    written.append(slowdown_path)

    report_path = out_dir / "report.md"
    report_path.write_text(_render_report_md(report))
    written.append(report_path)
    return written


def _render_report_md(report: SlowdownReport) -> str:
    lines = ["# Benchmark report", ""]
    lines.append("## Slowdown factors (unified vs native)")
    lines.append("")
    lines.append("| engine | query | sf | unified mean ms | native mean ms |")
    lines.append("|---|---|---|---|---|")
    for e in report.slowdowns:
        lines.append(
            f"| {e.engine.value} | {e.query.value} | {e.sf:.3f} "
            f"| {e.unified_mean_ms:.3f} | {e.native_mean_ms:.3f} |"
        )
    lines.append("")
    lines.append("## Per-setup statistics")
    lines.append("")
    lines.append("| setup | mean ms | stddev ms | rel stddev |")
    lines.append("|---|---|---|---|")
    for s in report.setup_stats:
        lines.append(
            f"| {s.setup.slug()} | {s.mean_ms:.3f} | {s.stddev_ms:.3f} | {s.rel_stddev:.3f} |"
        )
    lines.append("")
    lines.append("## Relative stddev per system-query-SDK (averaged over parallelisms)")
    lines.append("")
    lines.append("| engine | api kind | query | rel stddev |")
    lines.append("|---|---|---|---|")
    for d in report.deviations:
        lines.append(
            f"| {d.engine.value} | {d.api_kind.value} | {d.query.value} | {d.rel_stddev:.3f} |"
        )
    lines.append("")
    lines.append("## Metadata")
    lines.append("")
    lines.append("```json")
    lines.append(json.dumps(report.metadata, indent=2, sort_keys=True))
    lines.append("```")
    lines.append("")
    return "\n".join(lines)
