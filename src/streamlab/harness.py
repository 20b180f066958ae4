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

from .broker import LogBroker, TopicConfig
# generate_corpus is not called here; the benchmark's tracer wraps it by name.
from .corpus import CorpusSpec, generate_corpus, iter_payloads, send  # noqa: F401
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


@dataclass(frozen=True)
class BenchmarkConfig:
    corpus_spec: CorpusSpec
    runs_per_setup: int = 10
    parallelisms: tuple[int, ...] = (1, 2)
    engines: tuple[EngineKind, ...] = tuple(EngineKind)
    api_kinds: tuple[ApiKind, ...] = tuple(ApiKind)
    queries: tuple[QueryKind, ...] = tuple(QueryKind)
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

    @property
    def flagged_degenerate(self) -> bool:
        """One output: the run's execution time is 0 by definition."""
        return self.records_out == 1


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

def phase_ingest(config: BenchmarkConfig, broker: LogBroker) -> int:
    """Generate the corpus and append it, in order, to the input topic,
    and return the number of records appended. Each payload is appended
    as it is generated, with no record built for it, so the corpus is
    never held."""
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
    """Raises statistics.StatisticsError, a ValueError, on no times."""
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


def _by_combo(stats: list[SetupStats]) -> dict[tuple, list[SetupStats]]:
    """Setup stats grouped by (engine, API kind, query), in stats order."""
    groups: dict[tuple, list[SetupStats]] = {}
    for s in stats:
        groups.setdefault((s.setup.engine, s.setup.api_kind, s.setup.query), []).append(s)
    return groups


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

    deviations = [
        QueryDeviation(*combo, sum(s.rel_stddev for s in group) / len(group))
        for combo, group in _by_combo(stats).items()
    ]
    return stats, deviations


def build_slowdown_report(
    config: BenchmarkConfig, results: list[RunResult]
) -> SlowdownReport:
    stats, deviations = aggregate_stats(results)
    means = {
        combo: {s.setup.parallelism: s.mean_ms for s in group}
        for combo, group in _by_combo(stats).items()
    }

    slowdowns = []
    undefined = []
    for engine in config.engines:
        for query in config.queries:
            unified = means.get((engine, ApiKind.UNIFIED, query))
            native = means.get((engine, ApiKind.NATIVE, query))
            if not unified or not native:
                continue
            try:
                sf = slowdown_factor(unified, native)
            except (ValueError, ZeroDivisionError):
                # ratio undefined (degenerate sub-millisecond native runs)
                undefined.append(f"{engine.value}-{query.value}")
                continue
            slowdowns.append(SlowdownEntry(
                engine, query, sf,
                unified_mean_ms=mean_time(unified.values()),
                native_mean_ms=mean_time(native.values()),
            ))
    slowdowns.sort(key=lambda e: (e.engine.value, e.query.value))

    metadata = {
        "config": config.config_dict(),
        "config_hash": config.config_hash(),
        "rng_seed": config.corpus_spec.rng_seed,
        "clock": "process-wide monotonic clock, integer milliseconds since process epoch",
        "stddev_kind": "population",
        "undefined_slowdowns": undefined,
        "degenerate_runs": [
            f"{r.setup.slug()} run {r.run_index}" for r in results if r.flagged_degenerate
        ],
        "insufficient_runs": [s.setup.slug() for s in stats if s.insufficient_runs],
    }
    return SlowdownReport(slowdowns, stats, deviations, metadata)


# ---------------------------------------------------------------------------
# Emission.

SETUP_COLUMNS = ["engine", "api_kind", "query", "parallelism"]  # Setup.sort_key() order
RESULTS_COLUMNS = SETUP_COLUMNS + ["run_index", "exec_time_ms", "records_out"]
STATS_COLUMNS = SETUP_COLUMNS + ["mean_ms", "stddev_ms", "rel_stddev"]
SLOWDOWN_COLUMNS = ["engine", "query", "sf", "unified_mean_ms", "native_mean_ms"]


def _cell(value, digits: int) -> str:
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


def _write_csv(path: Path, columns: list[str], rows) -> Path:
    """Floats are written with 6 decimals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(v, 6) for v in row] for row in rows)
    return path


def _slowdown_row(e: SlowdownEntry) -> tuple:
    return (e.engine.value, e.query.value, e.sf, e.unified_mean_ms, e.native_mean_ms)


def write_results_csv(results: list[RunResult], path: Path) -> Path:
    return _write_csv(path, RESULTS_COLUMNS, (
        (*r.setup.sort_key(), r.run_index, r.exec_time_ms, r.records_out) for r in results
    ))


def read_results_csv(path: Path) -> list[RunResult]:
    results = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULTS_COLUMNS:
            raise HarnessError(f"unexpected results.csv columns: {reader.fieldnames}")
        for row in reader:
            try:
                if None in row:  # DictReader files cells past the header under None
                    raise ValueError(f"extra cells {row[None]}")
                # parallelism, then RunResult's run_index, exec_time_ms and records_out
                p, *counts = (int(row[c]) for c in RESULTS_COLUMNS[3:])
                if p < 1 or min(counts) < 0:
                    raise ValueError("parallelism below 1, or a negative index, time or count")
                setup = Setup(
                    EngineKind(row["engine"]), ApiKind(row["api_kind"]), QueryKind(row["query"]), p
                )
                results.append(RunResult(setup, *counts))
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
    written = [write_results_csv(results, out_dir / "results.csv")]
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

    written.append(_write_csv(out_dir / "stats.csv", STATS_COLUMNS, (
        (*s.setup.sort_key(), s.mean_ms, s.stddev_ms, s.rel_stddev) for s in report.setup_stats
    )))
    written.append(_write_csv(out_dir / "slowdown.csv", SLOWDOWN_COLUMNS,
                              map(_slowdown_row, report.slowdowns)))
    report_path = out_dir / "report.md"
    report_path.write_text(_render_report_md(report))
    written.append(report_path)
    return written


def _md_table(title: str, columns: list[str], rows) -> list[str]:
    """One report.md section; floats are shown with 3 decimals."""
    return [
        f"## {title}", "",
        "| " + " | ".join(columns) + " |",
        "|" + "---|" * len(columns),
        *("| " + " | ".join(_cell(v, 3) for v in row) + " |" for row in rows),
        "",
    ]


def _render_report_md(report: SlowdownReport) -> str:
    setups = [(s.setup.slug(), s.mean_ms, s.stddev_ms, s.rel_stddev) for s in report.setup_stats]
    deviations = [
        (d.engine.value, d.api_kind.value, d.query.value, d.rel_stddev) for d in report.deviations
    ]
    return "\n".join([
        "# Benchmark report", "",
        *_md_table("Slowdown factors (unified vs native)",
                   ["engine", "query", "sf", "unified mean ms", "native mean ms"],
                   map(_slowdown_row, report.slowdowns)),
        *_md_table("Per-setup statistics",
                   ["setup", "mean ms", "stddev ms", "rel stddev"], setups),
        *_md_table("Relative stddev per system-query-SDK (averaged over parallelisms)",
                   ["engine", "api kind", "query", "rel stddev"], deviations),
        "## Metadata", "",
        "```json", json.dumps(report.metadata, indent=2, sort_keys=True), "```", "",
    ])
