"""Command-line entry point.

Subcommands: bench (ingest the corpus and run every setup), report
(aggregate a bench directory), all (bench then report in one run),
and plan inspection.

Configuration comes from a JSON file of flat key paths (e.g.
"corpus.n_records", "runs_per_setup") with a CLI flag twin for every
key; flags override file values. The exit code is 0 on success, 1 for
configuration errors, 2 for run failures, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import get_args, get_origin

from .broker import LogBroker, TopicConfig
from .corpus import CorpusError, CorpusSpec
from .harness import (
    INPUT_TOPIC,
    BenchmarkConfig,
    HarnessError,
    build_slowdown_report,
    emit_report,
    emit_runs,
    phase_execute,
    phase_ingest,
    read_results_csv,
)
from .microbatch import BatchPolicy
from .plan import plan_to_text
from .queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query

DESK_SCALE_RECORDS = 10_001
PAPER_SCALE_RECORDS = 1_000_001


class ConfigError(Exception):
    pass


def _parse_int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",") if v]


def _parse_str_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


# One row per config key: (key, flag, parser, JSON type). Every key can
# be set in a JSON config file and by its flag; the parser turns the
# flag's text into the value of that type that the file would hold.
CONFIG_TABLE = (
    ("corpus.n_records", "--corpus-n-records", int, int),
    ("corpus.grep_needle", "--corpus-grep-needle", str, str),
    ("corpus.grep_match_count", "--corpus-grep-match-count", int, int | None),
    ("corpus.rng_seed", "--corpus-rng-seed", int, int),
    ("runs_per_setup", "--runs", int, int),
    ("parallelisms", "--parallelisms", _parse_int_list, list[int]),
    ("engines", "--engines", _parse_str_list, list[str]),
    ("api_kinds", "--api-kinds", _parse_str_list, list[str]),
    ("queries", "--queries", _parse_str_list, list[str]),
    ("batch_policy.max_batch_size", "--batch-max-size", int, int),
    ("output_dir", "--output-dir", str, str),
    ("warmup", "--warmup", int, int),
)
CONFIG_KEYS = frozenset(key for key, *_ in CONFIG_TABLE)
DEFAULT_VALUES = BenchmarkConfig(CorpusSpec(DESK_SCALE_RECORDS)).config_dict()


def load_config_file(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides = {
        key: getattr(args, key)
        for key, *_ in CONFIG_TABLE
        if getattr(args, key, None) is not None
    }
    if getattr(args, "paper_scale", False):
        overrides["corpus.n_records"] = PAPER_SCALE_RECORDS
    return overrides


def build_benchmark_config(args: argparse.Namespace) -> BenchmarkConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    values.update(_flag_overrides(args))
    out_dir = values.get("output_dir", DEFAULT_VALUES["output_dir"])
    return _config_from_values(values, Path(out_dir))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file (flat key paths)")
    for key, flag, parse, _ in CONFIG_TABLE:
        parser.add_argument(flag, type=parse, dest=key)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the full-scale record count (1,000,001)")


def _write_metadata(config) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metadata.json").write_text(
        json.dumps({"config": config.config_dict(),
                    "config_hash": config.config_hash()}, indent=2, sort_keys=True)
    )


def _print_failures(failures) -> None:
    print(f"{len(failures)} setup(s) failed:", file=sys.stderr)
    print(f"{'setup':<40} {'run':<8} error", file=sys.stderr)
    for f in failures:
        print(f"{f.setup.slug():<40} {f.run_label:<8} {f.error}", file=sys.stderr)


def cmd_bench(args) -> int:
    return _bench(build_benchmark_config(args))


def _bench(config: BenchmarkConfig) -> int:
    broker = LogBroker()
    phase_ingest(config, broker)
    outcome = phase_execute(config, broker)
    _write_metadata(config)
    emit_runs(outcome.results, config.output_dir, plans=outcome.plans)
    print(f"wrote {len(outcome.results)} run results to {config.output_dir}/results.csv")
    if outcome.failures:
        _print_failures(outcome.failures)
        return 2
    return 0


def cmd_report(args) -> int:
    return _report(Path(args.dir))


def _report(out_dir: Path) -> int:
    results_path = out_dir / "results.csv"
    metadata_path = out_dir / "metadata.json"
    if not results_path.exists() or not metadata_path.exists():
        raise ConfigError(
            f"{out_dir} does not contain bench output (results.csv, metadata.json)"
        )
    try:
        results = read_results_csv(results_path)
    except HarnessError as exc:
        raise ConfigError(f"{results_path}: {exc}") from exc
    try:
        file_config = json.loads(metadata_path.read_text())["config"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"{metadata_path} is not a JSON object with a config key: {exc!r}"
        ) from exc
    config = _config_from_values(file_config, out_dir)
    report = build_slowdown_report(config, results)
    written = emit_report(report, results, out_dir)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _has_json_type(value, json_type) -> bool:
    """json_type is a type, list[T] or a union of types; a bool is not an int."""
    if get_origin(json_type) is list:
        return type(value) is list and all(_has_json_type(v, *get_args(json_type)) for v in value)
    return type(value) in (get_args(json_type) or (json_type,))


def _config_from_values(values: dict, out_dir: Path) -> BenchmarkConfig:
    if not isinstance(values, dict):
        raise ConfigError(f"config must be a JSON object, got {type(values).__name__}")
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, _, _, json_type in CONFIG_TABLE:
        if key in values and not _has_json_type(values[key], json_type):
            want = json_type.__name__ if isinstance(json_type, type) else json_type
            raise ConfigError(f"{key} must be {want}, got {values[key]!r}")
    v = {**DEFAULT_VALUES, **values}
    try:
        return BenchmarkConfig(
            corpus_spec=CorpusSpec(
                n_records=v["corpus.n_records"],
                grep_needle=v["corpus.grep_needle"],
                grep_match_count=v["corpus.grep_match_count"],
                rng_seed=v["corpus.rng_seed"],
            ),
            runs_per_setup=v["runs_per_setup"],
            parallelisms=tuple(v["parallelisms"]),
            engines=tuple(EngineKind(e) for e in v["engines"]),
            api_kinds=tuple(ApiKind(a) for a in v["api_kinds"]),
            queries=tuple(QueryKind(q) for q in v["queries"]),
            batch_policy=BatchPolicy(v["batch_policy.max_batch_size"]),
            output_dir=out_dir,
            warmup=v["warmup"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_plan(args) -> int:
    try:
        query = QueryKind(args.query)
        api_kind = ApiKind(args.api_kind)
        engine = EngineKind(args.engine)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    broker = LogBroker()
    broker.create_topic(TopicConfig(INPUT_TOPIC))
    job = build_query(
        QuerySpec(query),
        api_kind,
        engine,
        broker=broker,
        source_topic=INPUT_TOPIC,
        end_offset=0,
        sink_topic="out",
        parallelism=args.parallelism,
    )
    sys.stdout.write(plan_to_text(job.plan))
    return 0


def cmd_all(args) -> int:
    config = build_benchmark_config(args)
    status = _bench(config)
    _report(Path(config.output_dir))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run all configured setups")
    _add_config_flags(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_report = sub.add_parser("report", help="aggregate statistics from bench output")
    p_report.add_argument("dir", help="directory holding bench output")
    p_report.set_defaults(fn=cmd_report)

    p_plan = sub.add_parser("plan", help="print the execution plan for one setup")
    p_plan.add_argument("query")
    p_plan.add_argument("api_kind")
    p_plan.add_argument("engine")
    p_plan.add_argument("parallelism", type=int)
    p_plan.set_defaults(fn=cmd_plan)

    p_all = sub.add_parser("all", help="ingest, bench, and report in one run")
    _add_config_flags(p_all)
    p_all.set_defaults(fn=cmd_all)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
        return args.fn(args)
    except (ConfigError, CorpusError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
