import json
import re
import shutil

import pytest

from streamlab.cli import (
    CONFIG_KEYS,
    CONFIG_TABLE,
    DEFAULT_VALUES,
    _config_from_values,
    build_benchmark_config,
    build_parser,
    main,
)
from streamlab.harness import RESULTS_COLUMNS


def run_cli(*argv):
    return main(list(argv))


def tiny_args(out_dir, extra=()):
    return [
        "--corpus-n-records", "301",
        "--queries", "grep",
        "--engines", "tuple",
        "--runs", "3",
        "--parallelisms", "1",
        "--output-dir", str(out_dir),
        *extra,
    ]


def test_bench_row_arithmetic(tmp_path):
    assert run_cli("bench", *tiny_args(tmp_path)) == 0
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    # header + (native + unified) x 3 runs
    assert len(lines) == 1 + 2 * 3
    assert lines[0] == "engine,api_kind,query,parallelism,run_index,exec_time_ms,records_out"


def test_plan_command_prints_seven_nodes(capsys):
    assert run_cli("plan", "grep", "unified", "tuple", "1") == 0
    out = capsys.readouterr().out
    node_lines = [l for l in out.splitlines() if l.startswith("node ")]
    assert len(node_lines) == 7
    assert "UnknownRawPTransform" in node_lines[0]


def test_plan_command_native(capsys):
    assert run_cli("plan", "grep", "native", "tuple", "2") == 0
    out = capsys.readouterr().out
    assert sum(l.startswith("node ") for l in out.splitlines()) == 3
    assert "parallelism=2" in out


def test_plan_rejects_bad_names(capsys):
    assert run_cli("plan", "nope", "native", "tuple", "1") == 1


def test_all_writes_full_report(tmp_path):
    assert run_cli("all", *tiny_args(tmp_path)) == 0
    for name in ("results.csv", "stats.csv", "slowdown.csv", "report.md", "metadata.json"):
        assert (tmp_path / name).exists(), name
    plans = list((tmp_path / "plans").glob("plan-*.txt"))
    assert len(plans) == 2  # native + unified setups


def test_report_on_a_copied_directory_keeps_the_config_hash(tmp_path):
    original, copy = tmp_path / "original", tmp_path / "copy"
    assert run_cli("all", *tiny_args(original)) == 0
    shutil.copytree(original, copy)
    assert run_cli("report", str(copy)) == 0
    metadata_hash = json.loads((copy / "metadata.json").read_text())["config_hash"]
    report_md = (copy / "report.md").read_text()
    assert re.search(r'"config_hash": "([0-9a-f]+)"', report_md).group(1) == metadata_hash


def test_report_requires_bench_output(tmp_path):
    assert run_cli("report", str(tmp_path)) == 1


RESULTS_HEADER = ",".join(RESULTS_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "results, metadata",
    [
        (RESULTS_HEADER, "{not json"),
        (RESULTS_HEADER, json.dumps({"settings": {}})),
        ("engine,query\n", json.dumps({"config": {}})),
        (RESULTS_HEADER + "foo,native,grep,1,0,5,3\n", json.dumps({"config": {}})),
        (RESULTS_HEADER + "tuple,native,grep,x,0,5,3\n", json.dumps({"config": {}})),
        (RESULTS_HEADER, json.dumps({"config": []})),
        (RESULTS_HEADER + "tuple,native,grep,0,0,5,3\n", json.dumps({"config": {}})),
        (RESULTS_HEADER + "tuple,native,grep,1,-1,5,3\n", json.dumps({"config": {}})),
        (RESULTS_HEADER + "tuple,native,grep,1,0,-5,3\n", json.dumps({"config": {}})),
        (RESULTS_HEADER + "tuple,native,grep,1,0,5,-3\n", json.dumps({"config": {}})),
        (RESULTS_HEADER + "tuple,native,grep,1,0,5,3,9\n", json.dumps({"config": {}})),
    ],
    ids=["metadata-not-json", "metadata-without-config", "results-wrong-header",
         "results-bad-engine", "results-bad-parallelism", "metadata-config-not-object",
         "results-parallelism-0", "results-negative-run-index", "results-negative-exec-time",
         "results-negative-records-out", "results-extra-cell"],
)
def test_report_malformed_bench_output_is_config_error(tmp_path, capsys, results, metadata):
    (tmp_path / "results.csv").write_text(results)
    (tmp_path / "metadata.json").write_text(metadata)
    assert run_cli("report", str(tmp_path)) == 1
    assert "config error:" in capsys.readouterr().err


def test_report_from_bench_artifacts(tmp_path):
    assert run_cli("bench", *tiny_args(tmp_path)) == 0
    assert run_cli("report", str(tmp_path)) == 0
    assert (tmp_path / "stats.csv").exists()
    assert (tmp_path / "slowdown.csv").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    for values in (
        {"runs_per_setup": 2, "no_such_key": 1},
        # known keys holding a value of the wrong JSON type
        {"corpus.grep_match_count": "5"},
        {"parallelisms": 3},
        {"parallelisms": "12"},
        {"corpus.n_records": 301.9},
        {"runs_per_setup": True},
        {"engines": "tuple"},
    ):
        config.write_text(json.dumps(values))
        assert run_cli("bench", "--config", str(config)) == 1
        assert "config error:" in capsys.readouterr().err


REPEATED_VALUES = {
    "parallelisms": ("1,1", [1, 1]),
    "engines": ("tuple,tuple", ["tuple", "tuple"]),
    "api_kinds": ("native,native", ["native", "native"]),
    "queries": ("grep,grep", ["grep", "grep"]),
}


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", sorted(REPEATED_VALUES))
def test_repeated_list_value_is_a_config_error(key, source, tmp_path, capsys):
    text, value = REPEATED_VALUES[key]
    if source == "flag":
        flag = next(row[1] for row in CONFIG_TABLE if row[0] == key)
        argv = ["bench", *tiny_args(tmp_path), flag, text]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus.n_records": 301, "runs_per_setup": 1,
            "output_dir": str(tmp_path / "out"), key: value,
        }))
        argv = ["bench", "--config", str(config)]
    assert run_cli(*argv) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("needle", ["x\ty", "x\ny", "2"])
def test_unusable_grep_needle_is_a_config_error(needle, tmp_path, capsys):
    # a tab or newline would split a record; "2" is in every query time,
    # so no needle-free record can be drawn
    assert run_cli("bench", *tiny_args(tmp_path), "--corpus-grep-needle", needle) == 1
    assert "config error:" in capsys.readouterr().err


def test_invalid_engine_value_rejected(tmp_path):
    assert run_cli("bench", *tiny_args(tmp_path), "--engines", "turbo") == 1


def test_flag_overrides_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus.n_records": 301,
        "queries": ["grep"],
        "engines": ["tuple"],
        "api_kinds": ["native"],
        "runs_per_setup": 5,
        "parallelisms": [1],
        "output_dir": str(tmp_path / "out"),
    }))
    assert run_cli("bench", "--config", str(config), "--runs", "1") == 0
    lines = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 1  # flag value 1 beat file value 5


def test_identical_config_identical_results_modulo_times(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run_cli("bench", *tiny_args(d)) == 0

    def rows_without_times(path):
        lines = path.read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        return [row[:5] + row[6:] for row in rows]  # drop exec_time_ms

    assert rows_without_times(dirs[0] / "results.csv") == rows_without_times(
        dirs[1] / "results.csv"
    )


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    assert run_cli("bench", *tiny_args(blocker)) == 3


def test_run_failure_exit_code(tmp_path):
    # a zero-match corpus makes every grep run produce no output, which
    # is a per-setup failure
    code = run_cli(
        "bench", *tiny_args(tmp_path),
        "--corpus-grep-match-count", "0", "--api-kinds", "native",
    )
    assert code == 2


def test_all_reports_after_run_failure(tmp_path):
    code = run_cli(
        "all", *tiny_args(tmp_path),
        "--corpus-grep-match-count", "0", "--api-kinds", "native",
    )
    assert code == 2
    assert (tmp_path / "report.md").exists()


def test_paper_scale_flag_sets_record_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus.n_records": 301}))
    # only check the effective config; do not run a 1M-record ingest
    args = build_parser().parse_args(["bench", "--config", str(config), "--paper-scale"])
    assert build_benchmark_config(args).corpus_spec.n_records == 1_000_001


# A non-default value for every config key: its flag text and the value
# config_dict() then holds, which is also what a JSON file would hold.
KEY_SAMPLES = {
    "corpus.n_records": ("301", 301),
    "corpus.grep_needle": ("zzq", "zzq"),
    "corpus.grep_match_count": ("7", 7),
    "corpus.rng_seed": ("99", 99),
    "runs_per_setup": ("3", 3),
    "parallelisms": ("1,3", [1, 3]),
    "engines": ("microbatch", ["microbatch"]),
    "api_kinds": ("unified", ["unified"]),
    "queries": ("grep,identity", ["grep", "identity"]),
    "batch_policy.max_batch_size": ("64", 64),
    "output_dir": ("elsewhere-out", "elsewhere-out"),
    "warmup": ("2", 2),
}


def test_every_config_key_has_a_sample():
    assert set(KEY_SAMPLES) == CONFIG_KEYS


@pytest.mark.parametrize("key, flag", [row[:2] for row in CONFIG_TABLE],
                         ids=[row[0] for row in CONFIG_TABLE])
def test_config_key_round_trip(key, flag, tmp_path):
    text, value = KEY_SAMPLES[key]
    assert value != DEFAULT_VALUES[key]
    from_flag = build_benchmark_config(build_parser().parse_args(["bench", flag, text]))
    assert from_flag.config_dict()[key] == value

    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({key: value}))
    args = build_parser().parse_args(["bench", "--config", str(config_file)])
    assert build_benchmark_config(args).config_hash() == from_flag.config_hash()

    rebuilt = _config_from_values(from_flag.config_dict(), from_flag.output_dir)
    assert rebuilt.config_hash() == from_flag.config_hash()


def test_removed_batch_delay_bound_is_a_config_error(tmp_path):
    assert run_cli("bench", "--batch-max-delay-ms", "5") == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"batch_policy.max_batch_delay_ms": 5}))
    assert run_cli("bench", "--config", str(config)) == 1
