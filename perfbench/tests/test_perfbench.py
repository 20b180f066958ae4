"""Tests of the benchmark itself, on a small corpus.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402  (puts the program's sources on sys.path)
from oracle import Accounting, expected_output, sample_keeps  # noqa: E402
from workloads import END_TO_END, WORKLOADS, per_layer_metrics  # noqa: E402

from streamlab import broker, harness, microbatch, queries, tuple_engine, unified  # noqa: E402
from streamlab.corpus import CorpusSpec, generate_corpus, serialize_record  # noqa: E402

SMALL = "2001"
COUNTS = (
    "broker.append.calls.native", "broker.append.calls.unified",
    "unified.codec.calls",
    "microbatch.batches.native", "microbatch.batches.unified",
    "topology.invocations_per_record.native", "topology.invocations_per_record.unified",
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def bench_result(*args):
    proc = run_bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, metrics", [(0, END_TO_END), (1, per_layer_metrics())])
def test_smoke_prints_every_metric_with_its_unit(trace, metrics):
    lines, result = bench_result(
        "--workload", "all", "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--records", SMALL,
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    # --seconds is the time of the whole invocation, shared among the workloads.
    shares = [float(w.split("=")[1]) for line in lines for w in line.split()
              if w.startswith("seconds=")]
    assert len(shares) == len(WORKLOADS) and sum(shares) <= 1
    for workload in WORKLOADS:
        for name, unit in metrics:
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(
                line.split()[:2] == [workload, name] and line.split()[3] == unit
                and line.split()[4].startswith("n=")
                for line in lines
            ), (workload, name)


def test_one_workload_reports_exactly_the_result_keys():
    _, result = bench_result(
        "--workload", "identity-tuple-p1", "--seed", "1", "--seconds", "1",
        "--trace", "0", "--records", SMALL,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0


def test_count_metrics_repeat_between_two_traced_runs():
    def counts():
        _, result = bench_result(
            "--workload", "all", "--seed", "3", "--seconds", "1",
            "--trace", "1", "--records", SMALL,
        )
        return {
            f"{w}.{c}": result["metrics"][f"{w}.{c}"]["value"] for w in WORKLOADS for c in COUNTS
        }

    first = counts()
    assert first["identity-tuple-p1.broker.append.calls.native"] == int(SMALL)
    assert first["grep-microbatch-p2.microbatch.batches.native"] == 3
    assert first == counts()


def test_oracle_counts_a_dropped_record_as_a_failed_run():
    spec = CorpusSpec(n_records=int(SMALL), rng_seed=5)
    payloads = [serialize_record(r) for r in generate_corpus(spec)]
    for query in ("identity", "grep", "sample"):
        expected = expected_output(
            query, payloads, seed=spec.rng_seed, needle=b"test",
            match_count=spec.resolved_match_count(),
        )
        written = list(expected.elements())
        accounting = Accounting()
        accounting.output("whole", written, expected)
        accounting.timed_run("whole", len(written), expected)
        accounting.output("dropped", written[1:], expected)
        accounting.timed_run("dropped", len(written) - 1, expected)
        assert (accounting.attempted, accounting.failed) == (4, 2), query


def test_sample_oracle_agrees_with_the_query_definition():
    keeps = [sample_keeps(11, i) for i in range(5000)]
    assert keeps == [queries.sample_uniform(11, i) < 0.4 for i in range(5000)]
    assert 0.37 < sum(keeps) / len(keeps) < 0.43


def test_traced_run_restores_every_wrapped_name():
    patched = [
        (broker.Topic, "append"), (broker.Topic, "read"),
        (tuple_engine, "run_chain"), (microbatch, "run_chain"),
        (unified, "encode_fields"), (unified, "decode_fields"),
        (queries, "sample_uniform"), (queries, "translate"),
        (queries, "sample_fn"), (queries, "grep_fn"), (queries, "projection_fn"),
        (queries, "_sample_pred"), (queries, "_grep_pred"),
        (harness, "build_query"), (harness, "generate_corpus"), (harness, "send"),
        (tuple_engine.TupleEngine, "execute"), (microbatch.MicrobatchEngine, "execute"),
    ]
    before = [getattr(owner, name) for owner, name in patched], list(gc.callbacks)
    result = child.run_workload(WORKLOADS["sample-tuple-p2"], seed=2, records=501, traced=True)
    assert result["failed"] == 0 and result["jobs"]
    assert ([getattr(owner, name) for owner, name in patched], gc.callbacks) == before


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "identity-tuple-p1", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
