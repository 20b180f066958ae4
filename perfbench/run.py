"""streamlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The benchmark stays outside the program under test. For --seconds it
starts one workload run after another, each in its own process
(child.py), as long as another run is expected to end in time; there is
always at least one. With --trace 1 the runs alternate between
untraced and traced, the traced ones wrapping every layer from outside,
and there is always at least one of each. With --workload all the
seconds are shared out among the workloads, and the 170-second limit
holds for the whole invocation.

It prints one line per metric (name, median, unit, sample count), then
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Everything measured, traces included, is also written
to .perfbench/<workload>-seed<N>-trace<T>.json. README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench"
# A whole invocation must end within 180 s; leave room for printing.
RUN_LIMIT_S = 170

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    API_KINDS, END_TO_END, PER_JOB, RECORDS, TIMED_RUNS, WARMUP_RUNS, WORKLOADS,
    per_layer_metrics,
)


def program_present() -> bool:
    return (ROOT / "src" / "streamlab" / "__init__.py").is_file()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_child(workload: str, seed: int, records: int, traced: bool, timeout: float):
    """One workload run in a fresh process: (result, None) or (None, error)."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--records", str(records)]
    if traced:
        cmd.append("--traced")
    # The hash seed follows the workload seed, so a seed fixes every input.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"workload run timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"workload run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def measure(workload: str, seed: int, seconds: float, trace: bool, records: int,
            hard_end: float):
    """Workload runs for `seconds`, all ending by the monotonic time
    `hard_end`: (results, errors)."""
    end = min(time.monotonic() + seconds, hard_end)
    durations = {False: [], True: []}
    results, errors = [], []
    while True:
        traced = trace and len(results) % 2 == 1
        # The first untraced and the first traced run always start; by
        # then each later run has a duration of its own kind to go by.
        if len(results) >= (2 if trace else 1):
            if time.monotonic() + max(durations[traced]) > end:
                break
        began = time.monotonic()
        result, error = run_child(
            workload, seed, records, traced, max(1.0, hard_end - began)
        )
        if error:
            errors.append(error)
            break
        durations[traced].append(time.monotonic() - began)
        results.append(result)
    return results, errors


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None with fewer than 20 samples."""
    if len(values) < 20:
        return None
    ranked = sorted(values)
    k = len(ranked) - 11
    return 100 * (k + 1) / len(ranked), ranked[k]


def end_to_end(runs: list[dict]) -> dict[str, tuple[float, int]]:
    """name -> (median, sample count) over the untraced workload runs."""
    return {name: (median(v), len(v)) for name, v in e2e_samples(runs).items()}


def e2e_samples(runs: list[dict]) -> dict[str, list[float]]:
    def jobs(field, kind):
        return [x for r in runs for x in r[field][kind]]

    return {
        "setup_s": [r["setup_s"] for r in runs],
        "native_exec_ms": jobs("exec_ms", "native"),
        "unified_exec_ms": jobs("exec_ms", "unified"),
        "native_job_ms": jobs("job_ms", "native"),
        "unified_job_ms": jobs("job_ms", "unified"),
        "wall_s": [r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def layer_values(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, int]]:
    """name -> (median, sample count). Per-job metrics come from the timed
    jobs of traced runs; whole phases, GC and sf from untraced runs."""
    out = {}

    def job_values(name, kind):
        return [j["metrics"][name] for r in traced for j in r["jobs"]
                if j["kind"] == kind and name in j["metrics"]]

    def put(name, values):
        out[name] = (median(values), len(values))

    for name, _ in PER_JOB:
        for kind in API_KINDS:
            if name == "harness.tracing_overhead":
                with_trace = [x for r in traced for x in r["job_ms"][kind]]
                without = [x for r in untraced for x in r["job_ms"][kind]]
                ratio = median(with_trace) / median(without) if without else 0.0
                out[f"{name}.{kind}"] = (ratio, len(with_trace))
            else:
                put(f"{name}.{kind}", job_values(name, kind))

    put("broker.retained_topics", [r["retained_topics"] for r in traced])
    put("broker.retained_records", [r["retained_records"] for r in traced])
    put("corpus.generate_s", [r["corpus_generate_s"] for r in traced])
    put("corpus.send_s", [r["corpus_send_s"] for r in traced])
    for name in ("unified.translate_ms", "unified.codec.calls", "unified.codec.ms"):
        put(name, job_values(name, "unified"))
    ipr = {k: out[f"topology.invocations_per_record.{k}"] for k in API_KINDS}
    out["unified.invocation_ratio"] = (
        ipr["unified"][0] / ipr["native"][0] if ipr["native"][0] else 0.0, ipr["unified"][1]
    )
    put("unified.sf", [r["sf"] for r in untraced if r["sf"] is not None])
    e2e = end_to_end(untraced)
    out["unified.overhead_ms"] = (
        e2e["unified_exec_ms"][0] - e2e["native_exec_ms"][0], e2e["unified_exec_ms"][1]
    )
    put("harness.execute_phase_s", [r["execute_phase_s"] for r in untraced])
    put("harness.gc_collections", [r["gc_collections"] for r in untraced])
    put("harness.gc_pause_ms", [r["gc_pause_ms"] for r in untraced])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, records: int,
                 hard_end: float) -> dict:
    started = time.monotonic()
    results, errors = measure(workload, seed, seconds, trace, records, hard_end)
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    tails = {}
    if trace:
        units = dict(per_layer_metrics())
        values = layer_values(untraced, traced) if traced and untraced else {}
    else:
        units = dict(END_TO_END)
        values = end_to_end(untraced) if untraced else {}
        tails = {n: tail(v) for n, v in e2e_samples(untraced).items()}
    attempted = sum(r["attempted"] for r in results) + len(errors)
    failed = sum(r["failed"] for r in results) + len(errors)
    reasons = [f for r in results for f in r["failures"]] + errors
    calibration = [c for r in results for c in r["calibration_ms"]]
    return {
        "workload": workload,
        "correct": failed == 0 and bool(values),
        "attempted": max(attempted, 1),
        "failed": failed if values else max(failed, 1),
        "failures": reasons,
        "metrics": {
            n: {"value": values.get(n, (0.0, 0))[0], "unit": u,
                "samples": values.get(n, (0.0, 0))[1], "tail": tails.get(n)}
            for n, u in units.items()
        },
        "meta": {
            "seed": seed,
            "records": records,
            "timed_runs": TIMED_RUNS,
            "warmup_runs": WARMUP_RUNS,
            "workload_runs": len(results),
            "traced_runs": len(traced),
            "seconds": seconds,
            "elapsed_s": time.monotonic() - started,
            # The host's speed while this ran: not a metric, but a change
            # between two benchmark runs says their times differ by host.
            "calibration_ms": median(calibration),
            "calibration_min_ms": min(calibration, default=0.0),
            "calibration_max_ms": max(calibration, default=0.0),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
        },
        "runs": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="streamlab benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, default=RECORDS,
                        help="corpus size of one workload run (tests use a small one)")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"streamlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    started = time.monotonic()
    hard_end = started + RUN_LIMIT_S
    summaries = []
    for i, name in enumerate(names):
        # What is left of --seconds, shared among the workloads still to run.
        seconds = (started + args.seconds - time.monotonic()) / (len(names) - i)
        summary = run_workload(
            name, args.seed, max(seconds, 0.0), bool(args.trace), args.records, hard_end
        )
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(summary, indent=1))
        meta = summary["meta"]
        print(f"{name}: " + " ".join(f"{k}={meta[k]}" for k in meta))
        for metric, m in summary["metrics"].items():
            line = f"{name:20s} {metric:40s} {m['value']:14.4f} {m['unit']:6s} n={m['samples']}"
            if m["tail"]:
                line += " p{:.0f}={:.4f}".format(*m["tail"])
            print(line)
        for reason in summary["failures"]:
            print(f"{name}: FAILED {reason}")
        summaries.append(summary)

    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{n}" if prefix else n): {"value": m["value"], "unit": m["unit"]}
            for s in summaries for n, m in s["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
