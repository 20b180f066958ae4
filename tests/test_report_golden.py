"""Golden report artifacts.

A fixed, hand-built set of runs goes through `build_slowdown_report`
and `emit_report`, and the `results.csv`, `stats.csv`, `slowdown.csv`
and `report.md` it writes are compared byte for byte with
tests/golden_report.txt. No run is timed, so the file is exact. The
runs cover both engines, both API kinds, identity and grep at
parallelisms 1 and 2, in the default engine and query order, which is
not lexicographic. They include a native mean of 0 (tuple grep) and
mismatched parallelisms (microbatch grep), which leave two slowdowns
undefined, degenerate one-output runs, a setup with a single run and
means that round at 3 and 6 decimals. A refactor of the statistics or
the emission cannot change an artifact silently. To regenerate the
file after an intended change of the artifacts:

    PYTHONPATH=src python tests/test_report_golden.py > tests/golden_report.txt
"""

import sys
import tempfile
from pathlib import Path

from streamlab.corpus import CorpusSpec
from streamlab.harness import (
    BenchmarkConfig,
    RunResult,
    Setup,
    build_slowdown_report,
    emit_report,
)
from streamlab.queries import ApiKind, EngineKind, QueryKind

GOLDEN = Path(__file__).with_name("golden_report.txt")

CONFIG = BenchmarkConfig(CorpusSpec(n_records=501), output_dir=Path("bench-out"))

T, M = EngineKind.TUPLE, EngineKind.MICROBATCH
N, U = ApiKind.NATIVE, ApiKind.UNIFIED
IDENTITY, GREP = QueryKind.IDENTITY, QueryKind.GREP

# (engine, api kind, query, parallelism): [(exec_time_ms, records_out), ...]
RUNS = {
    (T, N, IDENTITY, 1): [(3, 501), (4, 501), (4, 501)],
    (T, N, IDENTITY, 2): [(2, 501), (3, 501)],
    (T, U, IDENTITY, 1): [(10, 501), (11, 501), (11, 501)],
    (T, U, IDENTITY, 2): [(7, 501)],
    (T, N, GREP, 1): [(0, 1), (0, 2)],
    (T, U, GREP, 1): [(1, 2), (0, 1)],
    (M, N, IDENTITY, 1): [(5, 501), (6, 501), (8, 501)],
    (M, N, IDENTITY, 2): [(4, 501), (5, 501)],
    (M, U, IDENTITY, 1): [(9, 501), (9, 501), (10, 501)],
    (M, U, IDENTITY, 2): [(6, 501), (7, 501)],
    (M, N, GREP, 1): [(2, 2), (3, 2)],
    (M, N, GREP, 2): [(2, 1)],
    (M, U, GREP, 1): [(3, 2), (4, 2)],
}

ARTIFACTS = ("results.csv", "stats.csv", "slowdown.csv", "report.md")


def golden_results() -> list[RunResult]:
    return [
        RunResult(Setup(*key), i, exec_time_ms, records_out)
        for key, runs in RUNS.items()
        for i, (exec_time_ms, records_out) in enumerate(runs)
    ]


def render_report(out_dir: Path) -> bytes:
    results = golden_results()
    emit_report(build_slowdown_report(CONFIG, results), results, out_dir)
    return b"".join(
        b"==> " + name.encode() + b" <==\n" + (out_dir / name).read_bytes()
        for name in ARTIFACTS
    )


def test_report_artifacts_match_golden(tmp_path):
    assert render_report(tmp_path) == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.buffer.write(render_report(Path(tmp)))
