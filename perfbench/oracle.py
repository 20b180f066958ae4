"""Expected outputs, computed by the benchmark without the program's
query code, and the failure accounting of one workload run."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

SAMPLE_PROBABILITY = 0.4


class OracleError(Exception):
    """The corpus does not have the shape the workload relies on."""


def sample_keeps(seed: int, index: int) -> bool:
    """Whether the sample query keeps source element `index`: the first
    eight bytes of SHA-256(b"sample:<seed>:<index>") fall below 0.4 * 2**64."""
    digest = hashlib.sha256(b"sample:%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:8], "big") < SAMPLE_PROBABILITY * 2**64


def expected_output(
    query: str,
    payloads: list[bytes],
    *,
    seed: int,
    needle: bytes,
    match_count: int,
) -> Counter:
    """The multiset of payloads `query` must emit for the corpus `payloads`."""
    if query == "identity":
        return Counter(payloads)
    if query == "grep":
        kept = [p for p in payloads if needle in p]
        if len(kept) != match_count:
            raise OracleError(
                f"corpus holds {len(kept)} records with {needle!r}, spec says {match_count}"
            )
        return Counter(kept)
    if query == "sample":
        return Counter(p for i, p in enumerate(payloads) if sample_keeps(seed, i))
    raise ValueError(f"no oracle for query {query!r}")


@dataclass
class Accounting:
    """Runs attempted and failed in one workload run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    def timed_run(self, label: str, records_out: int, expected: Counter) -> None:
        want = sum(expected.values())
        self.record(records_out == want, f"{label}: records_out {records_out} != {want}")

    def output(self, label: str, written: list[bytes], expected: Counter) -> None:
        got = Counter(written)
        missing = sum((expected - got).values())
        extra = sum((got - expected).values())
        self.record(
            missing == 0 and extra == 0,
            f"{label}: {missing} expected records missing, {extra} unexpected",
        )
