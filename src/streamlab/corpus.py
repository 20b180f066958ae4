"""Synthetic search-log workload generator and its sender into the broker.

Records follow the five-column tab-separated search-log layout
(user id, query text, query time, optional click rank, optional click
URL). The generator is a pure function of its spec: a fixed seed yields
a bit-identical corpus, with an exact number of rows whose query text
contains the grep needle and a guarantee that no other row contains it
anywhere in its serialized form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Sequence

from .broker import LogBroker

DEFAULT_SEED = 20060301

# Row-count-to-match ratio the default match count is scaled from.
MATCH_RATIO_NUM = 3003
MATCH_RATIO_DEN = 1_000_001


class CorpusError(Exception):
    pass


class MalformedRecordError(CorpusError):
    def __init__(self, column_count: int):
        super().__init__(f"expected 5 tab-separated columns, got {column_count}")
        self.column_count = column_count


class TopicNotEmptyError(CorpusError):
    pass


@dataclass(frozen=True)
class SearchLogRecord:
    user_id: str
    query_text: str
    query_time: str
    click_rank: int | None = None
    click_url: str | None = None

    def __post_init__(self):
        if not self.user_id or not self.user_id.isdigit():
            raise ValueError("user_id must be a non-empty digit string")
        if "\t" in self.query_text or "\n" in self.query_text:
            raise ValueError("query_text must not contain tabs or newlines")
        if self.click_rank is not None and self.click_rank < 1:
            raise ValueError("click_rank must be a positive integer")


@dataclass(frozen=True)
class CorpusSpec:
    n_records: int
    grep_needle: str = "test"
    grep_match_count: int | None = None
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n_records < 1:
            raise ValueError("n_records must be positive")
        if not self.grep_needle:
            raise ValueError("grep_needle must be non-empty")
        if self.grep_match_count is not None and self.grep_match_count < 0:
            raise ValueError("grep_match_count must be non-negative")
        if self.resolved_match_count() > self.n_records:
            raise ValueError("grep_match_count may not exceed n_records")

    def resolved_match_count(self) -> int:
        if self.grep_match_count is not None:
            return self.grep_match_count
        return round(self.n_records * MATCH_RATIO_NUM / MATCH_RATIO_DEN)


def serialize_record(record: SearchLogRecord) -> bytes:
    rank = "" if record.click_rank is None else str(record.click_rank)
    url = record.click_url or ""
    line = "\t".join(
        (record.user_id, record.query_text, record.query_time, rank, url)
    )
    return line.encode("utf-8")


def parse_record(data: bytes) -> SearchLogRecord:
    columns = data.decode("utf-8").split("\t")
    if len(columns) != 5:
        raise MalformedRecordError(len(columns))
    user_id, query_text, query_time, rank, url = columns
    return SearchLogRecord(
        user_id=user_id,
        query_text=query_text,
        query_time=query_time,
        click_rank=int(rank) if rank else None,
        click_url=url or None,
    )


# Query vocabulary; filtered against the needle before use so planted
# matches are the only source of needle occurrences.
_VOCABULARY = (
    "flowers", "weather", "maps", "lyrics", "recipes", "hotels", "movies",
    "horoscope", "dictionary", "airline", "flights", "jobs", "games",
    "music", "pictures", "coupons", "furniture", "insurance", "mortgage",
    "yellow", "pages", "county", "school", "florida", "chicago", "house",
    "baby", "names", "dogs", "craigslist", "ebay", "google", "yahoo",
    "myspace", "bank", "america", "walmart", "zip", "code", "phone",
    "numbers", "cheap", "tickets", "cars", "used", "parts", "repair",
    "garden", "plants", "shoes", "dresses", "wedding", "rings", "beach",
)

_TIME_BASE = datetime(2006, 3, 1)
_TIME_SPAN_SECONDS = 90 * 24 * 3600

_MAX_DRAW_ATTEMPTS = 100


def _draw_record(rng: random.Random, words: Sequence[str], needle: str | None) -> SearchLogRecord:
    tokens = [rng.choice(words) for _ in range(rng.randint(1, 4))]
    if needle is not None:
        tokens.insert(rng.randint(0, len(tokens)), needle)
    when = _TIME_BASE + timedelta(seconds=rng.randrange(_TIME_SPAN_SECONDS))
    clicked = rng.random() < 0.5
    return SearchLogRecord(
        user_id=str(rng.randrange(100, 25_000_000)),
        query_text=" ".join(tokens),
        query_time=when.strftime("%Y-%m-%d %H:%M:%S"),
        click_rank=rng.randint(1, 10) if clicked else None,
        click_url=f"www.{rng.choice(words)}.com" if clicked else None,
    )


def generate_corpus(spec: CorpusSpec) -> list[SearchLogRecord]:
    """Generate exactly spec.n_records records, exactly
    resolved_match_count of which contain the needle (in query_text);
    the serialized form of every other record is needle-free.

    Deterministic: the output is a pure function of the spec.
    """
    rng = random.Random(spec.rng_seed)
    needle = spec.grep_needle
    words = tuple(w for w in _VOCABULARY if needle not in w)
    if not words:
        raise CorpusError(f"needle {needle!r} occurs in every vocabulary word")

    match_rows = set(rng.sample(range(spec.n_records), spec.resolved_match_count()))
    records = []
    for i in range(spec.n_records):
        is_match = i in match_rows
        for _ in range(_MAX_DRAW_ATTEMPTS):
            record = _draw_record(rng, words, needle if is_match else None)
            if (needle in serialize_record(record).decode("utf-8")) == is_match:
                break
        else:
            raise CorpusError(
                f"could not generate a needle-free record for needle {needle!r}"
            )
        records.append(record)
    return records


def write_corpus(records: Iterable[SearchLogRecord], path: Path | str) -> int:
    """Write records as newline-delimited serialized lines; returns the
    row count. Bit-exact with the payloads the sender appends."""
    count = 0
    with open(path, "wb") as fh:
        for record in records:
            fh.write(serialize_record(record))
            fh.write(b"\n")
            count += 1
    return count


@dataclass(frozen=True)
class IngestSummary:
    count: int
    first_ts: int | None
    last_ts: int | None


def send(
    records: Sequence[SearchLogRecord],
    broker: LogBroker,
    topic_name: str,
) -> IngestSummary:
    """Append all records to partition 0 of an existing, empty topic,
    in corpus order."""
    topic = broker.topic(topic_name)
    if topic.high_water_mark(0) != 0:
        raise TopicNotEmptyError(f"topic {topic_name!r} already holds records")

    for record in records:
        topic.append(0, serialize_record(record))

    count = topic.high_water_mark(0)
    if count == 0:
        return IngestSummary(0, None, None)
    first_ts, last_ts = topic.boundary_timestamps(0)
    return IngestSummary(count, first_ts, last_ts)
