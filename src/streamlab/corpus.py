"""Synthetic search-log workload generator and its sender into the broker.

Records follow the five-column tab-separated search-log layout
(user id, query text, query time, optional click rank, optional click
URL). The generator is a pure function of its spec: a fixed seed yields
a bit-identical corpus, with an exact number of rows whose query text
contains the grep needle and a guarantee that no other row contains it
anywhere in its serialized form. Every value comes from one seeded
Mersenne-Twister stream (`random.Random`) in a fixed draw order: the
match rows through `sample`, the click coin through `random`, and
every other field through `getrandbits`, in CPython's own rejection
loop (what `randint`, `randrange` and `choice` reduce to) written
inline. A query time is a day table and a minute table lookup plus
the seconds. The corpus digests pinned in the tests, and a reference
generator written with the random module's own wrappers, guard that
stream and order; moving one draw changes every record after it and
fails them. The payloads are the canonical form: `iter_payloads`
formats each line once as bytes, tests the needle on it and yields it,
so the sender appends a corpus of any size without holding it or
building a record; `generate_corpus` parses the same payloads into
validated `SearchLogRecord`s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Iterator

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
        if "\t" in self.grep_needle or "\n" in self.grep_needle:
            raise ValueError("grep_needle must not contain tabs or newlines")
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
# b"YYYY-MM-DD " for each day of the span and b"HH:MM:" for each minute
# of a day, so a query time is two table lookups plus divmod instead of
# datetime arithmetic and strftime.
_DAY_PREFIXES = tuple(
    (_TIME_BASE + timedelta(days=d)).strftime("%Y-%m-%d ").encode()
    for d in range(_TIME_SPAN_SECONDS // 86400)
)
_MINUTE_PREFIXES = tuple(b"%02d:%02d:" % divmod(m, 60) for m in range(1440))

_USER_IDS = 24_999_900  # user ids are 100 + a draw below this
_MAX_DRAW_ATTEMPTS = 100


def iter_payloads(spec: CorpusSpec) -> Iterator[bytes]:
    """Yield exactly spec.n_records serialized records, one at a time,
    exactly resolved_match_count of which contain the needle (in the
    query text); every other payload is needle-free. The payloads are a
    pure function of the spec; only the set of match rows is held."""
    rng = random.Random(spec.rng_seed)
    needle = spec.grep_needle
    needle_bytes = needle.encode("utf-8")
    words = tuple(w.encode() for w in _VOCABULARY if needle not in w)
    if not words:
        raise CorpusError(f"needle {needle!r} occurs in every vocabulary word")
    n_words, span = len(words), _TIME_SPAN_SECONDS
    day_prefixes, minute_prefixes = _DAY_PREFIXES, _MINUTE_PREFIXES

    match_rows = set(rng.sample(range(spec.n_records), spec.resolved_match_count()))
    getrandbits, uniform = rng.getrandbits, rng.random

    # CPython's Random._randbelow_with_getrandbits, to which randint,
    # randrange and choice all reduce: drawing through it consumes the
    # same stream, in the same order, as those wrappers. The loop below
    # writes it inline as `r = getrandbits(k)` while r >= n, with each
    # fixed bound's k computed here once.
    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    k_count, k_word, k_span, k_user, k_rank = (
        n.bit_length() for n in (4, n_words, span, _USER_IDS, 10)
    )
    for i in range(spec.n_records):
        is_match = i in match_rows
        attempts = 0
        while True:
            # The draw order is part of the corpus: token count, tokens,
            # needle slot (match rows), time offset, click coin, user id,
            # then rank and URL (clicked rows).
            count = getrandbits(k_count)
            while count >= 4:
                count = getrandbits(k_count)
            tokens = []
            for _ in range(1 + count):
                w = getrandbits(k_word)
                while w >= n_words:
                    w = getrandbits(k_word)
                tokens.append(words[w])
            if is_match:
                tokens.insert(below(len(tokens) + 1), needle_bytes)
            t = getrandbits(k_span)
            while t >= span:
                t = getrandbits(k_span)
            minutes, second = divmod(t, 60)
            day, minute = divmod(minutes, 1440)
            clicked = uniform() < 0.5
            user = getrandbits(k_user)
            while user >= _USER_IDS:
                user = getrandbits(k_user)
            if clicked:
                rank = getrandbits(k_rank)
                while rank >= 10:
                    rank = getrandbits(k_rank)
                w = getrandbits(k_word)
                while w >= n_words:
                    w = getrandbits(k_word)
                payload = b"%d\t%s\t%s%s%02d\t%d\twww.%s.com" % (
                    100 + user, b" ".join(tokens), day_prefixes[day],
                    minute_prefixes[minute], second, 1 + rank, words[w])
            else:
                payload = b"%d\t%s\t%s%s%02d\t\t" % (
                    100 + user, b" ".join(tokens), day_prefixes[day],
                    minute_prefixes[minute], second)
            if (needle_bytes in payload) == is_match:
                break
            attempts += 1
            if attempts == _MAX_DRAW_ATTEMPTS:
                raise CorpusError(
                    f"could not generate a needle-free record for needle {needle!r}"
                )
        yield payload


def generate_corpus(spec: CorpusSpec) -> list[SearchLogRecord]:
    """The payloads of iter_payloads(spec), parsed into records."""
    return [parse_record(p) for p in iter_payloads(spec)]


def send(
    payloads: Iterable[bytes],
    broker: LogBroker,
    topic_name: str,
) -> int:
    """Append all payloads to partition 0 of an existing, empty topic,
    in order, and return how many were appended. Each payload is
    appended as it is taken from payloads, so a generator is sent
    without being held."""
    topic = broker.topic(topic_name)
    if topic.high_water_mark(0) != 0:
        raise CorpusError(f"topic {topic_name!r} already holds records")
    append = topic.append
    for payload in payloads:
        append(0, payload)
    return topic.high_water_mark(0)
