"""Corpus cleaning: duplicate/empty removal, non-alphabetic filter, short-row filter.

The filters apply in a fixed order (duplicates/empty, then non-alphabetic,
then short rows) and each partitions its input; the report tracks per-filter
removal counts and percentages against the original row total.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

from .records import CorpusRecord

Tokenizer = Callable[[str], list[str]]

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

REASON_DUPLICATE_OR_EMPTY = "duplicate_or_empty"
REASON_NON_ALPHABETIC = "non_alphabetic"
REASON_TOO_SHORT = "too_short"


def word_tokens(text: str) -> list[str]:
    """Default tokenizer: runs of Unicode letters/digits.

    Stands in for the subword tokenizer used to produce the published token
    counts; anything with the same ``str -> list[str]`` shape can be plugged
    in instead, so reported token counts are labeled with the tokenizer id.
    """
    return _WORD_RE.findall(text)


TOKENIZERS: dict[str, Tokenizer] = {
    "unicode_words": word_tokens,
    "whitespace": str.split,
}


def _partition(
    records: Sequence[CorpusRecord], drop: Callable[[CorpusRecord], bool]
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Split records, in input order, into those kept and those ``drop`` removes."""
    kept: list[CorpusRecord] = []
    removed: list[CorpusRecord] = []
    for record in records:
        (removed if drop(record) else kept).append(record)
    return kept, removed


def filter_duplicates_and_empty(
    records: Sequence[CorpusRecord],
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Drop empty/whitespace-only texts and exact repeats of earlier texts.

    Duplicate means byte-identical text after trimming leading/trailing
    whitespace; the first occurrence is kept. Decisions are made in input
    order so "first occurrence wins" is deterministic.
    """
    seen: set[str] = set()

    def drop(record: CorpusRecord) -> bool:
        trimmed = record.text.strip()
        if not trimmed or trimmed in seen:
            return True
        seen.add(trimmed)
        return False

    return _partition(records, drop)


def non_alpha_ratio(text: str, count_whitespace: bool = False) -> float:
    """Fraction of characters that are not Unicode letters.

    Whitespace is excluded from the denominator unless ``count_whitespace``;
    an empty denominator yields 0.0.
    """
    # each distinct non-letter is counted once by ``str.count``; no letter is whitespace
    total, non_alpha = len(text), 0
    for c in set(text):
        if not c.isalpha():
            if count_whitespace or not c.isspace():
                non_alpha += text.count(c)
            else:
                total -= text.count(c)
    return non_alpha / total if total else 0.0


def filter_non_alphabetic(
    records: Sequence[CorpusRecord],
    max_ratio: float = 0.5,
    count_whitespace: bool = False,
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Drop records where strictly more than ``max_ratio`` of characters are non-letters.

    Accented letters and ñ count as alphabetic; digits, punctuation and
    symbols do not. A record sitting exactly on the threshold is kept.
    """
    return _partition(records, lambda r: non_alpha_ratio(r.text, count_whitespace) > max_ratio)


def filter_short(
    records: Sequence[CorpusRecord],
    min_tokens: int = 4,
    tokenizer: Tokenizer = word_tokens,
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Drop records with ``min_tokens`` or fewer tokens."""
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    return _partition(records, lambda r: len(tokenizer(r.text)) <= min_tokens)


def clean_corpus(
    records: Sequence[CorpusRecord],
    min_tokens: int = 4,
    max_nonalpha: float = 0.5,
    count_whitespace: bool = False,
    tokenizer: Tokenizer = word_tokens,
) -> tuple[list[CorpusRecord], list[tuple[CorpusRecord, str]], dict]:
    """Run the three filters in order; return survivors, removals with reasons, report.

    The report is what ``cleaning_report.json`` holds: the counts, each removal
    also as a percentage of ``total_rows``.
    """
    kept, dup_removed = filter_duplicates_and_empty(records)
    kept, alpha_removed = filter_non_alphabetic(kept, max_nonalpha, count_whitespace)
    kept, short_removed = filter_short(kept, min_tokens, tokenizer)
    removed = (
        [(r, REASON_DUPLICATE_OR_EMPTY) for r in dup_removed]
        + [(r, REASON_NON_ALPHABETIC) for r in alpha_removed]
        + [(r, REASON_TOO_SHORT) for r in short_removed]
    )
    total = len(records)

    def pct(n: int) -> float:
        return 100.0 * n / total if total else 0.0

    report = {
        "total_rows": total,
        "removed_duplicate_or_empty": len(dup_removed),
        "pct_duplicate_or_empty": pct(len(dup_removed)),
        "removed_non_alpha": len(alpha_removed),
        "pct_non_alpha": pct(len(alpha_removed)),
        "removed_short": len(short_removed),
        "pct_short": pct(len(short_removed)),
        "surviving": len(kept),
    }
    return kept, removed, report
