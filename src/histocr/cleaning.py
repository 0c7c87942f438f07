"""Corpus cleaning: duplicate/empty removal, non-alphabetic filter, short-row filter.

The filters apply in a fixed order (duplicates/empty, then non-alphabetic,
then short rows), and a record takes the first that removes it; the report
tracks per-filter removal counts and percentages against the original total.
"""

from __future__ import annotations

import re
from itertools import islice
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


def count_tokens(text: str, tokenizer: Tokenizer, stop: int | None = None) -> int:
    """``len(tokenizer(text))``, or ``min(len(tokenizer(text)), stop)`` for a ``stop`` of at least 1.

    ``word_tokens`` is counted without building its token list, by counting
    its pattern's matches (at most ``stop`` of them). Any other tokenizer is
    called on the whole text and its list measured.
    """
    if tokenizer is word_tokens:
        return sum(1 for _ in islice(_WORD_RE.finditer(text), stop))
    count = len(tokenizer(text))
    return count if stop is None else min(count, stop)


def count_split_tokens(text: str, words: list[str], tokenizer: Tokenizer) -> int:
    """``count_tokens(text, tokenizer)``, given ``words``, which is ``text.split()``.

    ``word_tokens`` reads only the words: ``str.split`` splits at exactly the
    ``str.isspace()`` characters, none of which is alphanumeric, and
    ``str.isalnum()`` is exactly ``[^\\W_]``. So no token spans two words, an
    alphanumeric word is one token, and the other words hold the tokens of
    their text joined by spaces. ``str.split`` is ``len(words)``.
    """
    if tokenizer is word_tokens:
        rest = [word for word in words if not word.isalnum()]
        return len(words) - len(rest) + _WORD_RE.subn("", " ".join(rest))[1]
    return len(words) if tokenizer is str.split else count_tokens(text, tokenizer)


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


def clean_corpus(
    records: Sequence[CorpusRecord],
    min_tokens: int = 4,
    max_nonalpha: float = 0.5,
    count_whitespace: bool = False,
    tokenizer: Tokenizer = word_tokens,
) -> tuple[list[CorpusRecord], list[tuple[CorpusRecord, str]], dict]:
    """Run the three filters in one pass; return survivors, removals with reasons, report.

    Duplicate or empty: no text, or an earlier record's text (kept or not),
    once edge whitespace is trimmed. Non-alphabetic: strictly more than
    ``max_nonalpha`` of the characters are not letters. Short: ``min_tokens``
    or fewer tokens, counted by :func:`count_tokens` up to ``min_tokens + 1``,
    so ``word_tokens`` stops there and builds no token list; another
    ``tokenizer`` is called on the whole text. Removals are listed by
    reason, then in input order; the report (``cleaning_report.json``) gives
    each count, removals also in percent.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    seen: set[str] = set()
    kept: list[CorpusRecord] = []
    removed_by: dict[str, list[CorpusRecord]] = {REASON_DUPLICATE_OR_EMPTY: [], REASON_NON_ALPHABETIC: [], REASON_TOO_SHORT: []}
    dup, alpha, short = removed_by.values()
    for record in records:
        trimmed = record.text.strip()
        if not trimmed or trimmed in seen:
            dup.append(record)
            continue
        seen.add(trimmed)
        if non_alpha_ratio(record.text, count_whitespace) > max_nonalpha:
            alpha.append(record)
        elif count_tokens(record.text, tokenizer, min_tokens + 1) <= min_tokens:
            short.append(record)
        else:
            kept.append(record)
    removed = [(r, reason) for reason, rows in removed_by.items() for r in rows]
    total = len(records)

    def pct(n: int) -> float:
        return 100.0 * n / total if total else 0.0

    report = {
        "total_rows": total,
        "removed_duplicate_or_empty": len(dup),
        "pct_duplicate_or_empty": pct(len(dup)),
        "removed_non_alpha": len(alpha),
        "pct_non_alpha": pct(len(alpha)),
        "removed_short": len(short),
        "pct_short": pct(len(short)),
        "surviving": len(kept),
    }
    return kept, removed, report
