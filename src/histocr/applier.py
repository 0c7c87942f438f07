"""Final text assembly and the surface-form lexicon.

Only corrections labeled as OCR errors are spliced into the text; surface
forms stay as written (they are part of the language) and hallucinations are
discarded. Characters outside the applied word spans are preserved byte for
byte.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .classify import OCR_ERROR, SURFACE_FORM, ClassifiedCorrection
from .records import write_artifact

_WORD_SPAN_RE = re.compile(r"\S+")


class SpanIntegrityError(Exception):
    """A correction's span no longer matches the text it was derived from."""


class _SurfaceFormEntryFields(NamedTuple):
    original: str
    modern: str
    rule: str
    frequency: int
    accent_only: bool


class SurfaceFormEntry(_SurfaceFormEntryFields):
    """One lexicon row: historical form, modern form, rule, corpus frequency."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.original == self.modern:
            raise ValueError("surface form entry with identical forms")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")


def apply_corrections(
    original: str,
    corrections: Iterable[ClassifiedCorrection],
    modernize: bool = False,
) -> str:
    """Splice OCR-error corrections into the original text.

    Surface-form and hallucination corrections leave the text untouched
    unless ``modernize`` also applies the surface forms (non-default: the
    standard output keeps historical spelling). Casing outside the applied
    spans is the original's; inside them, the model's. Application proceeds
    right to left over word spans so earlier replacements never shift later
    ones.
    """
    labels = {OCR_ERROR, SURFACE_FORM} if modernize else {OCR_ERROR}
    applicable = [c for c in corrections if c.label in labels]
    if not applicable:
        return original

    spans = [m.span() for m in _WORD_SPAN_RE.finditer(original)]
    result = original
    last_start = len(spans) + 1
    for corr in sorted(applicable, key=lambda c: c.original_span, reverse=True):
        start, end = corr.original_span
        if not corr.original_raw or not corr.corrected_raw:
            raise SpanIntegrityError(
                f"cannot apply insertion/deletion at words [{start},{end})"
            )
        if not 0 <= start < end <= len(spans):
            raise SpanIntegrityError(f"word span [{start},{end}) outside text")
        if end > last_start:
            raise SpanIntegrityError(f"overlapping correction at words [{start},{end})")
        found = " ".join(original[s:e] for s, e in spans[start:end])
        if found != corr.original_raw:
            raise SpanIntegrityError(
                f"stale correction at words [{start},{end}): "
                f"expected {corr.original_raw!r}, found {found!r}"
            )
        char_start = spans[start][0]
        char_end = spans[end - 1][1]
        result = result[:char_start] + corr.corrected_raw + result[char_end:]
        last_start = start
    return result


def emit_lexicon(
    corrections: Iterable[ClassifiedCorrection],
) -> tuple[list[SurfaceFormEntry], list[SurfaceFormEntry]]:
    """Distinct surface-form pairs with corpus frequencies.

    Returns the full lexicon and the non-accent sublist (forms whose
    variation is not purely diacritical), both ordered by frequency
    descending then original form ascending.
    """
    counted: dict[tuple[str, str], tuple[str, bool, int]] = {}
    for corr in corrections:
        if corr.label != SURFACE_FORM:
            continue
        key = (corr.original, corr.corrected)
        rule, accent_only, count = counted.get(key, (corr.rule, corr.accent_only, 0))
        counted[key] = (rule, accent_only, count + 1)
    entries = [
        SurfaceFormEntry(original, modern, rule, count, accent_only)
        for (original, modern), (rule, accent_only, count) in counted.items()
    ]
    entries.sort(key=lambda e: (-e.frequency, e.original, e.modern))
    return entries, [e for e in entries if not e.accent_only]


def write_lexicon(entries: list[SurfaceFormEntry], path: str | Path) -> None:
    """Tab-separated lexicon with a header row, stable ordering."""
    lines = ["original\tmodern\trule\tfrequency\taccent_only\n"]
    for entry in entries:
        lines.append(
            f"{entry.original}\t{entry.modern}\t{entry.rule}\t"
            f"{entry.frequency}\t{'true' if entry.accent_only else 'false'}\n"
        )
    write_artifact(path, lines)

