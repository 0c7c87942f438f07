"""Corpus- and run-level statistics over the processed output.

The report is a pure function of the pipeline outputs: identical inputs
produce byte-identical report files. Word counts come from whitespace
tokenization; token counts use the configured tokenizer and are labeled with
its id, since they are not comparable across tokenizers.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from .applier import emit_lexicon
from .classify import HALLUCINATION, OCR_ERROR, SURFACE_FORM
from .cleaning import TOKENIZERS, count_tokens
from .records import (
    STATUS_CLEANED_OUT,
    STATUS_CORRECTED,
    STATUS_EXCLUDED_CONTENT_POLICY,
    CandidateRecord,
    write_artifact,
    write_json,
)

UNKNOWN = "unknown"


def build_report(
    processed: list[CandidateRecord],
    tokenizer_id: str = "unicode_words",
) -> dict:
    """Aggregate statistics over processed records, as ``report.json`` holds them.

    Rows that were cleaned out are ignored; the row universe is everything
    that entered the correction stage. Text measures use the final corrected
    text where available, the original otherwise. Records without a year are
    excluded from the decade histogram and counted separately; missing
    countries bucket under "unknown". ``tokens`` is counted by
    :func:`~histocr.cleaning.count_tokens`, which builds no token list for
    the built-in tokenizers. An unknown ``tokenizer_id`` is a
    ``ValueError``: the report would carry a label its counts do not match.
    """
    if tokenizer_id not in TOKENIZERS:
        raise ValueError(f"unknown tokenizer {tokenizer_id!r}; expected one of {sorted(TOKENIZERS)}")
    tokenizer = TOKENIZERS[tokenizer_id]
    rows = [p for p in processed if p.status != STATUS_CLEANED_OUT]

    words = 0
    tokens = 0
    newspapers: set[str] = set()
    years: list[int] = []
    rows_without_year = 0
    country_counts: dict[str, int] = {}
    decade_counts: dict[int, int] = {}
    corrections = []
    refused = 0

    for item in rows:
        record = item.record
        text = item.text_final if item.text_final is not None else record.text
        words += len(text.split())
        tokens += count_tokens(text, tokenizer)
        if record.newspaper:
            newspapers.add(record.newspaper)
        if record.year is not None:
            years.append(record.year)
            decade = record.decade
            assert decade is not None
            decade_counts[decade] = decade_counts.get(decade, 0) + 1
        else:
            rows_without_year += 1
        country = record.country or UNKNOWN
        country_counts[country] = country_counts.get(country, 0) + 1
        if item.status == STATUS_EXCLUDED_CONTENT_POLICY:
            refused += 1
        corrections.extend(item.corrections)

    label_counts = Counter(corr.label for corr in corrections)
    total_corrections = len(corrections)
    # counted as the lexicon counts them, so the report and the lexicon agree
    surface_forms, non_accent_surface_forms = emit_lexicon(corrections)

    def pct(n: int, total: int) -> float:
        return 100.0 * n / total if total else 0.0

    country_distribution = {
        country: pct(count, len(rows))
        for country, count in sorted(country_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    }
    return {
        "rows": len(rows),
        "words": words,
        "tokens": tokens,
        "tokenizer_id": tokenizer_id,
        "newspapers": len(newspapers),
        "year_range": [min(years), max(years)] if years else None,
        "rows_without_year": rows_without_year,
        "total_corrections": total_corrections,
        "surface_forms": len(surface_forms),
        "non_accent_surface_forms": len(non_accent_surface_forms),
        "pct_ocr_error": pct(label_counts[OCR_ERROR], total_corrections),
        "pct_hallucination": pct(label_counts[HALLUCINATION], total_corrections),
        "pct_surface_form": pct(label_counts[SURFACE_FORM], total_corrections),
        "pct_content_policy_excluded": pct(refused, len(rows)),
        "country_distribution": country_distribution,
        # numeric decade order; JSON object keys are strings
        "decade_distribution": {str(d): n for d, n in sorted(decade_counts.items())},
    }


def render_text(report: dict) -> str:
    """Human-readable rendering of :func:`build_report`'s dict; decades in its stored order."""
    lines = [
        "corpus report",
        "=============",
        f"rows:                        {report['rows']}",
        f"words:                       {report['words']}",
        f"tokens ({report['tokenizer_id']}): {report['tokens']}",
        f"newspapers:                  {report['newspapers']}",
    ]
    if report["year_range"]:
        lines.append(f"years:                       {report['year_range'][0]} - {report['year_range'][1]}")
    if report["rows_without_year"]:
        lines.append(f"rows without year:           {report['rows_without_year']}")
    lines += [
        f"total corrections:           {report['total_corrections']}",
        f"surface forms:               {report['surface_forms']}",
        f"non-accent surface forms:    {report['non_accent_surface_forms']}",
        f"% OCR error corrections:     {report['pct_ocr_error']:.2f}",
        f"% hallucinations detected:   {report['pct_hallucination']:.2f}",
        f"% surface form corrections:  {report['pct_surface_form']:.2f}",
        f"% content-policy excluded:   {report['pct_content_policy_excluded']:.2f}",
        "",
        "country distribution (%):",
    ]
    for country, share in report["country_distribution"].items():
        lines.append(f"  {country}: {share:.2f}")
    lines.append("")
    lines.append("decade distribution (rows):")
    for decade, count in report["decade_distribution"].items():
        lines.append(f"  {decade}: {count}")
    return "\n".join(lines) + "\n"


def write_report(report: dict, path: str | Path, fmt: str = "structured") -> None:
    """Write the report as JSON ("structured") or plain text."""
    if fmt == "structured":
        write_json(report, path)
    elif fmt == "text":
        write_artifact(path, [render_text(report)])
    else:
        raise ValueError(f"unknown report format {fmt!r}")
