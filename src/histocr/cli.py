"""Command-line entry point wiring the pipeline stages.

Subcommands: run (full pipeline), clean, correct, diff, classify, apply,
report. Exit codes: 0 success, 1 fatal error, 2 in strict mode when a stage
skipped an input line or a record failed (the count every stage returns).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import pipeline
from .applier import SpanIntegrityError
from .classify import classify_hunks
from .config import BACKEND_KINDS, PipelineConfig, load_config, with_overrides
from .diffing import diff_words, format_hunk, tokenize_words
from .records import CorpusError


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=BACKEND_KINDS, default=None)
    parser.add_argument(
        "--fixtures", dest="mock_fixtures", default=None, help="mock backend fixture file"
    )
    parser.add_argument("--endpoint", default=None, help="http backend URL")
    parser.add_argument("--model", default=None, help="http backend model name")
    parser.add_argument("--api-key-env", default=None, help="env var holding the API key")
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--retry-attempts", type=int, default=None)
    parser.add_argument("--max-chars", type=int, default=None)
    parser.add_argument(
        "--dry-run", action="store_true", help="skip backend calls (identity backend)"
    )


def _add_classify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules", dest="rules_path", default=None, help="rules table file (default: shipped table)"
    )
    parser.add_argument("--ratio-threshold", type=float, default=None)
    parser.add_argument("--max-words", dest="max_corrected_words", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histocr",
        description="Post-OCR correction and surface-form extraction for historical Spanish corpora.",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--strict", action="store_true", default=None, help="non-zero exit on partial failures"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline: clean, correct, classify, apply, report")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--output", dest="output_dir", required=True, help="output directory for all artifacts"
    )
    p.add_argument("--min-tokens", type=int, default=None)
    p.add_argument("--max-nonalpha", type=float, default=None)
    p.add_argument("--modernize", action="store_true", default=None)
    _add_backend_flags(p)
    _add_classify_flags(p)

    p = sub.add_parser("clean", help="apply the three cleaning filters")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--removed", default=None, help="file for removed records")
    p.add_argument("--report", default=None, help="cleaning report file")
    p.add_argument("--min-tokens", type=int, default=None)
    p.add_argument("--max-nonalpha", type=float, default=None)
    p.add_argument(
        "--count-whitespace",
        action="store_true",
        default=None,
        help="count whitespace in the non-alphabetic ratio denominator",
    )

    p = sub.add_parser("correct", help="fetch corrected candidates from the backend")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_backend_flags(p)

    p = sub.add_parser("diff", help="debug: print word-level hunks between two text files")
    p.add_argument("--original", required=True)
    p.add_argument("--corrected", required=True)

    p = sub.add_parser("classify", help="diff and label corrections")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_classify_flags(p)

    p = sub.add_parser("apply", help="apply OCR-error corrections and emit the lexicon")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--lexicon-nonaccent", default=None)
    p.add_argument("--modernize", action="store_true", default=None)

    p = sub.add_parser("report", help="compute run statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "structured"), default="structured")

    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    # flags share their destination names with the config fields they set
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    if getattr(args, "dry_run", False):
        overrides["backend"] = "identity"
    return with_overrides(config, **overrides)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _require_input(path: str) -> None:
    if not Path(path).is_file():
        raise CorpusError(f"input file not found: {path}")


def _read_text(path: str) -> str:
    _require_input(path)
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"cannot decode {path} as UTF-8: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    try:
        config = _build_config(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    errors = config.validate()
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1

    try:
        if args.command == "diff":
            original, corrected = _read_text(args.original), _read_text(args.corrected)
            hunks = diff_words(tokenize_words(original), tokenize_words(corrected))
            for hunk in hunks:
                print(format_hunk(hunk))
            if args.verbose:
                rules = pipeline.rule_table(config)
                for corr in classify_hunks(hunks, rules, pipeline.classifier_config(config)):
                    print(f"  {corr.original!r} -> {corr.corrected!r}: {corr.label} via {corr.rule}")
            return 0

        # every other command reads the file named by --input
        _require_input(config.input)
        if args.command == "run":
            return pipeline.run_pipeline(config)
        if args.command == "clean":
            problems = pipeline.stage_clean(
                config, args.input, args.output, removed_path=args.removed, report_path=args.report
            )
        elif args.command == "correct":
            problems = pipeline.stage_correct(config, args.input, args.output)
        elif args.command == "classify":
            problems = pipeline.stage_classify(config, args.input, args.output)
        elif args.command == "apply":
            problems = pipeline.stage_apply(
                config, args.input, args.output, args.lexicon, args.lexicon_nonaccent
            )
        else:  # report; the subparsers are required, so nothing else gets here
            problems = pipeline.stage_report(
                config,
                args.input,
                json_path=args.out if args.format == "structured" else None,
                text_path=args.out if args.format == "text" else None,
            )
    except (CorpusError, SpanIntegrityError, ValueError, OSError) as exc:
        return _fail(str(exc))
    return 2 if config.strict and problems else 0


if __name__ == "__main__":
    sys.exit(main())
