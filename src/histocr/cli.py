"""Command-line entry point wiring the pipeline stages.

Subcommands: run (full pipeline), the stages clean, correct, classify, apply
and report, and the debug helper diff, each a row of one table of flag groups.
``run`` and every stage take ``--input FILE --output DIR``; a stage writes its
artifacts into DIR under the names ``run`` gives them (see
:mod:`histocr.pipeline`). Every flag sets the config field named by its dest;
the global flags ``--config``, ``--verbose`` and ``--strict`` are accepted
before or after the command. Exit codes: 0 success; 1 fatal, a code fault too
(one ``error:`` line naming its stage and record, or the command); 2 in strict
mode on a skipped input line, a failed record or a row left out; 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import pipeline
from .classify import classify_hunks
from .config import BACKEND_KINDS, PipelineConfig, load_config
from .diffing import diff_words, format_hunk, tokenize_words
from .records import CorpusError


def _global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--verbose", action="store_true", help="debug logging; diff also prints labels and rules")
    parser.add_argument("--strict", action="store_true", help="non-zero exit on partial failures")


def _io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, metavar="FILE", help="input JSONL file")
    parser.add_argument("--output", dest="output_dir", required=True, metavar="DIR", help="artifact directory")


def _diff_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--original", required=True)
    parser.add_argument("--corrected", required=True)


def _clean_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-tokens", type=int)
    parser.add_argument("--max-nonalpha", type=float)
    parser.add_argument(
        "--count-whitespace",
        action="store_true",
        help="count whitespace in the non-alphabetic ratio denominator",
    )


def _backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=BACKEND_KINDS)
    parser.add_argument("--fixtures", dest="mock_fixtures", help="mock backend fixture file")
    parser.add_argument("--endpoint", help="http backend URL")
    parser.add_argument("--model", help="http backend model name")
    parser.add_argument("--api-key-env", help="env var holding the API key")
    parser.add_argument("--concurrency", type=int)
    parser.add_argument("--retry-attempts", type=int)
    parser.add_argument("--max-chars", type=int)


def _classify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rules", dest="rules_path", help="rules table file (default: shipped table)")
    parser.add_argument("--ratio-threshold", type=float)
    parser.add_argument("--max-words", dest="max_corrected_words", type=int)


def _apply_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--modernize", action="store_true", help="apply surface-form corrections too")


# each command's help and the flag groups it takes besides the global flags
_COMMANDS = {
    "run": ("full pipeline: clean, correct, classify, apply, report",
            (_io_flags, _clean_flags, _backend_flags, _classify_flags, _apply_flags)),
    "clean": ("apply the three cleaning filters", (_io_flags, _clean_flags)),
    "correct": ("fetch corrected candidates from the backend", (_io_flags, _backend_flags)),
    "classify": ("diff and label corrections", (_io_flags, _classify_flags)),
    "apply": ("apply OCR-error corrections and emit the lexicon", (_io_flags, _apply_flags)),
    "report": ("compute run statistics", (_io_flags,)),
    "diff": ("debug: print word-level hunks between two text files", (_diff_flags, _classify_flags)),
}


def build_parser() -> argparse.ArgumentParser:
    # an unset flag stays off the namespace: it overrides no config value, nor a global flag given before the command
    parser = argparse.ArgumentParser(
        prog="histocr",
        description="Post-OCR correction and surface-form extraction for historical Spanish corpora.",
        argument_default=argparse.SUPPRESS,
    )
    _global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flag_groups) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for add_flags in (_global_flags, *flag_groups):
            add_flags(p)
    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if "config" in args else PipelineConfig()
    # flags share their destination names with the config fields they set
    return replace(config, **{f.name: getattr(args, f.name) for f in fields(PipelineConfig) if f.name in args})


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _require_input(path: str) -> None:
    if not Path(path).is_file():
        raise CorpusError(f"input file not found: {path}")


def _read_text(path: str) -> str:
    _require_input(path)
    try:
        # a byte order mark is no text to diff
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"cannot decode {path} as UTF-8: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if "verbose" in args else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # basicConfig does nothing where logging is configured already, so --verbose sets the package's own level
    logging.getLogger(__package__).setLevel(logging.DEBUG if "verbose" in args else logging.NOTSET)

    try:
        config = _build_config(args)
        errors = config.validate()
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        if errors:
            return 1
        if args.command == "diff":
            original, corrected = _read_text(args.original), _read_text(args.corrected)
            hunks = diff_words(tokenize_words(original), tokenize_words(corrected))
            for hunk in hunks:
                print(format_hunk(hunk))
            if "verbose" in args:
                rules = pipeline.rule_table(config)
                for corr in classify_hunks(hunks, rules, pipeline.classifier_config(config)):
                    print(f"  {corr.original!r} -> {corr.corrected!r}: {corr.label} via {corr.rule}")
            return 0

        # every other command reads the file named by --input
        _require_input(config.input)
        if args.command == "run":
            return pipeline.run_pipeline(config)
        problems = pipeline.run_stage(args.command, config)
    except (CorpusError, ValueError, OSError) as exc:
        return _fail(str(exc))
    except KeyboardInterrupt:
        return _fail("interrupted", 130)
    except Exception as exc:  # a code fault: stays fatal, its traceback only in the debug log
        logging.getLogger(__name__).debug("internal error", exc_info=True)
        where = "" if isinstance(exc, pipeline.RecordError) else f"{args.command}: {type(exc).__name__}: "
        return _fail(f"internal error in {where}{exc}")
    return 2 if config.strict and problems else 0


if __name__ == "__main__":
    sys.exit(main())
