"""Set-up time of a fresh process, from before the ``histocr`` import to the
first record read.

Usage: ``python3 setup_probe.py SRC INPUT FIXTURES CONCURRENCY BACKOFF_BASE``.
Between the two clock readings it imports ``histocr`` from SRC, validates the
config, loads the rule table and the mock fixture table and reads the first
input record. The clock starts before this script imports anything but
``sys`` and ``time``, so the import time of every module ``histocr`` needs is
counted; what the interpreter loads before it runs a script (``os``, ``site``,
the codecs) is not. The last line of standard output is the time in seconds.
"""

import sys
import time

START = time.perf_counter()

sys.path.insert(0, sys.argv[1])

import json  # noqa: E402

from histocr import pipeline  # noqa: E402
from histocr.client import MockBackend  # noqa: E402
from histocr.config import PipelineConfig  # noqa: E402
from histocr.records import CorpusRecord  # noqa: E402


def main() -> None:
    _, _src, input_path, fixtures, concurrency, backoff_base = sys.argv
    config = PipelineConfig(
        input=input_path,
        backend="mock",
        mock_fixtures=fixtures,
        concurrency=int(concurrency),
        backoff_base=float(backoff_base),
    )
    errors = config.validate()
    if errors:
        raise SystemExit("; ".join(errors))
    pipeline.rule_table(config)
    MockBackend(config.mock_fixtures)
    with open(config.input, encoding="utf-8") as fh:
        CorpusRecord(**json.loads(fh.readline()))
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
