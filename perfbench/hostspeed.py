"""Host speed reference for the end-to-end timings.

On a shared host the same work can take half again as long from one second
to the next. The benchmark times a small fixed pure-Python reference, which
does not touch histocr, many times while each pipeline run goes on: a
``SIGALRM`` timer interrupts the run every ``INTERVAL_S`` and the handler
takes the CPU time of one reference pass, after an untimed one that refills
the caches the run evicted. The run's time, less the handler's, is then
rescaled from the host speed those samples show to the speed at which the
reference takes ``NOMINAL_S``. Only the CPU part is rescaled; waiting
(sleeps, backend delay) is not.

Samples taken before and after a run miss what the host does during it: on
a 2-CPU VM, rescaling a 0.8 s whole-text ratio by samples taken around it
left an IQR/median of 0.13 over 16 calls, by samples taken during it 0.05.
"""

from __future__ import annotations

import difflib
import functools
import json
import re
import signal
import statistics
import time

import corpus

# reference time at the nominal host speed; a round value near the
# reference's time on a 2-CPU Linux VM with Python 3.11. It only sets the
# scale of the reported times.
NOMINAL_S = 0.005
# wall time between two samples during a run
INTERVAL_S = 0.2

_WORD_RE = re.compile(r"[^\W_]+")


@functools.cache
def _pairs() -> tuple[tuple[str, str], ...]:
    gen = corpus.Generator(corpus.ROADMAP_BASELINE, 0)
    records = [gen.record(300) for _ in range(2)]
    return tuple((" ".join(r.original), " ".join(r.model)) for r in records)


def reference_s() -> float:
    """CPU time of one pass of the reference: character and word diffs, JSON
    and regex work on fixed short texts, the kinds of work the pipeline does.
    It is this thread's CPU time, so time spent waiting for the interpreter
    lock while the pipeline's request threads compute does not count."""
    pairs = _pairs()
    start = time.thread_time()
    for a, b in pairs:
        difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()
        difflib.SequenceMatcher(None, a.split(), b.split(), autojunk=False).get_opcodes()
        json.loads(json.dumps({"a": a, "b": b.split()}))
        _WORD_RE.findall(a)
    return time.thread_time() - start


def speed_now(samples: int = 5) -> float:
    """Median of a few reference passes taken now."""
    return statistics.median(reference_s() for _ in range(samples))


class Sampler:
    """Takes reference samples every ``INTERVAL_S`` while the ``with`` block
    runs. Python runs the handler on the main thread between bytecodes;
    system calls it interrupts are restarted."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        # CPU time the handler took, to subtract from the run's wall and CPU
        # times: while it holds the interpreter lock the run stands still
        self.spent_s = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.thread_time()
        reference_s()  # refills the caches the run's own work evicted
        self.samples.append(reference_s())
        self.spent_s += time.thread_time() - start

    def __enter__(self) -> "Sampler":
        _pairs()  # build the texts outside the timed handler
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def rescale(wall_s: float, cpu_s: float, reference: float) -> float:
    """``wall_s`` with its ``cpu_s`` part moved to the nominal host speed."""
    return wall_s + cpu_s * (NOMINAL_S / reference - 1.0)
