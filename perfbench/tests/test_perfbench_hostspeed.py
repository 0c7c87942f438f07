"""Rescaling of timings to the nominal host speed."""

from __future__ import annotations

import signal
import time

import pytest

import hostspeed


def test_rescale_moves_only_cpu_time():
    slow = 2 * hostspeed.NOMINAL_S  # the host runs at half the nominal speed
    assert hostspeed.rescale(4.0, 4.0, slow) == pytest.approx(2.0)
    # waiting is not rescaled
    assert hostspeed.rescale(4.0, 1.0, slow) == pytest.approx(3.5)
    assert hostspeed.rescale(4.0, 0.0, slow) == 4.0
    assert hostspeed.rescale(3.0, 3.0, hostspeed.NOMINAL_S) == pytest.approx(3.0)


def test_reference_inputs_are_fixed():
    pairs = hostspeed._pairs()
    hostspeed._pairs.cache_clear()
    assert hostspeed._pairs() == pairs
    assert hostspeed.reference_s() > 0


def test_sampler_samples_during_the_block_and_stops():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    taken = len(sampler.samples)
    assert taken >= 2
    assert sampler.spent_s > sum(sampler.samples)
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(sampler.samples) == taken
    assert signal.getsignal(signal.SIGALRM) == previous
