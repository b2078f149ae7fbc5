"""Drift-cancelling timer.

The host's speed drifts by tens of percent within a minute, and CPU time
tracks wall time, so a raw wall-clock figure does not repeat. Every timed
call is therefore bracketed by a short fixed reference kernel that uses
nothing from the program under test, and its duration is scaled by
(nominal kernel time / kernel time measured next to the call).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Median kernel time on the 2-core reference machine (see README.md).
NOMINAL_KERNEL_S = 0.0020

_KERNEL_DATA = np.random.default_rng(12345).standard_normal(100_000)


def reference_kernel() -> float:
    """A few ms of mixed interpreter and numpy work with a fixed input."""
    acc = 0
    for i in range(15000):
        acc += (i * i) % 7
    return acc + float(np.sort(_KERNEL_DATA)[0]) + float(np.exp(-np.abs(_KERNEL_DATA)).sum())


def kernel_seconds(reps: int = 3) -> float:
    """Shortest of ``reps`` kernel runs; the minimum drops scheduler spikes."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Span:
    """Raw per-name durations of the calls made inside one bracket."""

    def __init__(self):
        self.raw = defaultdict(float)
        self.calls = defaultdict(int)

    def time(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.raw[name] += time.perf_counter() - t0
        self.calls[name] += 1
        return out


class Clock:
    """Brackets timed work with the reference kernel and accumulates raw
    and normalised seconds per name."""

    def __init__(self):
        self.kernel_samples = []
        self.norm = defaultdict(float)
        self.raw = defaultdict(float)
        self.calls = defaultdict(int)

    def bracket(self, work):
        """Run ``work(span)`` between two kernel measurements.

        Returns (result of work, {name: normalised s} of this bracket). The
        totals in ``self.norm``, ``self.raw`` and ``self.calls`` grow by the
        same amounts.
        """
        span = Span()
        before = kernel_seconds()
        out = work(span)
        after = kernel_seconds()
        self.kernel_samples += [before, after]
        scale = NOMINAL_KERNEL_S / (0.5 * (before + after))
        norm = {}
        for name, raw in span.raw.items():
            norm[name] = raw * scale
            self.norm[name] += raw * scale
            self.raw[name] += raw
            self.calls[name] += span.calls[name]
        return out, norm

    def time(self, name, fn, *args, **kwargs):
        """Time one call under ``name``; returns (result, normalised s)."""
        out, norm = self.bracket(lambda span: span.time(name, fn, *args, **kwargs))
        return out, norm[name]
