"""Host-speed normalisation.

The machines this benchmark runs on change speed under it: a shared
host flips between states up to ~1.6x apart for seconds at a time.  A
fixed calibration kernel (a little pure Python, a little numpy, ~25 ms)
runs next to every operation, or every round of short operations, and
each raw CPU-bound time is scaled by ``REFERENCE_MS / kernel_ms``: the
time the operation would have taken on a host where the kernel takes
exactly ``REFERENCE_MS``.  Timings bound to a kernel timer rather than
the CPU (the kept-alive HTTP leg) are not scaled.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: The kernel's time on the reference host, in milliseconds.
REFERENCE_MS = 25.0

#: A boundary kernel sample older than this is not reused.
_FRESH_S = 0.05

_DATA = np.random.default_rng(20200817).random(100_000)
_SMALL = _DATA[:4000]
_DOC = {
    "items": [
        {"name": f"n{i}", "t": i * 1.5, "c": i / 7.0, "tags": ["a", "b"]}
        for i in range(40)
    ]
}


@dataclass(frozen=True)
class _Row:
    name: str
    t: float
    c: float


def kernel_ms() -> float:
    """Run the calibration kernel once; its wall time in ms.

    Three fixed parts: an arithmetic loop, large-array numpy passes,
    and a broad pure-Python part (JSON round trip, frozen dataclasses,
    sorting, formatting, small-array numpy selections) shaped like the
    planning path's own per-request work.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    x = _DATA.copy()
    for _ in range(10):
        x = np.sqrt(x * x + 1.0)
    np.sort(x)
    for _ in range(30):
        doc = json.loads(json.dumps(_DOC, sort_keys=True))
        rows = [_Row(d["name"], d["t"], d["c"]) for d in doc["items"]]
        rows.sort(key=lambda r: (r.c, -r.t))
        "+".join(f"{r.name}x{r.t:.1f}" for r in rows[:10])
        idx = np.flatnonzero(_SMALL >= 0.3)
        np.lexsort((_SMALL[idx], -_SMALL[idx]))
    return (time.perf_counter() - started) * 1e3


class HostSpeed:
    """Calibration samples of one run and the scale they imply."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._last: tuple[float, float] | None = None  # (ms, taken at)

    def sample(self) -> float:
        """Run the kernel; returns its time in ms (and keeps it)."""
        ms = kernel_ms()
        self.samples_ms.append(ms)
        return ms

    def bracket(self, fn):
        """Call ``fn()`` between two kernel runs.

        Returns ``(result, raw_s, scale)``: ``raw_s`` is the call's
        wall time in seconds and ``scale`` is ``REFERENCE_MS`` over the
        mean of the kernel runs on either side of it.  Consecutive
        calls share their boundary kernel run unless more than
        ``_FRESH_S`` of untimed work passed between them.
        """
        last = self._last
        if last is None or time.perf_counter() - last[1] > _FRESH_S:
            before = self.sample()
        else:
            before = last[0]
        started = time.perf_counter()
        result = fn()
        raw_s = time.perf_counter() - started
        after = self.sample()
        self._last = (after, time.perf_counter())
        return result, raw_s, REFERENCE_MS / ((before + after) / 2.0)

    def median_ms(self) -> float:
        """Median raw kernel time of this run."""
        return statistics.median(self.samples_ms)
