"""Shared pieces of the workloads: results, counters, memory, seeds."""

from __future__ import annotations

import json
import random
import resource
import statistics
from dataclasses import asdict, dataclass, field

from repro.obs import get_metrics


@dataclass
class Outcome:
    """What one workload measured in one run.

    ``op_ms`` holds host-normalised operation latencies (``raw_ms``
    the same operations unscaled) and ``busy_s`` their sum in seconds:
    the closed-loop caller's busy time at the reference host speed.
    ``figures`` are the named figures of the summary lines, ``layers``
    the per-layer metrics of a traced run.
    """

    workload: str
    setup_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    raw_ms: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)

    def record(self, ms: float, raw_ms: float) -> None:
        """Keep one operation's normalised and raw latency."""
        self.op_ms.append(ms)
        self.raw_ms.append(raw_ms)
        self.busy_s += ms / 1e3

    def problem(self, text: str) -> None:
        """Note a failed check (kept to the first few)."""
        if len(self.problems) < 20:
            self.problems.append(text)

    def p(self, q: float) -> float:
        """The ``q``-th percentile of ``op_ms`` (inclusive method)."""
        if len(self.op_ms) < 2:
            return self.op_ms[0]
        return statistics.quantiles(self.op_ms, n=100, method="inclusive")[
            int(q) - 1
        ]

    @property
    def rate(self) -> float:
        """Operations per second of normalised busy time."""
        return len(self.op_ms) / self.busy_s

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def merge(cls, parts: list["Outcome"]) -> "Outcome":
        """One outcome from slices run in separate processes."""
        out = cls(parts[0].workload)
        for part in parts:
            out.setup_s += part.setup_s
            out.op_ms += part.op_ms
            out.raw_ms += part.raw_ms
            out.busy_s += part.busy_s
            out.attempted += part.attempted
            out.failed += part.failed
            out.peak_rss_mb = max(out.peak_rss_mb, part.peak_rss_mb)
            out.notes += part.notes
            out.problems += part.problems
        return out


class Counters:
    """Deltas of the program's own metric counters."""

    def __init__(self, *names: str) -> None:
        registry = get_metrics()
        self._counters = {n: registry.counter(n) for n in names}
        self.totals = {n: 0 for n in names}
        self._mark: dict[str, int] = {}

    def start(self) -> None:
        self._mark = {n: c.value for n, c in self._counters.items()}

    def stop(self) -> dict[str, int]:
        """Deltas since :meth:`start` (also added to ``totals``)."""
        delta = {n: c.value - self._mark[n] for n, c in self._counters.items()}
        for n, d in delta.items():
            self.totals[n] += d
        return delta


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")
