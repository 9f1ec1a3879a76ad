"""Spans recorded from outside the program.

:class:`SpanLog` wraps public functions and methods of the program
(never editing them) so every call records a span: name, start, end,
parent span and the id of the benchmark operation it belongs to.
Spans stay in memory until :meth:`SpanLog.write` puts them in a JSONL
file at the end of the run; :meth:`SpanLog.self_times` subtracts each
span's children from its duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _own(owner, attr: str):
    """``owner.attr`` as stored: a class's own descriptor, not the
    bound method attribute access would give."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class SpanLog:
    """An in-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        # each span: [name, start_s, end_s, parent index or -1, op id]
        self.spans: list[list] = []
        self.op_id = 0
        self.label = ""
        #: name -> summed ``size(*args)`` of the calls a patch measures
        self.sizes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name, fn, size=None):
        """``fn`` recording a span per call (see :meth:`patch`)."""
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(self)
            if size is not None:
                sizes[span_name] += size(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([span_name, clock(), 0.0, parent, self.op_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, size=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a callable of this log returning
        it (used to label fleet spans with the design being
        evaluated).  ``size``, when given, maps a call's arguments to
        an amount summed into :attr:`sizes`.  Class and static methods
        keep their kind.
        """
        original = _own(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            func = self.wrap(name, original.__func__, size)
            wrapped = type(original)(func)
        else:
            wrapped = self.wrap(name, original, size)
        self.replace(owner, attr, wrapped)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unpatch`."""
        original = _own(owner, attr)
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (total self seconds, calls)``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def totals(self) -> dict[str, tuple[float, int]]:
        """``name -> (total inclusive seconds, calls)``."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += end - start
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                )
                out.write("\n")
