"""Span recording from outside the program.

A traced pass replaces the public functions of each layer with thin
wrappers that record one span per call: name, start, end, parent span
and the id of the solve (or job) it belongs to.  Nothing under ``src/``
is changed; the wrappers are installed by patching the name where the
caller looks it up (``from x import f`` binds ``f`` in the calling
module, so that is where it is replaced) or the method on its class,
and removed again after the pass.

Spans stay in memory and are written out as JSON when the run ends.
Self time is a span's duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects spans from wrapped calls, per thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------
    def _stack(self) -> list[dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, solve: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "solve": solve if solve is not None else (parent or {}).get("solve"),
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            stack.pop()
            self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ----------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module, a module name or a class.  ``on_result``
        is called with each return value, to count work done.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] += max(0.0, own)
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span["name"]] += 1
        return dict(out)

    def write(self, path: Path, meta: dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "self_s": self.self_times(),
            "calls": self.calls(),
            "counts": dict(self.counts),
            "spans": sorted(self.spans, key=lambda s: s["id"]),
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def share_table(rec: SpanRecorder) -> list[dict[str, object]]:
    """Self time and share of the total per span name, largest first."""
    self_times = rec.self_times()
    total = sum(self_times.values()) or 1.0
    return [
        {"span": name, "self_s": round(t, 6), "share": round(t / total, 4)}
        for name, t in sorted(self_times.items(), key=lambda item: -item[1])
    ]
