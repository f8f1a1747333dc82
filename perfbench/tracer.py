"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps the public functions of each
layer *where their callers look them up* (a module attribute such as
``repro.network.simulator.run_fused``, or a method on its class), records
one span per call and restores every original when the traced pass ends.
Spans live in memory; :meth:`Tracer.dump` writes them out once at the end.

A span is ``(id, parent, layer, name, start_ns, end_ns, thread)``.  The
parent is the innermost open span *of the same thread*, so work the sweep
server runs on its pool threads starts a fresh root there.  A layer's
self time is its spans' duration minus the part covered by their direct
child spans; its busy time counts each outermost span of the layer once.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "layer_report"]


class Tracer:
    """Span recorder plus the wrap/restore bookkeeping of one traced pass."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, layer, name,
                time.perf_counter_ns(), 0, threading.get_ident()]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(tuple(span))

    @contextmanager
    def span(self, layer: str, name: str):
        span = self.open(layer, name)
        try:
            yield span
        finally:
            self.close(span)

    def add(self, key: str, value: float = 1) -> None:
        """Bump a counter; wrapped calls run on server pool threads too."""
        with self._lock:
            self.counts[key] += value

    def keep(self, key: str, value) -> None:
        """Keep a raw value for bookkeeping done after the pass."""
        with self._lock:
            self.samples[key].append(value)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, so the bookkeeping it does is charged to the caller's
        span, not to this layer."""
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        tracer = self

        @wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        fields = ("id", "parent", "layer", "name", "start_ns", "end_ns", "thread")
        with open(path, "w") as fh:
            json.dump({
                "fields": fields,
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh)
            fh.write("\n")


def layer_report(spans: List[tuple], layers: List[str]) -> Dict[str, dict]:
    """Per layer: ``calls``, inclusive ``busy_s`` (outermost spans of the
    layer only, so a layer calling itself is not counted twice) and
    ``self_s`` (duration minus direct children)."""
    by_id = {s[0]: s for s in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s[1]:
            child_ns[s[1]] += s[5] - s[4]
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in layers}
    for s in spans:
        row = out.setdefault(s[2], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = s[5] - s[4]
        row["calls"] += 1
        row["self_s"] += (dur - child_ns[s[0]]) / 1e9
        parent = by_id.get(s[1])
        while parent is not None and parent[2] != s[2]:
            parent = by_id.get(parent[1])
        if parent is None:
            row["busy_s"] += dur / 1e9
    return out
