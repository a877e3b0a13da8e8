"""In-memory span recorder for the traced benchmark runs.

A span is one call of a wrapped public function: its name, start and end
(``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux, so spans from
the benchmark, the server and the shard processes share one time base),
its parent span in the same thread, and the *request keys* it serves.

Request keys are how spans in different processes are tied to the client
request that caused them.  The benchmark thread sets the keys of each
request it issues; a wrapper may derive keys from its own arguments (the
server derives them from the ratio specifications or the client update
key it receives, the same values the benchmark derived them from); every
other span inherits the keys of the thread it runs on.

Nothing here is imported by the program under test: wrappers replace
module or class attributes from the outside and are removed again by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

clock_ns = time.perf_counter_ns


@dataclass(frozen=True)
class Wrap:
    """One public function to wrap with a span.

    ``target`` is ``"module:attribute"`` or ``"module:Class.method"``, named
    where the *caller* looks it up (a ``from x import f`` binding is patched
    in the importing module, not in ``x``).  ``keys`` derives request keys
    from ``(args, kwargs)``; ``before`` runs ahead of the timed call and its
    value reaches ``attrs(args, kwargs, result, before_value)``, which
    returns extra span attributes.  An ``opaque`` span records no spans for
    the calls it makes.
    """

    target: str
    name: str
    keys: Optional[Callable] = None
    attrs: Optional[Callable] = None
    before: Optional[Callable] = None
    opaque: bool = False


class Tracer:
    """Per-process span store plus the patches that feed it."""

    def __init__(self, tier: int = 0):
        self._patches: List[Tuple[object, str, object]] = []
        self.reset(tier)

    def reset(self, tier: int) -> None:
        """Drop recorded spans (a forked child starts with an empty store)."""
        self.tier = tier
        #: ``(id, parent, name, start_ns, end_ns, keys, attrs)`` tuples.
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.keys = ()
            state.opaque = 0
        return state

    def set_keys(self, keys: Sequence[str]) -> None:
        """Set the request keys inherited by spans on this thread."""
        self._state().keys = tuple(keys)

    @contextmanager
    def request(self, name: str, keys: Sequence[str]):
        """Root span of one benchmark request; yields its attribute dict."""
        state = self._state()
        outer = state.keys
        state.keys = tuple(keys)
        span_id = next(self._ids)
        state.stack.append(span_id)
        attrs: Dict[str, object] = {}
        start = clock_ns()
        try:
            yield attrs
        finally:
            end = clock_ns()
            state.stack.pop()
            state.keys = outer
            self.spans.append((span_id, 0, name, start, end, tuple(keys), attrs))

    def _wrapper(self, fn, wrap: Wrap):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if state.opaque:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = state.stack[-1] if state.stack else 0
            outer = state.keys
            keys = outer if wrap.keys is None else tuple(wrap.keys(args, kwargs))
            token = wrap.before(args, kwargs) if wrap.before is not None else None
            state.keys = keys
            state.stack.append(span_id)
            state.opaque += wrap.opaque
            start = clock_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock_ns()
                state.opaque -= wrap.opaque
                state.stack.pop()
                state.keys = outer
            attrs = None
            if wrap.attrs is not None:
                attrs = wrap.attrs(args, kwargs, result, token)
            tracer.spans.append((span_id, parent, wrap.name, start, end, keys, attrs))
            return result

        return traced

    def install(self, wraps: Sequence[Wrap]) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        for wrap in wraps:
            module_name, _, path = wrap.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, wrap))

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace one attribute outright (restored by :meth:`uninstall`)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def flush(self, path: str) -> None:
        """Write the recorded spans atomically (a killed writer leaves the
        previous complete file behind, never a torn one)."""
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(
                {"pid": os.getpid(), "tier": self.tier, "spans": self.spans},
                handle,
            )
        os.replace(tmp, path)


@dataclass
class Span:
    """A recorded span, with the process it came from."""

    id: int
    parent: int
    name: str
    start: int
    end: int
    keys: Tuple[str, ...]
    attrs: Optional[dict]
    pid: int
    tier: int

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


def spans_from(pid: int, tier: int, records) -> List[Span]:
    return [
        Span(int(r[0]), int(r[1]), r[2], int(r[3]), int(r[4]),
             tuple(r[5] or ()), r[6], pid, tier)
        for r in records
    ]


def load(path: str) -> List[Span]:
    with open(path) as handle:
        blob = json.load(handle)
    return spans_from(blob["pid"], blob["tier"], blob["spans"])


def partition(root: Span, linked: Sequence[Span]) -> Dict[str, float]:
    """Split ``root``'s interval into per-layer self time (nanoseconds).

    At every instant the time goes to the most recently started active
    span of each process, taking only processes of the deepest tier active
    then (benchmark 0, server 1, shard 2); parallel processes at that tier
    share the instant equally.  Within one thread this is the usual self
    time: a span's duration minus the part its children cover.  The parts
    always sum to the root's duration.
    """
    events = []
    for span in [root, *linked]:
        start = max(span.start, root.start)
        end = min(span.end, root.end)
        if end > start:
            events.append((start, 1, span))
            events.append((end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, Span] = {}
    out: Dict[str, float] = {}
    previous = root.start
    for when, is_start, span in events:
        if when > previous and active:
            top_tier = max(s.tier for s in active.values())
            newest: Dict[int, Span] = {}
            for s in active.values():
                if s.tier == top_tier:
                    best = newest.get(s.pid)
                    if best is None or (s.start, s.id) > (best.start, best.id):
                        newest[s.pid] = s
            share = (when - previous) / len(newest)
            for s in newest.values():
                out[s.layer] = out.get(s.layer, 0.0) + share
        previous = max(previous, when)
        key = id(span)
        if is_start:
            active[key] = span
        else:
            active.pop(key, None)
    return out
