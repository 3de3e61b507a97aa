"""Spans around calls into the program's public functions.

``Tracer.wrap(func, name)`` replaces ``func`` under every name a combspectra
module binds it to (``verify.family_product``, ``families.family_product``,
...), so each caller reaches the wrapper through the name it already looks
up.  A span records its name, start, end, parent span, the time its child
spans cover, and counts read from the return value.  Spans stay in memory;
``dump`` writes them out when the run ends.  ``restore`` puts every original
function back, so untraced sweeps run the program unmodified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter
PACKAGE = "combspectra"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "counts")

    def __init__(self, sid: int, name: str, parent: "Span | None"):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = _clock()
        self.end = self.start
        self.child = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent.id if self.parent else None,
            "start": self.start,
            "end": self.end,
            "self": self.self_time,
            "counts": self.counts,
        }


class BusySpan(Span):
    """A span for a generator: only the time spent inside its ``next`` calls
    counts, since the caller's own work runs between them."""

    __slots__ = ("busy",)

    def __init__(self, sid: int, name: str, parent: "Span | None"):
        super().__init__(sid, name, parent)
        self.busy = 0.0

    @property
    def self_time(self) -> float:
        return self.busy


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.current: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, cls, name: str) -> Span:
        span = cls(len(self.spans), name, self.current)
        self.spans.append(span)
        return span

    def span(self, name: str, func, *args, **kwargs):
        """Call ``func`` inside a span; returns (result, span)."""
        span = self._open(Span, name)
        self.current = span
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = _clock()
            self.current = span.parent
            if span.parent is not None:
                span.parent.child += span.duration
        return result, span

    def wrap(self, func, name: str, on_return=None, generator: bool = False) -> None:
        """Trace ``func`` wherever a module of the package binds it.

        ``on_return(span, args, result)`` may read counts off the result."""
        if generator:
            wrapper = self._generator_wrapper(func, name)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result, span = self.span(name, func, *args, **kwargs)
                if on_return is not None:
                    on_return(span, args, result)
                return result

        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patched.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def _generator_wrapper(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(BusySpan, name)
            it = func(*args, **kwargs)
            items = 0
            try:
                while True:
                    t0 = _clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spent = _clock() - t0
                        span.busy += spent
                        if self.current is not None:
                            self.current.child += spent
                    items += 1
                    yield item
            finally:
                span.end = _clock()
                span.counts["items"] = items

        return wrapper

    def restore(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
