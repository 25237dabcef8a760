"""In-memory span recorder and the call wrappers that feed it.

A span covers one call into a layer, timed with the host clock.  Spans
nest through a stack: the span open when a wrapped call starts is its
parent, and a span's *self time* is its duration minus the time its
child spans cover.  Because one thread runs everything and children
always close before their parent, the children of a span never overlap,
so the covered time is simply the sum of their durations.

Per-call seams run up to 10^6 times in one trial, so spans are
aggregated per ``(name, parent name)`` — span count, total and self
seconds — instead of being kept one by one.  Spans opened with
``keep=True`` (trials, testbed builds, engine drains, stub lookups) are
also kept individually, with the request they belong to: the trial, or
the stub lookup.

Three wrapper kinds:

* :func:`span_function` — one span per call;
* :func:`span_generator` — for generator functions (DNS handlers,
  stub lookups): one span per *resumption*, so a handler's time is
  counted when it runs, not when it is created;
* :func:`count_function` / :func:`count_generator` — counters only, no
  span, for seams whose time belongs to their caller.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

ROOT = "(root)"

#: An open span: ``[name, child seconds covered, child span count]``.
Frame = List[Any]


class Recorder:
    """Open-span stack, per-(name, parent) totals, counters, kept spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: List[Frame] = [[ROOT, 0.0, 0]]
        #: ``(name, parent) -> [spans, total seconds, self seconds]``.
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: Named event counters (``<name>.calls``, ``<name>.hits``, ...).
        self.counts: Dict[str, int] = {}
        #: Individually kept spans: ``(name, start, end, parent, request)``.
        self.kept: List[Tuple[str, float, float, str, Optional[str]]] = []
        #: The request the work running now belongs to.
        self.request: Optional[str] = None
        #: Engine objects built while recording (read for their counters).
        self.simulators: List[Any] = []

    # -- counters -------------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + amount

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> Tuple[Frame, Frame, float]:
        """Push a span; returns ``(frame, parent, start)`` for :meth:`close`."""
        parent = self.stack[-1]
        parent[2] += 1
        frame: Frame = [name, 0.0, 0]
        self.stack.append(frame)
        return frame, parent, self.clock()

    def close(self, frame: Frame, parent: Frame, start: float,
              keep: bool = False) -> float:
        """Pop ``frame`` and book its duration; returns the duration."""
        end = self.clock()
        duration = end - start
        self.stack.pop()
        parent[1] += duration
        key = (frame[0], parent[0])
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if keep:
            self.kept.append((frame[0], start, end, parent[0], self.request))
        return duration

    # -- read-out -------------------------------------------------------------

    def spans(self, name: str) -> int:
        return int(sum(entry[0] for (span, _), entry in self.totals.items()
                       if span == name))

    def total_s(self, name: str) -> float:
        return sum(entry[1] for (span, _), entry in self.totals.items()
                   if span == name)

    def self_s(self, name: str) -> float:
        return sum(entry[2] for (span, _), entry in self.totals.items()
                   if span == name)

    def table(self) -> List[Dict[str, object]]:
        """The aggregated spans as rows, largest self time first."""
        ordered = sorted(self.totals.items(), key=lambda item: -item[1][2])
        return [{"name": name, "parent": parent, "spans": int(entry[0]),
                 "total_s": entry[1], "self_s": entry[2]}
                for (name, parent), entry in ordered]


def span_function(recorder: Recorder, name: str, fn: Callable[..., Any],
                  keep: bool = False, leaf_hits: bool = False,
                  request: Optional[Callable[..., str]] = None,
                  ) -> Callable[..., Any]:
    """Wrap ``fn`` so every call is one span named ``name``.

    ``leaf_hits`` counts ``<name>.hits`` for calls that opened no child
    span (a memo served without encoding).  ``request`` names the
    request a call starts, from its arguments (a trial's index).
    """
    stack = recorder.stack
    totals = recorder.totals
    clock = recorder.clock
    hits_key = name + ".hits"

    if keep or request is not None:
        def kept_wrapper(*args: Any, **kwargs: Any) -> Any:
            previous = recorder.request
            if request is not None:
                recorder.request = request(*args, **kwargs)
            frame, parent, start = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(frame, parent, start, keep=True)
                recorder.request = previous
        return kept_wrapper

    # open/close inlined: this runs ~10^6 times in a traced population run.
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = stack[-1]
        parent[2] += 1
        frame = [name, 0.0, 0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            parent[1] += duration
            key = (name, parent[0])
            entry = totals.get(key)
            if entry is None:
                entry = totals[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if leaf_hits and not frame[2]:
                recorder.count(hits_key)
    return wrapper


def span_generator(recorder: Recorder, name: str,
                   fn: Callable[..., Generator[Any, Any, Any]],
                   lifetime: bool = False) -> Callable[..., Any]:
    """Wrap generator function ``fn``: one span per resumption.

    Counts ``<name>.calls`` per generator created.  With ``lifetime``,
    each generator is also one request: a kept span named
    ``<name>.lifetime`` runs from its first resumption to its end, and
    spans opened in between belong to it.  The wrapped generator yields,
    receives, raises and returns exactly what ``fn``'s does.
    """
    calls_key = name + ".calls"
    lifetime_name = name + ".lifetime"

    def drive(inner: Generator[Any, Any, Any],
              ordinal: int) -> Generator[Any, Any, Any]:
        send = inner.send
        throw = inner.throw
        value: Any = None
        error: Optional[BaseException] = None
        first: Optional[float] = None
        outer_request = recorder.request
        outer_parent = ROOT
        while True:
            frame, parent, start = recorder.open(name)
            if first is None:
                first = start
                if lifetime:
                    outer_request = recorder.request
                    outer_parent = parent[0]
                    recorder.request = f"{name}#{ordinal}"
            try:
                if error is None:
                    yielded = send(value)
                else:
                    yielded = throw(error)
            except BaseException as ended:
                recorder.close(frame, parent, start)
                if lifetime:
                    recorder.kept.append((lifetime_name, first,
                                          recorder.clock(), outer_parent,
                                          recorder.request))
                    recorder.request = outer_request
                if isinstance(ended, StopIteration):
                    return ended.value
                raise
            recorder.close(frame, parent, start)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as thrown:  # noqa: BLE001 - forwarded inward
                value = None
                error = thrown

    def wrapper(*args: Any, **kwargs: Any) -> Generator[Any, Any, Any]:
        recorder.count(calls_key)
        return drive(fn(*args, **kwargs), recorder.counts[calls_key])
    return wrapper


def count_function(recorder: Recorder, name: str, fn: Callable[..., Any],
                   hit: Optional[Callable[[Any], bool]] = None,
                   ) -> Callable[..., Any]:
    """Wrap ``fn`` to count ``<name>.calls`` (and ``<name>.hits`` when
    ``hit(result)`` holds) without opening a span."""
    counts = recorder.counts
    calls_key = name + ".calls"
    hits_key = name + ".hits"

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[calls_key] = counts.get(calls_key, 0) + 1
        result = fn(*args, **kwargs)
        if hit is not None and hit(result):
            counts[hits_key] = counts.get(hits_key, 0) + 1
        return result
    return wrapper


def count_generator(recorder: Recorder, name: str,
                    fn: Callable[..., Generator[Any, Any, Any]],
                    ) -> Callable[..., Any]:
    """Wrap generator function ``fn`` to count ``<name>.calls`` and, for
    generators that end by raising, ``<name>.failed``; no span."""
    calls_key = name + ".calls"
    failed_key = name + ".failed"

    def wrapper(*args: Any, **kwargs: Any) -> Generator[Any, Any, Any]:
        recorder.count(calls_key)
        try:
            return (yield from fn(*args, **kwargs))
        except Exception:
            recorder.count(failed_key)
            raise
    return wrapper
