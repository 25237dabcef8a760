"""The span recorder's arithmetic and the generator wrapper's fidelity."""

import inspect

import pytest

from spans import (ROOT, Recorder, count_generator, span_function,
                   span_generator)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_with_nested_and_back_to_back_children():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf():            # D: [4, 5]
        clock.now += 1.0

    def middle():          # C: [3, 6], D nested inside
        clock.now += 1.0
        nested()
        clock.now += 1.0

    def first():           # B: [1, 3]
        clock.now += 2.0

    def outer():           # A: [0, 10], B and C back to back
        clock.now += 1.0
        early()
        late()
        clock.now += 4.0

    nested = span_function(recorder, "D", leaf)
    early = span_function(recorder, "B", first)
    late = span_function(recorder, "C", middle)
    span_function(recorder, "A", outer, keep=True)()

    assert recorder.total_s("A") == 10.0
    assert recorder.self_s("A") == 10.0 - 2.0 - 3.0
    assert recorder.self_s("B") == 2.0
    assert recorder.self_s("C") == 3.0 - 1.0
    assert recorder.self_s("D") == 1.0
    # Self times partition the root span's duration.
    assert sum(recorder.self_s(n) for n in "ABCD") == recorder.total_s("A")
    assert recorder.totals[("D", "C")][0] == 1
    assert recorder.totals[("A", ROOT)][0] == 1
    assert recorder.kept == [("A", 0.0, 10.0, ROOT, None)]


def test_leaf_hits_count_calls_without_children():
    recorder = Recorder()
    child = span_function(recorder, "encode", lambda: b"x")
    memo = {}

    def cached(key):
        if key not in memo:
            memo[key] = child()
        return memo[key]

    wrapped = span_function(recorder, "memo", cached, leaf_hits=True)
    for key in (1, 1, 2, 1):
        wrapped(key)
    assert recorder.spans("memo") == 4
    assert recorder.spans("encode") == 2
    assert recorder.counts["memo.hits"] == 2


def _handler(first):
    """A handler-shaped generator: yields, receives, catches, returns."""
    got = yield first
    try:
        got += yield got * 2
    except KeyError:
        got = -1
    yield got
    return ("done", got)


def _drive(generator, replies):
    """Send ``replies`` in; returns (yielded values, return value)."""
    yielded = [next(generator)]
    try:
        for reply in replies:
            if isinstance(reply, BaseException):
                yielded.append(generator.throw(reply))
            else:
                yielded.append(generator.send(reply))
        next(generator)
    except StopIteration as stop:
        return yielded, stop.value
    raise AssertionError("generator did not finish")


@pytest.mark.parametrize("replies", [[3, 4], [3, KeyError("x")]])
def test_generator_wrapper_is_transparent_and_times_every_resumption(replies):
    recorder = Recorder()
    wrapped = span_generator(recorder, "handler", _handler)
    generator = wrapped(1)
    assert inspect.isgenerator(generator)
    assert recorder.spans("handler") == 0  # creation is not timed
    assert _drive(generator, replies) == _drive(_handler(1), replies)
    assert recorder.counts["handler.calls"] == 1
    # The first run plus one span per value sent, thrown or resumed.
    assert recorder.spans("handler") == len(replies) + 2


def test_generator_wrapper_under_yield_from_and_lifetime():
    recorder = Recorder()
    wrapped = span_generator(recorder, "lookup", _handler, lifetime=True)
    inner_span = span_function(recorder, "inner", lambda: None)

    def caller():
        inner_span()
        result = yield from wrapped(5)
        return result

    assert _drive(caller(), [1, 1]) == _drive(_handler(5), [1, 1])
    (name, start, end, parent, request), = recorder.kept
    assert (name, parent, request) == ("lookup.lifetime", ROOT, "lookup#1")
    assert start <= end
    assert recorder.request is None


def test_generator_wrapper_propagates_errors_and_close():
    def failing():
        yield 1
        raise ValueError("boom")

    recorder = Recorder()
    generator = span_generator(recorder, "failing", failing)()
    assert next(generator) == 1
    with pytest.raises(ValueError, match="boom"):
        next(generator)
    assert recorder.stack == [[ROOT, recorder.stack[0][1], 2]]

    closed = span_generator(recorder, "closed", _handler)(1)
    next(closed)
    closed.close()
    assert recorder.spans("closed") == 1


def test_count_generator_counts_failures():
    def upstream(fail):
        yield "sent"
        if fail:
            raise TimeoutError("no reply")
        return "reply"

    recorder = Recorder()
    wrapped = count_generator(recorder, "upstream", upstream)
    assert _drive(wrapped(False), []) == (["sent"], "reply")
    generator = wrapped(True)
    next(generator)
    with pytest.raises(TimeoutError):
        next(generator)
    assert recorder.counts == {"upstream.calls": 2, "upstream.failed": 1}
    assert recorder.totals == {}
