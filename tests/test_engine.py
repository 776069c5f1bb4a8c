"""Event engine: ordering, cancellation, clock semantics, seeded draws."""

import heapq
import math
from enum import Enum, IntEnum
from typing import Any

import pytest
from hypothesis import given, strategies as st

from wfdsim.engine import (MS, SECOND, Engine, EventClass,
                           RandomSource, _line, uniform_duration)
from wfdsim.routing import TrafficClass


def test_schedule_fires_at_now_plus_delay():
    engine = Engine()
    fired = []
    engine.call_later(100 * MS, lambda: fired.append(engine.now()))
    engine.run_until(1 * SECOND)
    assert fired == [100 * MS]


def test_equal_fire_times_run_in_schedule_order():
    engine = Engine()
    order = []
    engine.call_later(50 * MS, lambda: order.append("first"))
    engine.call_later(50 * MS, lambda: order.append("second"))
    engine.call_later(50 * MS, lambda: order.append("third"))
    engine.run_until(1 * SECOND)
    assert order == ["first", "second", "third"]


def test_cancelled_event_never_fires():
    engine = Engine()
    fired = []
    event = engine.call_later(10 * MS, lambda: fired.append(1))
    engine.cancel(event)
    engine.run_until(1 * SECOND)
    assert fired == []


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.call_later(-1, lambda: None)


def test_run_until_empty_queue_advances_clock():
    engine = Engine()
    assert engine.run_until(5 * SECOND) == 0
    assert engine.now() == 5 * SECOND


def test_run_until_processes_only_due_events():
    engine = Engine()
    fired = []
    for t in (1, 2, 3):
        engine.call_later(t * SECOND, lambda t=t: fired.append(t))
    steps = engine.run_until(2 * SECOND)
    assert steps == 2
    assert fired == [1, 2]
    assert engine.now() == 2 * SECOND
    engine.run_until(3 * SECOND)
    assert fired == [1, 2, 3]


@pytest.mark.parametrize("fire_at, seq, violates", [
    (5 * MS, 99, True),    # earlier than the last popped event
    (10 * MS, 0, True),    # same time, lower seq
    (10 * MS, 1, True),    # the last popped event's own key
    (10 * MS, 2, False),   # same time, higher seq
])
def test_run_until_checks_order_against_the_last_popped_event(fire_at, seq,
                                                               violates):
    engine = Engine()
    engine.call_later(10 * MS, lambda: None)  # (10 ms, seq 0)
    engine.call_later(10 * MS, lambda: None)  # (10 ms, seq 1)
    engine.run_until(20 * MS)
    # the next slice must still compare against (10 ms, 1)
    heapq.heappush(engine._queue, [fire_at, seq, lambda: None, ()])
    if violates:
        with pytest.raises(AssertionError, match="event order violated"):
            engine.run_until(30 * MS)
    else:
        assert engine.run_until(30 * MS) == 1


def test_run_until_rejects_past_target():
    engine = Engine()
    engine.run_until(1 * SECOND)
    with pytest.raises(ValueError):
        engine.run_until(500 * MS)


def test_trace_line_format():
    engine = Engine()
    engine.call_later(250, lambda: engine.log("A", EventClass.DROP,
                                              reason="lost", dst="B",
                                              size_bits=100))
    engine.run_until(1000)
    assert engine.trace.lines() == ["250 A DROP reason=lost dst=B size_bits=100"]


# reference: the formatter as it was, one isinstance chain per value

def reference_format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (list, tuple)):
        return ",".join(reference_format_value(v) for v in value)
    return str(value)


def reference_line(record: tuple) -> str:
    time_us, node, event_class, details = record
    parts = [str(time_us), node, event_class.value]
    parts += [f"{k}={reference_format_value(v)}" for k, v in details.items()]
    return " ".join(parts)


class Level(IntEnum):
    LOW = 1


class Named(str, Enum):
    A = "a"


class Text(str):
    def __str__(self):
        return "text"


_scalar = st.one_of(
    st.text(max_size=6),
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-7, 0.5, 1e22]),
    st.sampled_from(TrafficClass),
    st.sampled_from(EventClass),
    # subclasses take the old rules: an IntEnum, a str Enum, a str whose
    # str() differs from its text
    st.sampled_from([Level.LOW, Named.A, Text("raw")]),
)
_value = st.recursive(
    _scalar, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple), max_leaves=12)


@given(st.integers(0, 10**12), st.text(min_size=1, max_size=4),
       st.sampled_from(EventClass),
       st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
                       _value, max_size=6))
def test_line_matches_the_isinstance_chain_formatter(time_us, node,
                                                     event_class, details):
    record = (time_us, node, event_class, details)
    assert _line(record) == reference_line(record)


def test_random_source_streams_are_order_independent():
    one = RandomSource(7)
    two = RandomSource(7)
    a_then_b = [one.stream("node:a").random(), one.stream("node:b").random()]
    b_then_a_rev = [two.stream("node:b").random(), two.stream("node:a").random()]
    assert a_then_b == list(reversed(b_then_a_rev))


def test_random_source_same_seed_same_sequence():
    draws = []
    for _ in range(2):
        rng = RandomSource(42).stream("x")
        draws.append([rng.randrange(1000) for _ in range(50)])
    assert draws[0] == draws[1]


def test_uniform_duration_bounds_and_degenerate():
    rng = RandomSource(42).stream("t")
    draws = [uniform_duration(rng, 100 * MS, 300 * MS) for _ in range(1000)]
    assert min(draws) >= 100 * MS
    assert max(draws) < 300 * MS
    assert uniform_duration(rng, 100 * MS, 100 * MS) == 100 * MS
    with pytest.raises(ValueError):
        uniform_duration(rng, 2, 1)


@given(st.lists(st.tuples(st.integers(0, 10_000), st.booleans()),
                max_size=60))
def test_event_order_and_cancellation_property(items):
    engine = Engine()
    fired = []
    for delay, cancel in items:
        event = engine.call_later(
            delay, lambda d=delay: fired.append((engine.now(), d)))
        if cancel:
            engine.cancel(event)
    engine.run_until(20_000)
    expected = sorted(d for d, cancel in items if not cancel)
    assert [d for _, d in fired] == expected
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # every fire happened exactly at its scheduled time
    assert all(t == d for t, d in fired)
