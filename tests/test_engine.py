"""Event engine: ordering, cancellation, clock semantics, seeded draws."""

import pytest
from hypothesis import given, strategies as st

from wfdsim.engine import (MS, SECOND, Engine, EventClass,
                           RandomSource, uniform_duration)


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
    handle = engine.call_later(10 * MS, lambda: fired.append(1))
    handle.cancel()
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
        handle = engine.call_later(
            delay, lambda d=delay: fired.append((engine.now(), d)))
        if cancel:
            handle.cancel()
    engine.run_until(20_000)
    expected = sorted(d for d, cancel in items if not cancel)
    assert [d for _, d in fired] == expected
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # every fire happened exactly at its scheduled time
    assert all(t == d for t, d in fired)
