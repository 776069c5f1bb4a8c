"""Event engine: ordering, cancellation, clock semantics, seeded draws."""

import heapq
import math
import string
from enum import Enum
from typing import Any

import pytest
from hypothesis import given, strategies as st

from wfdsim import linklayer, routing, simulation, transfer
from wfdsim.engine import (MS, SECOND, Engine, EventClass, RandomSource,
                           record_format, uniform_duration)
from wfdsim.routing import TrafficClass
from wfdsim.simulation import Simulation

from conftest import load_bench_module


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


LOST = record_format(EventClass.DROP, "reason=lost", "dst", "size_bits")


def test_trace_line_format():
    engine = Engine()
    engine.call_later(250, lambda: engine.log(LOST, "A", "B", 100))
    engine.run_until(1000)
    assert engine.trace.lines() == ["250 A DROP reason=lost dst=B size_bits=100"]


def test_dump_of_an_empty_trace_is_empty_and_of_records_ends_in_one_newline():
    engine = Engine()
    assert engine.trace.dump() == ""
    engine.log(LOST, "A", "B", 100)
    assert engine.trace.dump() == "0 A DROP reason=lost dst=B size_bits=100\n"
    engine.log(LOST, "B", "A", 7)
    assert engine.trace.dump() == ("0 A DROP reason=lost dst=B size_bits=100\n"
                                   "0 B DROP reason=lost dst=A size_bits=7\n")


# reference: the formatter as it was, one isinstance chain per value of a
# (time_us, node, event_class, details) record

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


def record_formats() -> dict[str, str]:
    """Every record format the simulator writes: module.name -> format."""
    return {f"{module.__name__.rpartition('.')[2]}.{name}": value
            for module in (linklayer, routing, transfer, simulation)
            for name, value in vars(module).items()
            if isinstance(value, str) and value.startswith("{} {} ")}


_node = st.text(min_size=1, max_size=4)
_int = st.integers(-10**30, 10**30)
_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e-07, 1e22])


def _as_is(strategy):
    return strategy.map(lambda value: (value, value))


# key -> (the value as the old kwargs record carried it, the value the
# emitting site passes now)
SITE_VALUES = {
    **{key: _as_is(_node) for key in (
        "target", "peer", "owner", "dst", "sender", "src", "next")},
    **{key: _as_is(st.text(max_size=8)) for key in (
        "state", "reason", "what", "entries")},
    **{key: _as_is(_int) for key in (
        "chan", "dur_us", "intent", "tie", "group", "channel", "addr",
        "size_bits", "app_seq", "reached", "seq", "lat_us", "n", "ttl",
        "bits")},
    "energy": _as_is(_float),
    "cost": _as_is(_float),
    "full": _as_is(st.booleans()),
    "cls": st.sampled_from(TrafficClass).map(lambda c: (c, c._value_)),
    # a sorted list of node ids, or "-" where the site wrote that for none
    "changed": st.lists(_node, min_size=1, max_size=4).map(
        lambda ids: (ids, ",".join(ids))) | _as_is(st.just("-")),
}


def test_every_record_format_is_found():
    assert len(record_formats()) == 30


@pytest.mark.parametrize("fmt", [pytest.param(fmt, id=name) for name, fmt
                                 in sorted(record_formats().items())])
@given(data=st.data(), time_us=st.integers(0, 10**12), node=_node)
def test_format_matches_the_isinstance_chain_formatter(fmt, data, time_us,
                                                       node):
    _, _, event_class, *fields = fmt.split(" ")
    details, values = {}, []
    for field in fields:
        key, _, text = field.partition("=")
        if not text.startswith("{"):
            details[key] = text  # written by the format itself
            continue
        details[key], value = data.draw(SITE_VALUES[key], label=key)
        values.append(value)
    record = (time_us, node, EventClass(event_class), details)
    assert fmt.format(time_us, node, *values) == reference_line(record)


# the exact types each kind of replacement field takes
FIELD_TYPES = {"": (str, int, type(None)), "g": (float,), "d": (bool,)}


def unfit_fields(record: tuple) -> list[str]:
    """What is wrong with a pending record: a value count other than its
    format's field count (`str.format` drops extra values), or a value of
    a type other than its field's."""
    fmt, *values = record
    specs = [spec for _, name, spec, _ in string.Formatter().parse(fmt)
             if name is not None]
    if len(specs) != len(values):
        return [f"{len(values)} values for {len(specs)} fields"]
    return [f"field {i}: {type(v).__name__} at {{:{spec}}}"
            for i, (spec, v) in enumerate(zip(specs[2:], values[2:]))
            if type(v) not in FIELD_TYPES[spec]]


@pytest.mark.parametrize("name", [
    "chain4", "gc_pair", "two_groups_bridge", "mobility_break", "churn_grid"])
def test_every_pending_record_fits_its_format(name):
    source = (load_bench_module("workloads").generate(name, 1)
              if name == "churn_grid" else name)
    sim = Simulation.from_source(source)
    sim.run_until(sim.scenario.sim.duration_us)
    pending = sim.trace._pending
    assert pending and not sim.trace._lines
    problems = {}
    for record in pending:
        assert type(record[1]) is int and type(record[2]) is str
        unfit = unfit_fields(record)
        if unfit:
            problems.setdefault(record[0], unfit)
    assert problems == {}


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
