"""Deterministic discrete-event core: virtual clock, event queue, seeded
randomness and the trace sink every other layer schedules against.

Virtual time is integer microseconds since simulation start.  There is one
way to schedule work: `Engine.call_later(delay_us, fn, *args)`, which runs
`fn(*args)` when the clock reaches the fire time.  Events are totally
ordered by (fire_at, seq) where seq is the insertion sequence, so ties at
equal fire_at resolve in schedule order and replays are exact.

Each queued event is a list `[fire_at, seq, fn, args]`.  seq is unique, so
heap comparisons never reach `fn` and run entirely in C.  `call_later`
returns the event itself as an opaque token, and `Engine.cancel(event)`
sets its `fn` to None; the event stays queued and is skipped when popped.
Before it runs an event, `run_until` asserts that its (fire_at, seq) is
greater than that of the last event it ran, in this slice or an earlier
one; the last event is kept as two ints, so the check builds no tuple.

The trace is write-only for the simulator: layers emit records into it,
and it is read back only as text: by the summary (`summary.build_summary`)
and, from a written trace file, by `wfdsim replay`.  A record is the tuple
``(fmt, time_us, node, *values)``.  `fmt` is the record kind's one fixed
format, a module constant that `record_format` builds from its
`EventClass` and field names; the emitting site passes each value ready
to print: text and integers as they are written, `full` as a `bool`
printed `0`/`1` through `{:d}`, costs as floats printed through `{:g}`,
and lists comma-joined.  A record is formatted after the loop, the first
time the trace is read, by one `str.format` call.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from enum import Enum
from typing import Any, Callable

MS = 1_000            # microseconds per millisecond
SECOND = 1_000_000    # microseconds per second

NodeId = str


class EventClass(Enum):
    """Closed set of trace record classes."""

    DISCOVERY = "DISCOVERY"
    NEGOTIATION = "NEGOTIATION"
    GROUP = "GROUP"
    ADVERT = "ADVERT"
    FORWARD = "FORWARD"
    DELIVER = "DELIVER"
    DROP = "DROP"
    CONNECT = "CONNECT"


def record_format(event_class: EventClass, *fields: str) -> str:
    """The format of one kind of trace record, ``{} {} CLASS`` for the time
    and node, then one term per field: a ``key=text`` field is written as
    it is, a ``key`` takes the next value through ``{}``, and a
    ``key:spec`` through ``{:spec}``."""
    terms = ["{} {}", event_class._value_]
    for field in fields:
        key, colon, spec = field.partition(":")
        terms.append(field if "=" in field else f"{key}={{{colon}{spec}}}")
    return " ".join(terms)


class Trace:
    """Append-only record sink.

    The serialized form is one record per line:
    ``time_us node EVENT_CLASS key=value ...``
    with keys in the order the record's format lists them.  Records appear
    in (time, seq) order because they are emitted from in-order event
    processing.  A record is held in one form at a time: it is a
    ``(fmt, time_us, node, *values)`` tuple until the trace is next read,
    and its formatted line after that.
    """

    def __init__(self) -> None:
        self._pending: list[tuple] = []
        self._lines: list[str] = []
        self.emit = self._pending.append  # emit(record) queues one tuple

    def _formatted(self) -> list[str]:
        if self._pending:
            self._lines += itertools.starmap(str.format, self._pending)
            self._pending.clear()
        return self._lines

    def lines(self) -> list[str]:
        return list(self._formatted())

    def __iter__(self):
        """The lines so far, without the copy `lines()` makes."""
        return iter(self._formatted())

    def dump(self) -> str:
        return "\n".join([*self._formatted(), ""])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dump())

    def sha256(self) -> str:
        return hashlib.sha256(self.dump().encode("utf-8")).hexdigest()


class RandomSource:
    """Seeded randomness with per-name substreams.

    Substreams are derived by hashing (seed, name) with sha256, so a
    node's draw sequence does not depend on the order nodes are created
    or iterated, and is identical across runs and platforms.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            material = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            rng = random.Random(int.from_bytes(material[:8], "big"))
            self._streams[name] = rng
        return rng


def uniform_duration(rng: random.Random, lo_us: int, hi_us: int) -> int:
    """Draw an integer duration in [lo_us, hi_us); degenerate lo==hi gives lo."""
    if lo_us > hi_us:
        raise ValueError(f"empty duration interval [{lo_us}, {hi_us})")
    if lo_us == hi_us:
        return lo_us
    return lo_us + rng.randrange(hi_us - lo_us)


class Engine:
    """Single-threaded event loop owning all state of one simulation run.

    Nothing is global: independent Engine instances can run concurrently.
    """

    def __init__(self, seed: int = 0):
        self._now = 0
        self._queue: list[list] = []  # [fire_at, seq, fn, args] heap
        self._seq = itertools.count()
        # (fire_at, seq) of the last event run; every event starts later
        self._last_at, self._last_seq = -1, -1
        self.rng = RandomSource(seed)
        self.trace = Trace()
        self.steps = 0

    def now(self) -> int:
        return self._now

    def node_rng(self, node: NodeId) -> random.Random:
        return self.rng.stream(f"node:{node}")

    def call_later(self, delay_us: int, fn: Callable[..., None],
                   *args: Any) -> list:
        """Run fn(*args) delay_us from now; returns the event, which only
        `cancel` may use."""
        if delay_us < 0:
            raise ValueError(f"negative delay {delay_us}")
        event = [self._now + delay_us, next(self._seq), fn, args]
        heapq.heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: list) -> None:
        """Keep an event `call_later` returned from running."""
        event[2] = None

    def run_until(self, t_end_us: int) -> int:
        """Process every event with fire_at <= t_end_us; now() ends at t_end_us."""
        if t_end_us < self._now:
            raise ValueError(f"t_end {t_end_us} is in the past (now={self._now})")
        queue, pop = self._queue, heapq.heappop
        last_at, last_seq = self._last_at, self._last_seq
        steps = 0
        try:
            while queue and queue[0][0] <= t_end_us:
                fire_at, seq, fn, args = pop(queue)
                if fn is None:
                    continue
                assert fire_at > last_at or (
                    fire_at == last_at and seq > last_seq), \
                    "event order violated"
                last_at, last_seq = fire_at, seq
                self._now = fire_at
                fn(*args)
                steps += 1
        finally:
            self._last_at, self._last_seq = last_at, last_seq
        self._now = t_end_us
        self.steps += steps
        return steps

    def log(self, fmt: str, node: NodeId, *values: Any) -> None:
        """Trace a record of the kind `fmt` (see `record_format`)."""
        self.trace.emit((fmt, self._now, node, *values))

