"""Deterministic discrete-event core: virtual clock, event queue, seeded
randomness and the trace sink every other layer schedules against.

Virtual time is integer microseconds since simulation start.  There is one
way to schedule work: `Engine.call_later(delay_us, fn, *args)`, which runs
`fn(*args)` when the clock reaches the fire time.  Events are totally
ordered by (fire_at, seq) where seq is the insertion sequence, so ties at
equal fire_at resolve in schedule order and replays are exact.

Each queued event is a list `[fire_at, seq, fn, args]`.  seq is unique, so
heap comparisons never reach `fn` and run entirely in C.  Cancelling sets
`fn` to None; the event stays queued and is skipped when popped.

The trace is write-only for the simulator: layers emit records into it,
and it is read back only as text: by the summary (`summary.build_summary`)
and, from a written trace file, by `wfdsim replay`.  A record is formatted
after the loop, the first time the trace is read.  Each value is formatted
by its exact type first: a `str` as it is, an `int` in decimal, a list or
tuple element by element joined with commas.  Anything else (a `bool`, a
`float`, an `Enum`, a subclass) goes through `isinstance` tests: `1`/`0`,
`format(v, "g")`, the member's value, or `str()`.
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


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("_event",)

    def __init__(self, event: list):
        self._event = event

    def cancel(self) -> None:
        self._event[2] = None


def _format_value(value: Any) -> str:
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if kind is list or kind is tuple:
        return ",".join(map(_format_value, value))
    # bool, float, Enum and subclasses: by isinstance
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (list, tuple)):
        return ",".join(map(_format_value, value))
    return str(value)


def _line(record: tuple) -> str:
    time_us, node, event_class, details = record
    line = f"{time_us} {node} {event_class.value}"
    for key, value in details.items():
        line += f" {key}={_format_value(value)}"
    return line


class Trace:
    """Append-only record sink.

    The serialized form is one record per line:
    ``time_us node EVENT_CLASS key=value ...``
    with keys in the order the emitting site listed them.  Records appear
    in (time, seq) order because they are emitted from in-order event
    processing.  A record is held in one form at a time: it is a
    ``(time_us, node, event_class, details)`` tuple until the trace is
    next read, and its formatted line after that.
    """

    def __init__(self) -> None:
        self._pending: list[tuple] = []
        self._lines: list[str] = []
        self.emit = self._pending.append  # emit(record) queues one tuple

    def _formatted(self) -> list[str]:
        if self._pending:
            self._lines += map(_line, self._pending)
            self._pending.clear()
        return self._lines

    def lines(self) -> list[str]:
        return list(self._formatted())

    def __iter__(self):
        """The lines so far, without the copy `lines()` makes."""
        return iter(self._formatted())

    def dump(self) -> str:
        lines = self._formatted()
        return "\n".join(lines) + "\n" if lines else ""

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
        self._last_popped: tuple[int, int] | None = None
        self.rng = RandomSource(seed)
        self.trace = Trace()
        self.steps = 0

    def now(self) -> int:
        return self._now

    def node_rng(self, node: NodeId) -> random.Random:
        return self.rng.stream(f"node:{node}")

    def call_later(self, delay_us: int, fn: Callable[..., None],
                   *args: Any) -> EventHandle:
        """Run fn(*args) delay_us from now; the handle cancels it."""
        if delay_us < 0:
            raise ValueError(f"negative delay {delay_us}")
        event = [self._now + delay_us, next(self._seq), fn, args]
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def run_until(self, t_end_us: int) -> int:
        """Process every event with fire_at <= t_end_us; now() ends at t_end_us."""
        if t_end_us < self._now:
            raise ValueError(f"t_end {t_end_us} is in the past (now={self._now})")
        queue, pop = self._queue, heapq.heappop
        steps = 0
        while queue and queue[0][0] <= t_end_us:
            fire_at, seq, fn, args = pop(queue)
            if fn is None:
                continue
            key = (fire_at, seq)
            assert self._last_popped is None or key > self._last_popped, \
                "event order violated"
            self._last_popped = key
            self._now = fire_at
            fn(*args)
            steps += 1
        self._now = t_end_us
        self.steps += steps
        return steps

    def log(self, node: NodeId, event_class: EventClass, **details: Any) -> None:
        self.trace.emit((self._now, node, event_class, details))

