"""Fixed reference workload that measures the host's current speed.

The benchmark's host is shared, and its speed for Python code swings by a
third and more within seconds.  The benchmark therefore runs the reference
between consecutive timed intervals of a run and reports each interval as

    interval seconds * NOMINAL_S / mean of the two reference runs around it

that is, in host seconds scaled to a host on which the reference takes
NOMINAL_S.  Neighbouring measurements see nearly the same host speed, so
the swing cancels: over 12 to 14 fresh processes each, it cut the
process-to-process coefficient of variation of sim_s from 14% to 3% on
chain_long and from 15% to 4% on flows_many.

The reference scans a window of a list of records shaped like trace
records, turning each one's fields into a dict, and moves the window on at
every run.  Its working set of a few megabytes is what makes it track the
simulator: a loop that fits in the first-level caches tracked it worse
(7% instead of 4% on flows_many), because neighbours on the host slow a
large working set more than a small one.  It uses the standard library
only, so no change to wfdsim changes it.  Do not edit it: every figure
the benchmark has reported is relative to it.  Its records add a constant
12 MB or so to the benchmark's peak_rss_mb.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0025
RECORDS = 20_000
WINDOW = 4_000


class Reference:
    def __init__(self) -> None:
        self._records = [
            ((i, f"n{i % 128}"),
             [("src", f"n{i % 128}"), ("dst", f"n{i * 7 % 128}"),
              ("app_seq", i), ("ttl", 9)])
            for i in range(RECORDS)]
        self._next = 0

    def run(self) -> float:
        """Run the reference workload once; returns its host seconds."""
        start = time.perf_counter()
        matches = 0
        for _, fields in self._records[self._next:self._next + WINDOW]:
            if dict(fields).get("app_seq") == -1:
                matches += 1
        self._next = (self._next + WINDOW) % RECORDS
        return time.perf_counter() - start
