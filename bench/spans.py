"""Per-layer spans for the traced benchmark run.

`Tracer.install` replaces public entry points of the wfdsim modules (and a
few engine dispatch targets) with wrappers, from outside the package: no
file under `src/` knows about tracing.  Every wrapped call records a span
(name, start, end, parent span, and the packet's `app_seq` for data-plane
calls) in flat arrays, and folds its self time (its duration minus that of
its wrapped children) into per-name totals as it returns.

Install the wrappers before the `Simulation` is built: some entry points
are bound as callbacks at construction time.
"""

from __future__ import annotations

import time
from array import array


def _pkt_seq(i):
    return lambda args: args[i].app_seq


def _wrap_table(mods):
    """(span name, owner object, attribute, app_seq extractor or None)."""
    engine, topology, linklayer, routing, transfer, simulation, scenario = mods
    LL, RA, TL = linklayer.LinkLayer, routing.RoutingAgent, transfer.TransferLayer
    return [
        ("scenario.load_scenario", scenario, "load_scenario", None),
        ("simulation.init", simulation.Simulation, "__init__", None),
        ("simulation.directive", simulation.Simulation, "_run_directive", None),
        ("engine.run_until", engine.Engine, "run_until", None),
        ("trace.lines", engine.Trace, "lines", None),
        ("trace.dump", engine.Trace, "dump", None),
        ("summary.build_summary", simulation, "build_summary", None),
        ("topology.in_range", topology.Topology, "in_range", None),
        ("topology.apply_move", topology.Topology, "apply_move", None),
        ("linklayer.deliver_frame", LL, "deliver_frame", None),
        ("linklayer.frame_arrival", LL, "_on_frame_arrival", None),
        ("linklayer.start_discovery", LL, "start_discovery", None),
        ("linklayer.find_leg", LL, "_begin_find_leg", None),
        ("linklayer.record_discovery", LL, "record_discovery", None),
        ("linklayer.negotiate_go", LL, "negotiate_go", None),
        ("linklayer.keepalive", LL, "_keepalive", None),
        ("linklayer.join_group", LL, "join_group", None),
        ("linklayer.bridge_attach", LL, "bridge_attach", None),
        ("linklayer.dissolve_group", LL, "dissolve_group", None),
        # RoutingAgent looks merge_advert up as a module global at call time
        ("routing.merge_advert", routing, "merge_advert", None),
        ("routing.advert_tick", RA, "advert_tick", None),
        ("routing.handle_control", RA, "handle_control", None),
        ("routing.on_link_up", RA, "on_link_up", None),
        ("routing.invalidate_neighbor", RA, "invalidate_neighbor", None),
        ("routing.select_route", RA, "select_route", None),
        ("routing.forward", RA, "forward", _pkt_seq(1)),
        ("transfer.connect", TL, "connect", None),
        ("transfer.app_send", TL, "app_send",
         lambda args: args[0]._next_app_seq),
        ("transfer.broadcast_control", TL, "broadcast_control", None),
        ("transfer.send_control", TL, "send_control", None),
        ("transfer.send_data", TL, "send_data", _pkt_seq(2)),
        ("transfer.on_frame", TL, "_on_frame", None),
        ("transfer.deliver_local", TL, "deliver_local", _pkt_seq(2)),
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.scaled_s: list[float] = []  # self time in reference seconds
        self._mark: list[float] = []     # self_s at the last checkpoint
        # one entry per span, indexed by span id
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_seq = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, seconds in wrapped children]
        self.merge_entries = 0
        self.merge_changed = 0

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.scaled_s.append(0.0)
        self._mark.append(0.0)
        return len(self.names) - 1

    def checkpoint(self, scale: float) -> None:
        """Add the self time accrued since the last checkpoint, times
        `scale`, to the scaled totals (see reference.py)."""
        for i, total in enumerate(self.self_s):
            self.scaled_s[i] += (total - self._mark[i]) * scale
            self._mark[i] = total

    def wrap(self, name: str, fn, seq_of=None):
        ix = self._index(name)
        clock = time.perf_counter
        stack, calls, self_s = self.stack, self.calls, self.self_s
        s_name, s_parent, s_seq = self.span_name, self.span_parent, self.span_seq
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            span = len(s_name)
            s_name.append(ix)
            s_parent.append(stack[-1][0] if stack else -1)
            s_seq.append(seq_of(args) if seq_of is not None else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            s_start.append(start)
            s_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                s_end[span] = end
                duration = end - start
                self_s[ix] += duration - frame[1]
                calls[ix] += 1
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def install(self, mods) -> None:
        for name, owner, attr, seq_of in _wrap_table(mods):
            fn = self.wrap(name, getattr(owner, attr), seq_of)
            if name == "routing.merge_advert":
                fn = self._count_merges(fn)
            setattr(owner, attr, fn)

    def _count_merges(self, fn):
        def merge_advert(table, advert, link, now):
            changed = fn(table, advert, link, now)
            self.merge_entries += len(advert.entries)
            self.merge_changed += len(changed)
            return changed
        return merge_advert

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, scaled self seconds)."""
        return {n: (self.calls[i], self.scaled_s[i])
                for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: id, name, parent id,
        app_seq (-1 when none), start and end in microseconds from the
        first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tapp_seq\tstart_us\tend_us\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_parent[i]}\t{self.span_seq[i]}\t"
                         f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                         f"{(self.span_end[i] - origin) * 1e6:.1f}\n")

