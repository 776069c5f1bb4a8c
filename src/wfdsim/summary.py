"""Run summaries, recomputable from the trace alone.

`build_summary` consumes serialized trace lines (either fresh from a run or
read back from a trace file) so the figures a run reports and the figures
`replay` recomputes go through the identical code path.

It parses by class first: each line is split into time, node, class and
the rest, and of the rest only the fields whose key may be one its class
reads become a `key=value` dict.  ADVERT reads `action`, `full` and `n`;
FORWARD `app_seq`, `src`, `dst` and `cls`; DELIVER `app_seq`, `src` and
`cls`; DROP `reason`, `app_seq`, `src`, `dst` and `cls`; an `action=resp`
DISCOVERY line `action` and `changed`.  No other line is split past its
class, and an ADVERT's `entries` or a FORWARD's `ttl`, `next` and `bits`
are never split.  A field is read as `key=value`: the last of a repeated
key wins, and a field without `=` has the empty value.

A flow's outcome is `IN_FLIGHT` until the first record that ends it: its
`DELIVER`, or a `DROP` naming its `app_seq` for a TTL expiry, a missing
route or a lost frame (`LOST`).
"""

from __future__ import annotations

from .record import Record


class FlowSummary(Record):
    __slots__ = ("app_seq", "src", "dst", "traffic_class", "outcome",
                 "latency_us", "path")

    def __init__(self, app_seq: int, src: str, dst: str, traffic_class: str,
                 outcome: str = "IN_FLIGHT", latency_us: int | None = None,
                 path: list[str] | None = None):
        self.app_seq = app_seq
        self.src = src
        self.dst = dst
        self.traffic_class = traffic_class
        self.outcome = outcome  # IN_FLIGHT until a record ends the flow
        self.latency_us = latency_us
        self.path = [] if path is None else path


class AdvertStats(Record):
    __slots__ = ("tx", "entries", "full_dumps")

    def __init__(self, tx: int = 0, entries: int = 0, full_dumps: int = 0):
        self.tx = tx
        self.entries = entries
        self.full_dumps = full_dumps


class Summary(Record):
    __slots__ = ("flows", "adverts", "convergence_us", "drops")

    def __init__(self, flows: list[FlowSummary] | None = None,
                 adverts: dict[str, AdvertStats] | None = None,
                 convergence_us: int = 0, drops: dict[str, int] | None = None):
        self.flows = [] if flows is None else flows
        self.adverts = {} if adverts is None else adverts
        self.convergence_us = convergence_us
        self.drops = {} if drops is None else drops

    def to_text(self) -> str:
        lines = [f"flows={len(self.flows)}"]
        for f in self.flows:
            latency = f.latency_us if f.latency_us is not None else "-"
            path = ",".join(f.path) if f.path else "-"
            lines.append(f"flow app_seq={f.app_seq} src={f.src} dst={f.dst} "
                         f"class={f.traffic_class} outcome={f.outcome} "
                         f"latency_us={latency} path={path}")
        for node in sorted(self.adverts):
            s = self.adverts[node]
            lines.append(f"adverts node={node} tx={s.tx} entries={s.entries} "
                         f"full_dumps={s.full_dumps}")
        lines.append(f"convergence_us={self.convergence_us}")
        for reason in sorted(self.drops):
            lines.append(f"drop reason={reason} count={self.drops[reason]}")
        return "".join(line + "\n" for line in lines)


_TERMINAL_DROPS = {"ttl_expired": "TTL_EXPIRED", "no_route": "NO_ROUTE",
                   "lost": "LOST"}


def _fields(rest: str, reads: tuple[str, ...]) -> dict[str, str]:
    """The `key=value` fields after a line's class whose key may be one of
    `reads`: only a field that starts with one of them is partitioned."""
    fields: dict[str, str] = {}
    for part in rest.split(" "):
        if part.startswith(reads):
            key, _, value = part.partition("=")
            fields[key] = value
    return fields


def build_summary(lines) -> Summary:
    """Summary of trace lines, each parsed when the loop reaches it; a
    malformed line raises ValueError naming its 1-based line number."""
    summary = Summary()
    adverts = summary.adverts
    flows: dict[int, FlowSummary] = {}
    starts: dict[int, int] = {}

    # only an error raised while parsing a line is relabelled with it;
    # one from `lines` itself (a byte that does not decode) is not
    for number, line in enumerate(lines, 1):
        try:
            text = line.strip()
            if not text:
                continue
            head = text.split(" ", 3)
            if len(head) < 3:
                raise ValueError("fewer than three fields")
            time_us = int(head[0])
            node, event_class = head[1], head[2]
            rest = head[3] if len(head) == 4 else ""
            if node not in adverts:
                adverts[node] = AdvertStats()
            if event_class == "ADVERT":
                d = _fields(rest, ("action", "full", "n"))
                if d.get("action") == "tx":
                    stats = adverts[node]
                    stats.tx += 1
                    stats.entries += int(d.get("n", 0))
                    stats.full_dumps += 1 if d.get("full") == "1" else 0
                elif d.get("action") == "rx":
                    summary.convergence_us = max(summary.convergence_us,
                                                 time_us)
            elif event_class == "FORWARD":
                d = _fields(rest, ("app_seq", "src", "dst", "cls"))
                app_seq = int(d["app_seq"])
                if d["src"] == node and app_seq not in flows:
                    flows[app_seq] = FlowSummary(app_seq, d["src"], d["dst"],
                                                 d.get("cls", "-"))
                    starts[app_seq] = time_us
                flow = flows.get(app_seq)
                if flow is not None and flow.outcome == "IN_FLIGHT" and \
                        d["src"] == flow.src:
                    flow.path.append(node)
            elif event_class == "DELIVER":
                d = _fields(rest, ("app_seq", "src", "cls"))
                app_seq = int(d["app_seq"])
                flow = flows.get(app_seq)
                if flow is None:
                    # self-send or delivery without a source-side FORWARD
                    flow = FlowSummary(app_seq, d["src"], node,
                                       d.get("cls", "-"))
                    flows[app_seq] = flow
                    starts[app_seq] = time_us
                if flow.outcome == "IN_FLIGHT":
                    flow.outcome = "DELIVERED"
                    flow.latency_us = time_us - starts[app_seq]
                    flow.path.append(node)
            elif event_class == "DROP":
                d = _fields(rest, ("reason", "app_seq", "src", "dst", "cls"))
                reason = d.get("reason", "unknown")
                summary.drops[reason] = summary.drops.get(reason, 0) + 1
                if reason in _TERMINAL_DROPS and "app_seq" in d:
                    app_seq = int(d["app_seq"])
                    flow = flows.get(app_seq)
                    if flow is None and "src" in d and "dst" in d:
                        flow = FlowSummary(app_seq, d["src"], d["dst"],
                                           d.get("cls", "-"))
                        flows[app_seq] = flow
                    if flow is not None and flow.outcome == "IN_FLIGHT":
                        flow.outcome = _TERMINAL_DROPS[reason]
            elif event_class == "DISCOVERY":
                # only an `action=resp` line is read
                if "action=resp" in rest:
                    d = _fields(rest, ("action", "changed"))
                    if d.get("action") == "resp" and \
                            d.get("changed", "-") != "-":
                        summary.convergence_us = max(summary.convergence_us,
                                                     time_us)
        except (KeyError, ValueError) as exc:
            why = f"no {exc} field" if isinstance(exc, KeyError) else exc
            message = f"line {number}: {why}: {line.strip()!r}"
            raise ValueError(message) from None

    summary.flows = [flows[k] for k in sorted(flows)]
    return summary
