"""Run summaries, recomputable from the trace alone.

`build_summary` consumes serialized trace lines (either fresh from a run or
read back from a trace file) so the figures a run reports and the figures
`replay` recomputes go through the identical code path.

It parses by class first: each line is split into time, node, class and
the rest, and the rest becomes a `key=value` dict only for the classes the
summary reads (FORWARD, DELIVER, DROP, `action=resp` DISCOVERY lines).  Of
an ADVERT line only the fields whose key may be `action`, `full` or `n`
are partitioned, so the long `entries` and `changed` values never are.
What is read is what `parse_trace_line` gives field by field: the last of
a repeated key wins and a field without `=` has the empty value.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ParsedRecord:
    time_us: int
    node: str
    event_class: str
    details: dict[str, str]


def parse_trace_line(line: str) -> ParsedRecord:
    parts = line.strip().split(" ")
    if len(parts) < 3:
        raise ValueError("fewer than three fields")
    details = dict(part.partition("=")[::2] for part in parts[3:])
    return ParsedRecord(int(parts[0]), parts[1], parts[2], details)


@dataclass
class FlowSummary:
    app_seq: int
    src: str
    dst: str
    traffic_class: str
    outcome: str = "LOST"
    latency_us: int | None = None
    path: list[str] = field(default_factory=list)


@dataclass
class AdvertStats:
    tx: int = 0
    entries: int = 0
    full_dumps: int = 0


@dataclass
class Summary:
    flows: list[FlowSummary] = field(default_factory=list)
    adverts: dict[str, AdvertStats] = field(default_factory=dict)
    convergence_us: int = 0
    drops: dict[str, int] = field(default_factory=dict)

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


def _fields(rest: str) -> dict[str, str]:
    """The `key=value` fields after a line's class, as `parse_trace_line`
    reads them (an empty rest gives the key "", which nothing reads)."""
    return dict(part.partition("=")[::2] for part in rest.split(" "))


_ADVERT_READS = ("action", "full", "n")


def _advert_fields(rest: str) -> dict[str, str]:
    """What the summary reads of an ADVERT line's fields: `action`, `full`
    and `n`, as `_fields` reads them.  Only fields whose key may be one of
    those are partitioned."""
    fields: dict[str, str] = {}
    for part in rest.split(" "):
        if part.startswith(_ADVERT_READS):
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

    number, line = 0, ""
    try:
        for number, line in enumerate(lines, 1):
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
                d = _advert_fields(rest)
                if d.get("action") == "tx":
                    stats = adverts[node]
                    stats.tx += 1
                    stats.entries += int(d.get("n", 0))
                    stats.full_dumps += 1 if d.get("full") == "1" else 0
                elif d.get("action") == "rx":
                    summary.convergence_us = max(summary.convergence_us,
                                                 time_us)
            elif event_class == "FORWARD":
                d = _fields(rest)
                app_seq = int(d["app_seq"])
                if d["src"] == node and app_seq not in flows:
                    flows[app_seq] = FlowSummary(app_seq, d["src"], d["dst"],
                                                 d.get("cls", "-"))
                    starts[app_seq] = time_us
                flow = flows.get(app_seq)
                if flow is not None and flow.outcome == "LOST" and \
                        d["src"] == flow.src:
                    flow.path.append(node)
            elif event_class == "DELIVER":
                d = _fields(rest)
                app_seq = int(d["app_seq"])
                flow = flows.get(app_seq)
                if flow is None:
                    # self-send or delivery without a source-side FORWARD
                    flow = FlowSummary(app_seq, d["src"], node,
                                       d.get("cls", "-"))
                    flows[app_seq] = flow
                    starts[app_seq] = time_us
                if flow.outcome == "LOST" and flow.latency_us is None:
                    flow.outcome = "DELIVERED"
                    flow.latency_us = time_us - starts[app_seq]
                    flow.path.append(node)
            elif event_class == "DROP":
                d = _fields(rest)
                reason = d.get("reason", "unknown")
                summary.drops[reason] = summary.drops.get(reason, 0) + 1
                if reason in _TERMINAL_DROPS and "app_seq" in d:
                    app_seq = int(d["app_seq"])
                    flow = flows.get(app_seq)
                    if flow is None and "src" in d and "dst" in d:
                        flow = FlowSummary(app_seq, d["src"], d["dst"],
                                           d.get("cls", "-"))
                        flows[app_seq] = flow
                    if flow is not None and flow.outcome == "LOST" and \
                            flow.latency_us is None:
                        flow.outcome = _TERMINAL_DROPS[reason]
            elif event_class == "DISCOVERY":
                # only an `action=resp` line is read
                if "action=resp" in rest:
                    d = _fields(rest)
                    if d.get("action") == "resp" and \
                            d.get("changed", "-") != "-":
                        summary.convergence_us = max(summary.convergence_us,
                                                     time_us)
    except (KeyError, ValueError) as exc:
        why = f"no {exc} field" if isinstance(exc, KeyError) else exc
        raise ValueError(f"line {number}: {why}: {line.strip()!r}") from None

    summary.flows = [flows[k] for k in sorted(flows)]
    return summary
