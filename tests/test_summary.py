"""build_summary against a reference that parses every field of every line.

The reference below is `build_summary` as it was when it built a
`ParsedRecord` and a full `key=value` dict for each line.  The summary
must stay a pure function of the trace text, so any trace text, well
formed or not, must give the reference's `Summary` or its `ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wfdsim.simulation import Simulation
from wfdsim.summary import (AdvertStats, FlowSummary, Summary,
                            build_summary)


# ----------------------------------------------------------------------
# reference: the field-by-field parser

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


_TERMINAL_DROPS = {"ttl_expired": "TTL_EXPIRED", "no_route": "NO_ROUTE",
                   "lost": "LOST"}


def reference_build_summary(lines) -> Summary:
    """Summary of trace lines, each parsed when the loop reaches it; a
    malformed line raises ValueError naming its 1-based line number."""
    summary = Summary()
    flows: dict[int, FlowSummary] = {}
    starts: dict[int, int] = {}

    number, line = 0, ""
    try:
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            rec = parse_trace_line(line)
            if rec.node not in summary.adverts:
                summary.adverts[rec.node] = AdvertStats()
            d = rec.details
            if rec.event_class == "FORWARD":
                app_seq = int(d["app_seq"])
                if d["src"] == rec.node and app_seq not in flows:
                    flows[app_seq] = FlowSummary(app_seq, d["src"], d["dst"],
                                                 d.get("cls", "-"))
                    starts[app_seq] = rec.time_us
                flow = flows.get(app_seq)
                if flow is not None and flow.outcome == "LOST" and \
                        d["src"] == flow.src:
                    flow.path.append(rec.node)
            elif rec.event_class == "DELIVER":
                app_seq = int(d["app_seq"])
                flow = flows.get(app_seq)
                if flow is None:
                    # self-send or delivery without a source-side FORWARD
                    flow = FlowSummary(app_seq, d["src"], rec.node,
                                       d.get("cls", "-"))
                    flows[app_seq] = flow
                    starts[app_seq] = rec.time_us
                if flow.outcome == "LOST" and flow.latency_us is None:
                    flow.outcome = "DELIVERED"
                    flow.latency_us = rec.time_us - starts[app_seq]
                    flow.path.append(rec.node)
            elif rec.event_class == "DROP":
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
            elif rec.event_class == "ADVERT":
                if d.get("action") == "tx":
                    stats = summary.adverts[rec.node]
                    stats.tx += 1
                    stats.entries += int(d.get("n", 0))
                    stats.full_dumps += 1 if d.get("full") == "1" else 0
                elif d.get("action") == "rx":
                    summary.convergence_us = max(summary.convergence_us,
                                                 rec.time_us)
            elif rec.event_class == "DISCOVERY":
                if d.get("action") == "resp" and \
                        d.get("changed", "-") != "-":
                    summary.convergence_us = max(summary.convergence_us,
                                                 rec.time_us)
    except (KeyError, ValueError) as exc:
        why = f"no {exc} field" if isinstance(exc, KeyError) else exc
        raise ValueError(f"line {number}: {why}: {line.strip()!r}") from None

    summary.flows = [flows[k] for k in sorted(flows)]
    return summary


def outcome(build, lines):
    """The Summary build gives for lines, or the message of its
    ValueError."""
    try:
        return build(lines)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ----------------------------------------------------------------------
# generated trace text

NODES = ["a", "b", "c", "d"]
# the fields each class is written with, in the order the simulator
# writes them
CANONICAL = {
    "FORWARD": ["src", "dst", "app_seq", "ttl", "next", "cls", "bits"],
    "DELIVER": ["src", "app_seq", "cls", "bits"],
    "DROP": ["reason", "src", "dst", "app_seq"],
    "ADVERT": ["action", "full", "n", "cost", "entries"],
    "DISCOVERY": ["action", "peer", "seq", "lat_us", "energy", "changed"],
    "GROUP": ["action", "group", "owner", "addr"],
    "NEGOTIATION": ["action", "peer", "intent"],
    "CONNECT": ["action", "peer"],
    "OTHER": ["action"],
}
_node = st.sampled_from(NODES)
VALUES = {
    "src": _node, "dst": _node, "next": _node, "peer": _node,
    "owner": _node, "sender": _node,
    "app_seq": st.sampled_from(["0", "1", "2"]),
    "ttl": st.sampled_from(["1", "7"]),
    "cls": st.sampled_from(["REAL_TIME", "BULK", ""]),
    "bits": st.sampled_from(["8000"]),
    "reason": st.sampled_from(["lost", "no_route", "ttl_expired",
                               "non_neighbor", ""]),
    "action": st.sampled_from(["tx", "rx", "resp", "leg", "request", ""]),
    "full": st.sampled_from(["1", "0", "1", "1", "True", ""]),
    "n": st.sampled_from(["0", "3", "128", "-2"]),
    "cost": st.sampled_from(["1", "0.5"]),
    "entries": st.sampled_from(["-", "a:2:0:0:0", "a:2:0:0:0,b:4:1:2000:1",
                                "n=7", "full=1"]),
    "changed": st.sampled_from(["-", "a", "a,b", "-", "c,d"]),
    "seq": st.sampled_from(["2", "4"]),
    "lat_us": st.sampled_from(["2000"]),
    "energy": st.sampled_from(["1"]),
    "group": st.sampled_from(["1", "2"]),
    "addr": st.sampled_from(["192.168.49.1"]),
    "intent": st.sampled_from(["7"]),
}
# what the two classes that read `action` mostly hold in it
CLASS_VALUES = {
    "ADVERT": {"action": st.sampled_from(["tx", "rx", "tx", "rx", "resp",
                                          ""])},
    "DISCOVERY": {"action": st.sampled_from(["resp", "resp", "leg", "rx",
                                             ""])},
}
_key = st.sampled_from(sorted(VALUES))
# keys a well-formed trace never lacks nor leaves without an integer: a
# rough trace alone breaks them, since the first break ends the trace
STRICT = {"app_seq": "x", "src": None, "dst": None, "n": "n"}


@st.composite
def fields(draw, event_class, rough):
    """The key=value fields of one record: its class's fields, some
    dropped, duplicated, written without `=`, and the whole reordered."""
    may_break = st.sampled_from([False] * 5 + [True])
    keys = [k for k in CANONICAL[event_class]
            if not ((rough or k not in STRICT) and draw(may_break))]
    keys += draw(st.lists(_key, max_size=2))          # foreign or repeated
    keys += draw(st.lists(st.sampled_from(CANONICAL[event_class]),
                          max_size=2))                 # duplicated
    if draw(st.sampled_from([True, True, False])):
        keys = draw(st.permutations(keys))
    out = []
    for key in keys:
        strict = key in STRICT and not rough
        if not strict and draw(may_break):
            out.append(key)                            # no `=`
            continue
        value = draw(CLASS_VALUES.get(event_class, {}).get(key,
                                                           VALUES[key]))
        if rough and STRICT.get(key) and draw(may_break):
            value = STRICT[key]                        # not an integer
        if not strict and draw(may_break):
            value += "=1"                              # a second `=`
        out.append(f"{key}={value}")
    return out


# the classes the summary reads come up more often
CLASSES = sorted(CANONICAL) + ["ADVERT"] * 4 + ["DISCOVERY", "FORWARD",
                                                "DELIVER", "DROP"]


@st.composite
def trace_line(draw, rough):
    """One line of trace text, as a trace file holds it or not."""
    shapes = ["record"] * 8 + ["blank"] + ["short"] * rough
    shape = draw(st.sampled_from(shapes))
    if shape == "blank":
        return draw(st.sampled_from(["", " ", "  \n", "\n"]))
    if shape == "short":
        tokens = draw(st.lists(st.sampled_from(["5", "a", "DROP"]),
                               max_size=2))
    else:
        event_class = draw(st.sampled_from(CLASSES))
        times = ["0", "5", "20", "1000", "-3", "+7"]
        time = draw(st.sampled_from(times + ["x", "1.5"] * rough))
        tokens = [time, draw(_node), event_class,
                  *draw(fields(event_class, rough))]
    # one space between fields; in some lines one gap is a run of spaces
    cut = draw(st.sampled_from([None] * 4 + [1, 2, 3, 4, 5]))
    text = " ".join(tokens)
    if cut is not None:
        text = " ".join(tokens[:cut]) + draw(st.sampled_from(["  ", "   "])) \
            + " ".join(tokens[cut:])
    lead = draw(st.sampled_from(["", "", "", " ", "  "]))
    end = draw(st.sampled_from(["", "\n", "", "\n", " ", " \n"]))
    return lead + text + end


@st.composite
def trace_text(draw):
    """Lines of trace text; one in eight traces is rough: it may hold
    lines with fewer than three fields, non-integer times and counts, and
    records that lack a field the summary needs."""
    rough = draw(st.sampled_from([False] * 7 + [True]))
    return draw(st.lists(trace_line(rough), min_size=8, max_size=24))


# each example draws a few hundred values, which can pass the too_slow limit
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(trace_text())
def test_build_summary_matches_the_field_by_field_reference(lines):
    assert outcome(build_summary, lines) == \
        outcome(reference_build_summary, lines)


def test_every_bundled_scenario_summary_matches_the_reference():
    for name in ("chain4", "gc_pair", "two_groups_bridge", "mobility_break"):
        sim = Simulation.from_source(name)
        sim.run_until(sim.scenario.sim.duration_us)
        lines = sim.trace.lines()
        assert build_summary(lines) == reference_build_summary(lines)
        # as `replay` reads them: one line at a time, each ending in "\n"
        as_read = [line + "\n" for line in lines]
        assert build_summary(iter(as_read)) == reference_build_summary(lines)


@pytest.mark.parametrize("lines, message", [
    (["5 a"], "line 1: fewer than three fields: '5 a'"),
    (["", "x a DROP"],
     "line 2: invalid literal for int() with base 10: 'x': 'x a DROP'"),
    (["5 a FORWARD src=a\n"], "line 1: no 'app_seq' field: '5 a FORWARD "
                              "src=a'"),
    (["5 a ADVERT action=tx n=three entries=-"],
     "line 1: invalid literal for int() with base 10: 'three': "
     "'5 a ADVERT action=tx n=three entries=-'"),
])
def test_malformed_lines_name_their_number(lines, message):
    assert outcome(build_summary, lines) == f"ValueError: {message}"
    assert outcome(reference_build_summary, lines) == f"ValueError: {message}"
