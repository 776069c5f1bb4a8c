"""Shared builders for tests: tiny topologies and programmatic scenarios."""

from __future__ import annotations

import os
import pathlib
import types
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from wfdsim.engine import Engine, EventClass, SECOND
from wfdsim.linklayer import LinkLayer, LinkConfig
from wfdsim.routing import INFINITE_HOPS
from wfdsim.scenario import (NodeSpec, Scenario, ScriptDirective, SimSettings,
                             TrafficSpec)
from wfdsim.simulation import Simulation
from wfdsim.topology import Position, Topology

# `pythonpath` in pyproject.toml puts src/ on sys.path of the test process
# only; tests that start `python -m wfdsim.cli` need it in the environment
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def load_bench_module(stem: str) -> types.ModuleType:
    """bench/<stem>.py, read and executed in memory so nothing is written
    next to it."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / \
        f"{stem}.py"
    module = types.ModuleType(f"bench_{stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


@dataclass
class ParsedRecord:
    time_us: int
    node: str
    event_class: str
    details: dict[str, str]


def parse_trace_line(line: str) -> ParsedRecord:
    """One trace line, every field after the class as `key=value` (the last
    of a repeated key wins, a field without `=` has the empty value)."""
    parts = line.strip().split(" ")
    if len(parts) < 3:
        raise ValueError("fewer than three fields")
    details = dict(part.partition("=")[::2] for part in parts[3:])
    return ParsedRecord(int(parts[0]), parts[1], parts[2], details)


def trace_records(trace, event_class=None, action=None):
    """The trace's records parsed from its text, the form `replay` and a
    trace file reader see; optionally only one event class and action."""
    out = []
    for rec in map(parse_trace_line, trace.lines()):
        if event_class is not None and rec.event_class != event_class.value:
            continue
        if action is None or rec.details.get("action") == action:
            out.append(rec)
    return out


def connect_ends(trace):
    """Match each `CONNECT action=request` of a (node, peer) with the `up`
    or `failed` record of that pair that ends it.  Returns the ends by
    action, how many ends followed no open request (a connect refused at
    once, or one whose client had already joined), and the pairs whose
    request is still open.  A second request of a pair whose first is
    still open fails the check."""
    ends, unmatched, open_pairs = Counter(), 0, set()
    for rec in trace_records(trace, EventClass.CONNECT):
        pair, action = (rec.node, rec.details["peer"]), rec.details["action"]
        if action == "request":
            assert pair not in open_pairs, \
                f"{pair} requested again at {rec.time_us} while open"
            open_pairs.add(pair)
        elif action in ("up", "failed"):
            ends[action] += 1
            if pair in open_pairs:
                open_pairs.remove(pair)
            else:
                unmatched += 1
    return dict(ends), unmatched, sorted(open_pairs)


class RouteView(NamedTuple):
    """A test-side view of one route tuple of a routing table."""
    destination: str
    seq_no: int
    hop_count: int
    latency_us: int
    energy_cost: float
    next_hop: str
    wire: str

    @property
    def valid(self) -> bool:
        return self.hop_count < INFINITE_HOPS


def route(dest, seq, hops, latency_us, energy, next_hop):
    """The exact tuple a routing table holds for this route, wire text
    included."""
    return (dest, seq, hops, latency_us, energy, next_hop,
            f"{dest}:{seq}:{hops}:{latency_us}:{energy:g}")


def primary(table, dst):
    """The view of the table's primary route to dst, or None."""
    slots = table.entries.get(dst)
    return RouteView(*slots[0]) if slots else None


def candidates(table, dst):
    """Views of the table's routes to dst, primary first."""
    return [RouteView(*r) for r in table.entries.get(dst, ())]


def peers(linklayer, node):
    """Role-legal unicast partners of `node` right now: an owner's members
    in the group it owns, the owner of each group it is a client of or
    bridges into."""
    result = set()
    for group in linklayer.contexts(node):
        if group.owner == node:
            result.update(group.members)
        else:
            result.add(group.owner)
    return result


def deliverable_pairs(linklayer):
    """All unordered pairs for which a unicast frame could succeed: each
    group's owner with each of its members."""
    return {tuple(sorted((group.owner, member)))
            for group in linklayer.groups.values()
            for member in group.members}


def make_link_world(positions, intents=None, seed=1, config=None,
                    channels=None):
    """Engine + topology + link layer with the given node positions."""
    engine = Engine(seed)
    topo = Topology()
    ll = LinkLayer(engine, topo, config or LinkConfig())
    intents = intents or {}
    channels = channels or {}
    for node, (x, y) in positions.items():
        topo.add_node(node, Position(x, y))
        ll.register_node(node, intents.get(node, 7), channels.get(node))
    return engine, topo, ll


def form_pair(engine, ll, a, b, until_us=2 * SECOND):
    """Drive a and b through discovery and negotiation; returns the group."""
    done = []
    ll.record_discovery(a, b)
    ll.negotiate_go(a, b, done.append)
    engine.run_until(until_us)
    assert done == [None], "negotiation did not complete"
    return ll.owned_group(a) or ll.owned_group(b)


def make_sim(nodes, script=(), traffic=(), mobility=(), seed=1,
             duration_s=15, **sim_kwargs) -> Simulation:
    """Simulation from inline specs.

    nodes: list of (id, x, y, go_intent) or (id, x, y, go_intent, energy_cost)
    script: list of (at_s, action, from, to)
    traffic: list of (at_s, src, dst, payload_bits, TrafficClass)
    sim_kwargs: other SimSettings fields, e.g. routing=RoutingConfig(...)
    """
    specs = []
    for entry in nodes:
        node_id, x, y, intent = entry[:4]
        energy = entry[4] if len(entry) > 4 else 1.0
        specs.append(NodeSpec(id=node_id, pos=Position(float(x), float(y)),
                              go_intent=intent, energy_cost=energy))
    sim_settings = SimSettings(seed=seed, duration_us=duration_s * SECOND,
                               **sim_kwargs)
    scenario = Scenario(
        sim=sim_settings,
        nodes=specs,
        script=[ScriptDirective(int(at * SECOND), action, frm, to)
                for at, action, frm, to in script],
        traffic=[TrafficSpec(int(at * SECOND), src, dst, bits, cls)
                 for at, src, dst, bits, cls in traffic],
    )
    from wfdsim.scenario import MobilityStep
    scenario.mobility = [MobilityStep(int(at * SECOND), node,
                                      Position(float(x), float(y)))
                         for at, node, x, y in mobility]
    return Simulation(scenario)


CHAIN4_NODES = [("A", 0, 0, 3), ("B", 150, 0, 10), ("C", 300, 0, 12),
                ("D", 450, 0, 2)]
CHAIN4_SCRIPT = [(0, "connect", "A", "B"), (0, "connect", "C", "D"),
                 (3, "bridge", "B", "C")]


@pytest.fixture
def chain4_sim():
    from wfdsim.routing import TrafficClass
    return make_sim(CHAIN4_NODES, CHAIN4_SCRIPT,
                    traffic=[(8, "A", "D", 8000, TrafficClass.REAL_TIME)])
