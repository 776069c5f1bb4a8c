"""Routing core: merge rules, sequence freshness, class-based selection,
forwarding, invalidation.  The multi-node behaviors are exercised through
small simulations; the merge rules also get a synchronous-rounds oracle
comparison against networkx shortest paths."""

import pathlib

import networkx as nx
import pytest
from hypothesis import (HealthCheck, Phase, example, given, settings,
                        strategies as st)

from wfdsim import routing
from wfdsim.engine import MS, SECOND, Engine, EventClass
from wfdsim.routing import (INFINITE_HOPS, LinkMetrics, NoRouteError,
                            Packet, RoutingAgent, RoutingConfig, RoutingTable,
                            TableAdvert, TrafficClass, merge_advert,
                            merge_full_dump, select_route)
from wfdsim.simulation import Simulation

from conftest import (RouteView, candidates, make_sim, peers, primary,
                      route, trace_records)


LINK = LinkMetrics(latency_us=2000, energy_cost=1.0)


def advert(sender, entries, full=False, cost=1.0):
    """An advert of the sender's routes, each given as (dest, seq, hops,
    latency_us, energy); the receiver ignores their next hop and wire."""
    return TableAdvert(sender, cost, [route(*e, sender) for e in entries],
                       full)


# ----------------------------------------------------------------------
# merge_advert

def test_merge_inserts_new_destination_with_one_extra_hop():
    table = RoutingTable("a")
    changed = merge_advert(table, advert("b", [("c", 2, 1, 3000, 2.0)]),
                           LINK, now=0)
    assert changed == {"c"}
    entry = primary(table, "c")
    assert entry.next_hop == "b"
    assert entry.hop_count == 2
    assert entry.latency_us == 5000
    assert entry.energy_cost == 3.0
    assert table.dirty == {"c"}


def test_merge_fresher_sequence_wins_despite_worse_hops():
    table = RoutingTable("a")
    table.entries["d"] = (route("d", 4, 3, 6000, 3.0, "b"),)
    changed = merge_advert(table, advert("b", [("d", 6, 4, 9000, 4.0)]),
                           LINK, now=1)
    assert changed == {"d"}
    entry = primary(table, "d")
    assert entry.seq_no == 6
    assert entry.hop_count == 5


def test_merge_equal_sequence_adopts_fewer_hops():
    table = RoutingTable("a")
    table.entries["d"] = (route("d", 4, 3, 6000, 3.0, "b"),)
    changed = merge_advert(table, advert("x", [("d", 4, 1, 2000, 1.0)]),
                           LINK, now=1)
    assert changed == {"d"}
    entry = primary(table, "d")
    assert entry.next_hop == "x"
    assert entry.hop_count == 2


def test_merge_stale_sequence_ignored():
    table = RoutingTable("a")
    table.entries["d"] = (route("d", 6, 3, 6000, 3.0, "b"),)
    changed = merge_advert(table, advert("x", [("d", 4, 1, 1000, 1.0)]),
                           LINK, now=1)
    assert changed == set()
    assert primary(table, "d").next_hop == "b"


def test_merge_never_creates_entry_for_owner():
    table = RoutingTable("a")
    merge_advert(table, advert("b", [("a", 10, 1, 1000, 1.0),
                                     ("c", 2, 1, 1000, 1.0)]), LINK, now=0)
    assert "a" not in table.entries
    assert "c" in table.entries


def test_merge_seq_only_refresh_is_not_a_change():
    table = RoutingTable("a")
    merge_advert(table, advert("b", [("c", 2, 1, 3000, 2.0)]), LINK, now=0)
    table.dirty.clear()
    changed = merge_advert(table, advert("b", [("c", 4, 1, 3000, 2.0)]),
                           LINK, now=1)
    assert changed == set()
    assert table.dirty == set()
    assert primary(table, "c").seq_no == 4


def test_merge_keeps_equal_hop_alternate():
    table = RoutingTable("a")
    merge_advert(table, advert("b", [("d", 4, 1, 2000, 2.0)]), LINK, now=0)
    merge_advert(table, advert("x", [("d", 4, 1, 9000, 0.5)]),
                 LinkMetrics(2000, 0.5), now=1)
    held = candidates(table, "d")
    assert len(held) == 2
    assert {c.next_hop for c in held} == {"b", "x"}
    # primary stays the lower-latency one
    assert primary(table, "d").next_hop == "b"


def test_merge_invalidation_overrides_equal_even_entry():
    table = RoutingTable("a")
    table.entries["d"] = (route("d", 4, 2, 4000, 2.0, "b"),)
    changed = merge_advert(table, advert("b", [("d", 5, INFINITE_HOPS, 0, 0.0)]),
                           LINK, now=1)
    assert changed == {"d"}
    assert not primary(table, "d").valid


def test_rediscovery_with_higher_even_seq_overrides_invalidation():
    table = RoutingTable("a")
    table.entries["d"] = (route("d", 5, INFINITE_HOPS, 0, 0.0, "b"),)
    changed = merge_advert(table, advert("d", [("d", 6, 0, 0, 0.0)]),
                           LINK, now=1)
    assert changed == {"d"}
    entry = primary(table, "d")
    assert entry.valid
    assert entry.seq_no == 6
    assert entry.hop_count == 1


def tied_table():
    """Table of "a" holding d at 2 hops via b, with an alternate via x."""
    table = RoutingTable("a")
    merge_advert(table, advert("b", [("d", 4, 1, 0, 1.0)]), LINK, now=0)
    merge_advert(table, advert("x", [("d", 4, 1, 500, 1.0)]), LINK, now=0)
    assert [(r.next_hop, r.hop_count) for r in candidates(table, "d")] == \
        [("b", 2), ("x", 2)]
    table.dirty.clear()
    return table


def test_a_longer_route_via_the_primary_hop_leaves_the_alternate_alone():
    # b re-advertises d at 3 hops with the same sequence: the alternate via
    # x keeps 2 hops, so it becomes the only route; b's 4-hop route cannot
    # be its alternate, which must have the primary's hop count
    table = tied_table()
    assert merge_advert(table, advert("b", [("d", 4, 3, 0, 1.0)]),
                        LINK, now=1) == {"d"}
    assert table.entries["d"] == (route("d", 4, 2, 2500, 2.0, "x"),)
    assert table.dirty == {"d"}
    for traffic_class in TrafficClass:
        assert select_route(table, "d", traffic_class) == "x"


# a newer invalidation of d, and the routes "a" holds to d after it
@pytest.mark.parametrize("sender, after, changed", [
    ("b", [("b", INFINITE_HOPS)], {"d"}),  # via the primary: as before
    ("x", [("b", 2)], set()),  # via the alternate: it drops the alternate
    ("y", [("b", 2), ("x", 2)], set()),  # via neither: ignored
])
def test_a_newer_invalidation_ends_only_a_route_via_its_sender(
        sender, after, changed):
    table = tied_table()
    assert merge_advert(table, advert(sender, [("d", 5, INFINITE_HOPS, 0,
                                                0.0)]),
                        LINK, now=1) == changed
    assert [(r.next_hop, r.hop_count) for r in candidates(table, "d")] == \
        after
    assert table.dirty == changed


def test_a_newer_invalidation_replaces_an_invalidated_route():
    table = RoutingTable("a")
    table.entries["d"] = (route("d", 5, INFINITE_HOPS, 0, 0.0, "b"),)
    assert merge_advert(table, advert("y", [("d", 7, INFINITE_HOPS, 0,
                                             0.0)]),
                        LINK, now=1) == {"d"}
    assert table.entries["d"] == (route("d", 7, INFINITE_HOPS, 0, 0.0, "y"),)


# b and x tie on d, then b re-advertises d longer at the same sequence:
# the merge that once left x's shorter route as the alternate of b's
@example([("b", "d", 4, 1, 0), ("x", "d", 4, 1, 500), ("b", "d", 4, 3, 0)])
@given(st.lists(st.tuples(
    st.sampled_from(["b", "x", "y"]),                # sender
    # destination, seq of any parity, advertised hops and latency; d, seq
    # 4 and a few hops and latencies come up often, so that routes from
    # different senders tie
    st.just("d") | st.sampled_from(["a", "b", "c", "d", "e"]),
    st.just(4) | st.just(4) | st.integers(0, 20),
    st.integers(0, 2) | st.integers(0, 5),
    st.sampled_from([0, 500]) | st.integers(0, 10_000),
), max_size=40))
def test_merge_invariants_under_random_adverts(entries):
    table = RoutingTable("a")
    for sender, dest, seq, hops, lat in entries:
        merge_advert(table, advert(sender, [(dest, seq, hops, lat, 1.0)]),
                     LINK, now=0)
        assert "a" not in table.entries
        for dst, slots in table.entries.items():
            assert type(slots) is tuple and 1 <= len(slots) <= 2
            first = RouteView(*slots[0])
            if first.valid:
                # hop count is always the advertised count plus one
                assert first.hop_count >= 1
            for alt in map(RouteView._make, slots[1:]):
                assert alt.seq_no == first.seq_no
                assert alt.hop_count == first.hop_count
                assert alt.next_hop != first.next_hop


def _route_fields(entry: RouteView) -> tuple:
    # the advertised identity of a route; seq-only refreshes are not changes
    return (entry.next_hop, entry.hop_count, entry.latency_us,
            entry.energy_cost, entry.valid)


def _consider(table: RoutingTable, cand: tuple) -> bool:
    view = RouteView(*cand)
    dest = view.destination
    slots = table.entries.get(dest)
    if not slots:
        if not view.valid:
            return False  # nothing to invalidate
        table.put(dest, (cand,))
        return True
    primary, *alternates = map(RouteView._make, slots)
    if view.seq_no > primary.seq_no:
        if view.valid or not primary.valid or \
                view.next_hop == primary.next_hop:
            table.put(dest, (cand,))
            return _route_fields(view) != _route_fields(primary)
        # an invalidation ends only a route via its sender
        if alternates and alternates[0].next_hop == view.next_hop:
            table.put(dest, slots[:1])
        return False
    if view.seq_no < primary.seq_no:
        return False
    # equal sequence, so both valid (even) or both invalidated (odd)
    if not view.valid:
        return False
    if (view.hop_count, view.latency_us) < (primary.hop_count,
                                            primary.latency_us):
        if (primary.next_hop != view.next_hop
                and primary.hop_count == view.hop_count):
            table.put(dest, (cand, slots[0]))
        else:
            table.put(dest, (cand,))
        return _route_fields(view) != _route_fields(primary)
    if view.next_hop == primary.next_hop:
        if view.hop_count > primary.hop_count and alternates:
            # the alternate keeps the old hop count, so it is the best
            table.put(dest, slots[1:])
            return _route_fields(alternates[0]) != _route_fields(primary)
        table.put(dest, (cand, *slots[1:]))
        return _route_fields(view) != _route_fields(primary)
    # alternate candidacy: equal seq, equal hops, different neighbor; the
    # one alternate slot takes it when empty, held via the same neighbor,
    # or worse by (latency, next hop)
    if view.hop_count != primary.hop_count:
        return False
    if not alternates or alternates[0].next_hop == view.next_hop or \
            (view.latency_us, view.next_hop) < (alternates[0].latency_us,
                                               alternates[0].next_hop):
        table.put(dest, (slots[0], cand))
    return False


def reference_merge(table, adv_msg, link, now):
    """The oracle for merge_advert's one decision per entry: every
    advertised entry becomes a candidate route and goes through _consider,
    the merge rules as they stood before that decision was one pass.  A
    candidate at or past the hop limit is invalid and carries no cost."""
    changed = set()
    for dest, seq, hops, latency, energy, *_ in adv_msg.entries:
        if dest == table.owner:
            continue
        if hops + 1 >= INFINITE_HOPS:
            cand = route(dest, seq, INFINITE_HOPS, 0, 0.0, adv_msg.sender)
        else:
            cand = route(dest, seq, hops + 1, latency + link.latency_us,
                         energy + link.energy_cost, adv_msg.sender)
        if _consider(table, cand):
            changed.add(dest)
    table.dirty |= changed
    return changed


def table_state(table):
    """Every route the table holds, wire text included."""
    return dict(table.entries)


NEIGHBORS = ["b", "x", "y"]
# small value sets, so advertised candidates often tie a table entry: an
# advertised (hops, latency, energy) plus a link lands on the table's values
_route = st.tuples(st.sampled_from(NEIGHBORS), st.integers(0, 3),
                   st.integers(1, 2), st.sampled_from([1000, 2000, 3000]),
                   st.sampled_from([0.5, 1.0, 1.5]))
_slot_specs = st.tuples(_route, st.none() | st.tuples(
    st.sampled_from(NEIGHBORS), st.sampled_from([1000, 2000, 4000]),
    st.sampled_from([1.0, 2.5])))
_advert_entry = st.tuples(
    st.sampled_from(["a", "b", "c", "d", "x"]),
    st.integers(0, 3),                                   # any parity
    st.sampled_from([0, 1, 2, INFINITE_HOPS - 1, INFINITE_HOPS]),
    st.sampled_from([0, 1000]),
    st.sampled_from([0.0, 0.5]))
_link = st.sampled_from([LinkMetrics(1000, 0.5), LinkMetrics(1000, 1.0),
                         LinkMetrics(2000, 0.5)])


def build_table(spec):
    """Table owned by "a" from {dst: (primary, alternate or None)}; an odd
    primary sequence makes an invalidated entry, which keeps no alternate."""
    table = RoutingTable("a")
    for dst, ((hop, seq, hops, lat, energy), alt) in spec.items():
        if seq % 2:
            table.entries[dst] = (route(dst, seq, INFINITE_HOPS, 0, 0.0, hop),)
            continue
        slots = (route(dst, seq, hops, lat, energy, hop),)
        if alt is not None and alt[0] != hop:
            slots += (route(dst, seq, hops, alt[1], alt[2], alt[0]),)
        table.entries[dst] = slots
    return table


# shrinking a failure of either fold-equivalence test takes minutes, so a
# failing example is reported as it was drawn
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


@settings(phases=NO_SHRINK)
@given(st.dictionaries(st.sampled_from(["b", "c", "d", "x"]), _slot_specs,
                       max_size=4),
       st.lists(st.tuples(st.sampled_from(NEIGHBORS), _link,
                          st.lists(_advert_entry, max_size=8)),
                max_size=12))
def test_merge_early_reject_matches_full_candidate_fold(spec, adverts):
    fast, slow = build_table(spec), build_table(spec)
    for now, (sender, link, entries) in enumerate(adverts, start=1):
        msg = advert(sender, entries)
        assert merge_advert(fast, msg, link, now) == \
            reference_merge(slow, msg, link, now)
        assert table_state(fast) == table_state(slow)
        assert fast.dirty == slow.dirty


# ----------------------------------------------------------------------
# synchronous-rounds oracle: merge rules converge to shortest hop routes

def dsdv_rounds(graph: nx.Graph, rounds: int):
    """Drive bare RoutingTables through synchronous full-dump exchanges and
    return them; an independent check compares against networkx."""
    tables = {n: RoutingTable(n) for n in graph.nodes}
    link = {n: {m: LinkMetrics(2000, 1.0) for m in graph[n]}
            for n in graph.nodes}
    for r in range(rounds):
        dumps = {}
        for n in sorted(graph.nodes):
            tables[n].self_seq += 2
            entries = [route(n, tables[n].self_seq, 0, 0, 0.0, n)]
            for dst in tables[n].destinations():
                entries.append(tables[n].entries[dst][0])
            dumps[n] = TableAdvert(n, 1.0, entries, True)
        for n in sorted(graph.nodes):
            for m in sorted(graph[n]):
                merge_advert(tables[n], dumps[m], link[n][m], now=r)
    return tables


def test_merge_rules_converge_to_shortest_hop_paths():
    graph = nx.Graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                      ("a", "e"), ("b", "e")])
    tables = dsdv_rounds(graph, rounds=6)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for n in graph.nodes:
        for dst in graph.nodes:
            if dst == n:
                continue
            entry = primary(tables[n], dst)
            assert entry is not None and entry.valid
            assert entry.hop_count == lengths[n][dst]
            assert entry.next_hop in graph[n]


# ----------------------------------------------------------------------
# select_route

def table_with(entries):
    table = RoutingTable("s")
    for dst, slots in entries.items():
        table.entries[dst] = tuple(slots)
    return table


def test_real_time_takes_minimum_latency():
    table = table_with({"d": [
        route("d", 4, 2, 10_000, 5.0, "m1"),
        route("d", 4, 2, 20_000, 2.0, "m2"),
    ]})
    assert select_route(table, "d", TrafficClass.REAL_TIME) == "m1"


def test_bulk_takes_minimum_energy():
    table = table_with({"d": [
        route("d", 4, 2, 10_000, 5.0, "m1"),
        route("d", 4, 2, 20_000, 2.0, "m2"),
    ]})
    assert select_route(table, "d", TrafficClass.BULK) == "m2"


def test_selection_tie_breaks_by_next_hop_id():
    table = table_with({"d": [
        route("d", 4, 2, 10_000, 2.0, "m2"),
        route("d", 4, 2, 10_000, 2.0, "m1"),
    ]})
    assert select_route(table, "d", TrafficClass.REAL_TIME) == "m1"
    assert select_route(table, "d", TrafficClass.BULK) == "m1"


def test_no_entry_raises_no_route():
    table = RoutingTable("s")
    with pytest.raises(NoRouteError):
        select_route(table, "d", TrafficClass.REAL_TIME)


def test_invalid_entry_is_not_selectable():
    table = table_with({"d": [
        route("d", 5, INFINITE_HOPS, 0, 0.0, "m1")]})
    with pytest.raises(NoRouteError):
        select_route(table, "d", TrafficClass.BULK)


def reference_select_route(table, dst, traffic_class):
    """select_route as it was first written: copy the slots, keep the valid
    ones, take the minimum by the class key."""
    valid = [e for e in candidates(table, dst) if e.valid]
    if not valid:
        raise NoRouteError(f"{table.owner}: no route to {dst}")
    if traffic_class is TrafficClass.BULK:
        best = min(valid,
                   key=lambda e: (e.energy_cost, e.hop_count, e.next_hop))
    else:
        best = min(valid,
                   key=lambda e: (e.latency_us, e.hop_count, e.next_hop))
    return best.next_hop


# few values per field, so keys tie on every field, next hop included
_selectable = st.builds(
    lambda hop, hops, lat, energy: route("d", 4, hops, lat, energy, hop),
    st.sampled_from(["m1", "m2"]), st.sampled_from([1, 2, INFINITE_HOPS]),
    st.sampled_from([1000, 2000]), st.sampled_from([0.5, 1.0]))


@given(st.none() | st.lists(_selectable, max_size=2),
       st.sampled_from(TrafficClass))
def test_select_route_matches_the_copying_reference(slots, traffic_class):
    table = RoutingTable("s")
    if slots is not None:
        slots = table.entries["d"] = tuple(slots)

    def outcome(select):
        try:
            return select(table, "d", traffic_class)
        except NoRouteError:
            return NoRouteError

    assert outcome(select_route) == outcome(reference_select_route)
    assert table.entries.get("d") == slots


# ----------------------------------------------------------------------
# forwarding unit tests against a fake transfer plane

class FakeTransfer:
    def __init__(self, peers=()):
        self.peers = set(peers)
        self.sent = []
        self.delivered = []
        self.drops = []
        self.controls = []

    def send_data(self, node, pkt, next_hop):
        self.sent.append((node, pkt, next_hop))
        return True

    def broadcast_control(self, node, msg):
        self.controls.append((node, "*", msg))
        return set(self.peers)

    def deliver_local(self, node, pkt):
        self.delivered.append((node, pkt))

    def notify_drop(self, app_seq, reason):
        self.drops.append((app_seq, reason))


def agent_with(table_entries, peers=("b",)):
    engine = Engine(1)
    agent = RoutingAgent("a", engine, 1.0, RoutingConfig())
    agent.transfer = FakeTransfer(peers)
    for dst, slots in table_entries.items():
        agent.table.entries[dst] = tuple(slots)
    return engine, agent


def test_forward_to_self_delivers_without_ttl_change():
    engine, agent = agent_with({})
    pkt = Packet("x", "a", 1, 7, TrafficClass.REAL_TIME, 100)
    agent.forward(pkt)
    assert agent.transfer.delivered == [("a", pkt)]
    assert pkt.ttl == 7


def test_forward_decrements_ttl_and_hands_off():
    engine, agent = agent_with({"d": [
        route("d", 4, 2, 4000, 2.0, "b")]})
    pkt = Packet("a", "d", 1, 16, TrafficClass.REAL_TIME, 100)
    agent.forward(pkt)
    assert pkt.ttl == 15
    assert agent.transfer.sent == [("a", pkt, "b")]


def test_forward_ttl_one_at_relay_drops():
    engine, agent = agent_with({"d": [
        route("d", 4, 2, 4000, 2.0, "b")]})
    pkt = Packet("x", "d", 1, 1, TrafficClass.REAL_TIME, 100)
    agent.forward(pkt)
    assert agent.transfer.sent == []
    assert agent.transfer.drops == [(1, "ttl_expired")]
    drop = trace_records(engine.trace)[-1]
    assert drop.event_class == EventClass.DROP.value
    assert drop.details["reason"] == "ttl_expired"


def test_forward_without_route_drops_and_reports_at_source():
    engine, agent = agent_with({})
    pkt = Packet("a", "d", 1, 16, TrafficClass.REAL_TIME, 100)
    agent.forward(pkt)
    assert agent.transfer.drops == [(1, "no_route")]
    assert agent.transfer.controls == []


def test_forward_without_route_at_relay_drops_and_sends_nothing():
    # a relay with a route back to the source still sends it no notice:
    # the next advert repairs the table, and the drop is all it reports
    engine, agent = agent_with({"s": [
        route("s", 2, 1, 2000, 1.0, "b")]})
    pkt = Packet("s", "d", 9, 5, TrafficClass.BULK, 100)
    agent.forward(pkt)
    assert agent.transfer.drops == [(9, "no_route")]
    assert agent.transfer.controls == []
    assert agent.transfer.sent == []
    drop = trace_records(engine.trace)[-1]
    assert (drop.node, drop.event_class, drop.details["reason"]) == \
        ("a", EventClass.DROP.value, "no_route")


def test_an_unknown_control_message_is_a_type_error():
    engine, agent = agent_with({})
    with pytest.raises(TypeError, match="^unknown control message Packet$"):
        agent.handle_control(Packet("b", "a", 1, 7, TrafficClass.BULK, 1), 0)
    assert engine.trace.lines() == []


# ----------------------------------------------------------------------
# invalidation

def test_invalidate_neighbor_marks_odd_seq_infinite_hops():
    engine, agent = agent_with({
        "c": [route("c", 4, 1, 2000, 1.0, "c")],
        "d": [route("d", 6, 2, 4000, 2.0, "c")],
        "a2": [route("a2", 2, 1, 2000, 1.0, "b")],
    })
    changed = agent.invalidate_neighbor("c")
    assert changed == {"c", "d"}
    assert agent.table.dirty == {"c", "d"}
    for dst, old_seq in (("c", 4), ("d", 6)):
        entry = primary(agent.table, dst)
        assert not entry.valid
        assert entry.seq_no == old_seq + 1
        assert entry.hop_count == INFINITE_HOPS
    assert primary(agent.table, "a2").valid


def test_invalidate_promotes_surviving_alternate():
    engine, agent = agent_with({
        "d": [route("d", 6, 2, 4000, 2.0, "c"),
              route("d", 6, 2, 5000, 1.0, "x")],
    })
    changed = agent.invalidate_neighbor("c")
    assert changed == {"d"}
    entry = primary(agent.table, "d")
    assert entry.valid and entry.next_hop == "x"


def test_invalidate_with_no_dependent_routes_changes_nothing():
    engine, agent = agent_with({
        "d": [route("d", 6, 2, 4000, 2.0, "b")],
    })
    assert agent.invalidate_neighbor("zz") == set()
    assert agent.table.dirty == set()


# ----------------------------------------------------------------------
# full dumps: entries built once per route, folds skip what was heard

def advertiser(node, full_dump_every=1):
    """An agent whose adverts are kept in `transfer.controls`; "a" hears
    them."""
    agent = RoutingAgent(node, Engine(1), 1.0,
                         RoutingConfig(full_dump_every=full_dump_every))
    agent.transfer = FakeTransfer(["a"])
    return agent


def tick(agent):
    """The advert this tick sends and the wire text it traces, or None."""
    sent = len(agent.transfer.controls)
    agent.advert_tick()
    if len(agent.transfer.controls) == sent:
        return None
    wire = trace_records(agent.engine.trace, EventClass.ADVERT,
                         "tx")[-1].details["entries"]
    return agent.transfer.controls[-1][2], wire


def advertised(msg, wire, dest):
    """dest's advertised fields and wire text in one advert; the text is
    the one the route keeps."""
    [entry] = [e for e in msg.entries if e[0] == dest]
    [text] = [w for w in wire.split(",") if w.split(":")[0] == dest]
    assert entry[-1] == text
    return entry[:5], text


def test_full_dump_after_alternate_promotion_carries_the_new_route():
    b = advertiser("b")
    merge_advert(b.table, advert("c", [("d", 6, 1, 2000, 1.0)]), LINK, 0)
    msg, wire = tick(b)
    assert advertised(msg, wire, "d") == (("d", 6, 2, 4000, 2.0),
                                          "d:6:2:4000:2")
    # a lower-latency route via x becomes primary; c's is kept as alternate
    merge_advert(b.table, advert("x", [("d", 6, 1, 500, 0.5)]), LINK, 1)
    msg, wire = tick(b)
    assert advertised(msg, wire, "d") == (("d", 6, 2, 2500, 1.5),
                                          "d:6:2:2500:1.5")
    assert "d" in msg.changed
    # losing x promotes the older entry via c, which dump 1 carried
    b.invalidate_neighbor("x")
    msg, wire = tick(b)
    assert advertised(msg, wire, "d") == (("d", 6, 2, 4000, 2.0),
                                          "d:6:2:4000:2")
    assert "d" in msg.changed
    msg, wire = tick(b)
    assert msg.changed == {"b"}  # nothing new since the last dump


# a route through c to d, invalidated by losing c, by c's infinite advert,
# or by c's advert one hop short of the limit
@pytest.mark.parametrize("hops", [None, INFINITE_HOPS, INFINITE_HOPS - 1])
def test_an_invalidated_route_is_advertised_without_cost(hops):
    b = advertiser("b")
    merge_advert(b.table, advert("c", [("d", 4, 1, 2000, 1.0)]), LINK, 0)
    if hops is None:
        assert b.invalidate_neighbor("c") == {"d"}
    else:
        assert merge_advert(b.table, advert("c", [("d", 5, hops, 3000, 1.5)]),
                            LINK, 1) == {"d"}
    held = primary(b.table, "d")
    assert (held.hop_count, held.latency_us, held.energy_cost) == \
        (INFINITE_HOPS, 0, 0.0)
    msg, wire = tick(b)
    [entry] = [e for e in msg.entries if e[0] == "d"]
    assert type(entry) is tuple
    assert advertised(msg, wire, "d") == (("d", 5, INFINITE_HOPS, 0, 0.0),
                                          "d:5:65536:0:0")


def test_seq_only_refresh_changes_the_wire_text():
    b = advertiser("b")
    merge_advert(b.table, advert("c", [("d", 6, 1, 2000, 1.0)]), LINK, 0)
    msg, wire = tick(b)
    assert advertised(msg, wire, "d")[1] == "d:6:2:4000:2"
    b.table.dirty.clear()
    assert merge_advert(b.table, advert("c", [("d", 8, 1, 2000, 1.0)]),
                        LINK, 1) == set()  # not an advertised change
    msg, wire = tick(b)
    assert advertised(msg, wire, "d") == (("d", 8, 2, 4000, 2.0),
                                          "d:8:2:4000:2")
    assert "d" in msg.changed
    assert b.table.dirty == set()


def test_full_dump_folds_only_destinations_that_changed(monkeypatch):
    folded = []
    real_merge = routing.merge_advert

    def recording_merge(table, adv, link, now):
        folded.append(sorted(e[0] for e in adv.entries))
        return real_merge(table, adv, link, now)

    monkeypatch.setattr(routing, "merge_advert", recording_merge)
    b = advertiser("b")
    merge_advert(b.table, advert("c", [("c", 2, 0, 0, 0.0),
                                       ("d", 6, 1, 2000, 1.0)]), LINK, 0)
    rx = RoutingTable("a")

    def fold(link=LINK):
        msg, _ = tick(b)
        return merge_full_dump(rx, msg, link, 0)

    assert fold() == {"b", "c", "d"}  # the first dump carries no `changed`
    fold()
    assert folded[-1] == ["b"]  # only b's own entry has a new sequence
    fold(LinkMetrics(3000, 1.0))
    assert folded[-1] == ["b", "c", "d"]  # another link: folded whole
    tick(b)  # a dump the receiver misses
    fold(LinkMetrics(3000, 1.0))
    assert folded[-1] == ["b", "c", "d"]
    # a write to d at the receiver since its last fold of b
    merge_advert(rx, advert("x", [("d", 8, 0, 0, 0.0)]), LINK, 0)
    fold(LinkMetrics(3000, 1.0))
    assert folded[-1] == ["b", "d"]


def alternate_scene():
    """Receiver "a" holds d via b with an alternate via x; y's dump offers
    an equal-hop route to d that loses to the alternate.  Returns the
    receiver agent and y, which has sent one dump."""
    _, rx = agent_with({}, peers=("b", "x", "y"))
    merge_advert(rx.table, advert("b", [("d", 4, 1, 0, 1.0)]), LINK, 0)
    merge_advert(rx.table, advert("x", [("d", 4, 1, 500, 1.0)]), LINK, 0)
    y = advertiser("y")
    merge_advert(y.table, advert("c", [("d", 4, 0, 0, 0.0)]),
                 LinkMetrics(1000, 1.0), 0)
    merge_full_dump(rx.table, tick(y)[0], LINK, 0)
    assert routes(rx.table, "d") == [("b", 2000), ("x", 2500)]
    return rx, y


def routes(table, dst):
    return [(e.next_hop, e.latency_us) for e in candidates(table, dst)]


def test_full_dump_refolds_a_destination_whose_alternate_was_replaced():
    rx, y = alternate_scene()
    # x's route gets slower: its alternate is replaced, now worse than y's
    merge_advert(rx.table, advert("x", [("d", 4, 1, 2000, 1.0)]), LINK, 0)
    merge_full_dump(rx.table, tick(y)[0], LINK, 0)
    assert routes(rx.table, "d") == [("b", 2000), ("y", 3000)]


def test_a_better_third_sender_replaces_the_worst_alternate_stamped():
    rx, _ = alternate_scene()
    table = rx.table
    version = table.version
    # z's equal-hop route (2200 us) beats the alternate via x (2500 us)
    changed = merge_advert(table, advert("z", [("d", 4, 1, 200, 1.0)]),
                           LINK, 0)
    assert routes(table, "d") == [("b", 2000), ("z", 2200)]
    assert changed == set()  # the primary, and so the advert, is unchanged
    # the replacement is a table write: it moves the version and stamps d,
    # so a later full dump from a sender is folded for d again
    assert table.version > version
    assert table.changed_at["d"] == table.version


def test_full_dump_refolds_a_destination_whose_alternate_was_dropped():
    rx, y = alternate_scene()
    rx.invalidate_neighbor("x")
    merge_full_dump(rx.table, tick(y)[0], LINK, 0)
    assert routes(rx.table, "d") == [("b", 2000), ("y", 3000)]


SENDERS = ["b", "x", "y"]
# routes are mostly learned from c, which every sender starts with
_upstream = st.sampled_from(["c", "c", "c", "c", "b", "d", "x", "y"])


def _contested(hops):
    """An advert entry for d at `hops` and at the sequence its hearer holds
    for d (None, see `at_held_seq`): every sender starts with one, so the
    receiver's routes to d tie, it keeps alternates, and writes that touch
    only an alternate matter."""
    return st.tuples(st.just("d"), st.none(), st.just(hops),
                     st.sampled_from([0, 500, 1000, 1500, 2000]),
                     st.sampled_from([0.0, 0.5]))


# a sender learns d from upstream at 0 hops and the receiver hears it
# directly at 1 hop, so both reach the receiver at 2 hops and tie; other
# entries leave d alone
_other = _advert_entry.map(lambda e: ("c", *e[1:]) if e[0] == "d" else e)
_learned = st.lists(_other | _contested(0) | _contested(0), min_size=1,
                    max_size=2)
_heard = st.lists(_other | _contested(1) | _contested(1), min_size=1,
                  max_size=2)
_first = st.tuples(_contested(0), st.lists(_other, max_size=4)).map(
    lambda t: [("d", 4, *t[0][2:]), *t[1]])
_learn = st.tuples(st.just("learn"), st.sampled_from(SENDERS), _upstream,
                   _link, _learned)
_hear = st.tuples(st.just("hear"), st.sampled_from(SENDERS), _link, _heard)
_event = st.one_of(
    # a sender's table learns routes from an upstream neighbor; learning
    # and hearing are listed twice, as they make the ties
    _learn, _learn,
    # a sender loses a neighbor, seldom c, through which it holds d
    st.tuples(st.just("lose"), st.sampled_from(SENDERS),
              st.sampled_from(["b", "d", "x", "y", "c"])),
    # the receiver loses a neighbor
    st.tuples(st.just("drop"), st.sampled_from(SENDERS)),
    # the receiver hears an incremental advert, which can also write
    # alternates only
    _hear, _hear,
)
# after the event every sender ticks, in some order; the receiver hears each
# advert over a new link or the one it last heard that sender on (None), or
# misses it
_hearing = st.tuples(st.none() | _link, st.sampled_from([True, True, False]))
_step = st.tuples(_event, st.permutations(SENDERS),
                  st.tuples(*[_hearing] * len(SENDERS)))


def at_held_seq(entries, table):
    """entries with d's sequence set to the one table holds for d, or to
    the next even one when table holds d invalidated: d's routes always
    tie what the table holds, and revive after an invalidation."""
    held = primary(table, "d")
    held = held.seq_no + held.seq_no % 2 if held else 4
    return [(dest, held if seq is None else seq, *rest)
            for dest, seq, *rest in entries]


# the writes this test is for come up in about one example in fifty; each
# example draws a few hundred values, which can pass the too_slow limit
@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow],
          phases=NO_SHRINK)
@given(st.fixed_dictionaries({n: _first for n in SENDERS}),
       st.lists(_step, min_size=10, max_size=25))
def test_skipping_full_dump_fold_matches_full_candidate_fold(first, steps):
    # b sends only full dumps; x and y alternate incremental and full
    senders = {n: advertiser(n, full_dump_every=1 if n == "b" else 2)
               for n in SENDERS}
    for n, entries in first.items():  # routes each sender starts with
        merge_advert(senders[n].table, advert("c", entries), LINK, 0)
    links = {n: LinkMetrics(1000, 0.5) for n in SENDERS}
    fast = agent_with({}, peers=SENDERS)[1]
    slow = agent_with({}, peers=SENDERS)[1]
    now = 0
    for event, order, hearing in steps:
        now += 1
        kind = event[0] if event else None
        if kind == "learn" and event[2] != event[1]:
            table = senders[event[1]].table
            merge_advert(table, advert(event[2], at_held_seq(event[4], table)),
                         event[3], now)
        elif kind == "lose":
            senders[event[1]].invalidate_neighbor(event[2])
        elif kind == "drop":
            assert fast.invalidate_neighbor(event[1]) == \
                slow.invalidate_neighbor(event[1])
        elif kind == "hear":
            msg = advert(event[1], at_held_seq(event[3], fast.table))
            assert merge_advert(fast.table, msg, event[2], now) == \
                reference_merge(slow.table, msg, event[2], now)
        for ticking, (new_link, heard) in zip(order, hearing):
            controls = senders[ticking].transfer.controls
            sent = len(controls)
            senders[ticking].advert_tick()
            if len(controls) > sent and heard:
                msg = controls[-1][2]
                links[ticking] = link = new_link or links[ticking]
                merge = merge_full_dump if msg.full_dump else merge_advert
                assert merge(fast.table, msg, link, now) == \
                    reference_merge(slow.table, msg, link, now)
            assert table_state(fast.table) == table_state(slow.table)
            assert fast.table.dirty == slow.table.dirty


# ----------------------------------------------------------------------
# behaviors in a running simulation

def test_chain_discovery_populates_one_hop_tables(chain4_sim):
    sim = chain4_sim
    sim.run_until(3 * SECOND)  # groups are up, bridge not yet
    assert sorted(sim.table("A").snapshot()) == ["B"]
    assert sorted(sim.table("B").snapshot()) == ["A"]
    assert sorted(sim.table("C").snapshot()) == ["D"]
    assert sorted(sim.table("D").snapshot()) == ["C"]
    for node, peer in (("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")):
        entry = primary(sim.table(node), peer)
        assert entry.hop_count == 1
        assert entry.next_hop == peer


def test_advert_after_join_carries_exactly_new_destinations():
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (2.5, "join", "c2", "go")])
    sim.run_until(10 * SECOND)
    tx = trace_records(sim.trace, EventClass.ADVERT, "tx")
    # find the first advert the owner sends after c2 joined
    join_time = trace_records(sim.trace, EventClass.GROUP, "join")[-1].time_us
    after = [r for r in tx if r.node == "go" and r.time_us > join_time]
    assert after, "owner never advertised after the join"
    dests = {e.split(":")[0] for e in after[0].details["entries"].split(",")}
    assert dests == {"c1", "c2"}


def test_advert_whose_receiver_left_in_flight_is_lost_at_arrival():
    # `_on_advert` trusts the link layer: a frame reaches its receiver only
    # while both ends are still in the frame's group
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (2.5, "join", "c2", "go")])
    sim.run_until(10 * SECOND - 1)
    # c1 leaves after every tick at 10 s, while the owner's full dump,
    # which carries a fresher sequence for the owner, is in flight
    sim.engine.call_later(1, sim.linklayer.leave_group, "c1")
    sim.run_until(10 * SECOND + 500 * MS)
    (dump,) = [r for r in trace_records(sim.trace, EventClass.ADVERT, "tx")
               if r.node == "go" and r.time_us == 10 * SECOND]
    assert dump.details["full"] == "1"
    lost = [r for r in trace_records(sim.trace, EventClass.DROP)
            if r.node == "go" and r.details["dst"] == "c1"]
    assert [(r.details["reason"], r.details["size_bits"]) for r in lost] \
        == [("lost", "1024")]
    assert lost[0].time_us > 10 * SECOND
    assert not [r for r in trace_records(sim.trace, EventClass.ADVERT, "rx")
                if r.node == "c1" and r.time_us >= 10 * SECOND]
    assert not primary(sim.table("c1"), "go").valid
    assert primary(sim.table("c2"), "go").seq_no == \
        sim.table("go").self_seq


def test_full_dump_every_tenth_tick():
    sim = make_sim([("a", 0, 0, 9), ("b", 100, 0, 1)],
                   script=[(0, "connect", "a", "b")], duration_s=21)
    sim.run_until(21 * SECOND)
    tx = trace_records(sim.trace, EventClass.ADVERT, "tx")
    for r in tx:
        expect_full = r.time_us in (10 * SECOND, 20 * SECOND)
        assert (r.details["full"] == "1") == expect_full
    fulls = [r.time_us for r in tx if r.details["full"] == "1"]
    assert sorted(set(fulls)) == [10 * SECOND, 20 * SECOND]


def test_self_seq_monotone_everywhere(chain4_sim):
    sim = chain4_sim
    sim.run()
    observed: dict[tuple[str, str], int] = {}
    for r in trace_records(sim.trace, EventClass.ADVERT, "tx"):
        for item in r.details["entries"].split(","):
            dest, seq = item.split(":")[0], int(item.split(":")[1])
            key = (r.node, dest)
            assert observed.get(key, -1) <= seq, \
                f"{r.node} advertised {dest} with a decreasing sequence"
            observed[key] = seq


def test_incremental_stream_reconstructs_tables():
    # shadow listener: full dumps replace, incrementals upsert; at every full
    # dump the shadow accumulated from prior incrementals must agree with it
    for name in ("chain4", "mobility_break"):
        sim = Simulation.from_source(name)
        sim.run()
        shadows: dict[str, dict[str, tuple]] = {}
        for r in trace_records(sim.trace, EventClass.ADVERT, "tx"):
            node, d = r.node, r.details
            entries = {}
            for item in d["entries"].split(","):
                dest, seq, hops, lat, en = item.split(":")
                entries[dest] = (int(seq), int(hops), int(lat), en)
            shadow = shadows.setdefault(node, {})
            if d["full"] == "1":
                stated = {k: v for k, v in entries.items() if k != node}
                for dest, (seq, hops, lat, en) in shadow.items():
                    assert dest in stated, \
                        f"full dump from {node} lost destination {dest}"
                    dseq, dhops, dlat, den = stated[dest]
                    # sequence numbers refresh silently between adverts;
                    # route content may never drift without an incremental
                    assert dseq >= seq
                    assert (dhops, dlat, den) == (hops, lat, en), \
                        f"incrementals from {node} missed an update to {dest}"
                shadows[node] = stated
            else:
                shadow.update(entries)
        # final shadow state equals the sender's real routes for every node
        # that still has a link (an isolated node invalidates locally with
        # nobody left to hear it).  Sequence numbers may refresh silently
        # after the last advert, so only the route content is compared.
        for node, shadow in shadows.items():
            if not peers(sim.linklayer, node):
                continue
            table = sim.table(node)
            for dest, (seq, hops, lat, en) in shadow.items():
                entry = primary(table, dest)
                assert entry is not None
                hop_count = entry.hop_count if entry.valid else INFINITE_HOPS
                assert hop_count == hops
                if entry.valid:
                    assert entry.latency_us == lat


def test_diamond_classes_diverge_on_equal_hop_alternates():
    # four bridged two-node groups form a diamond of owners; o1 reaches o4
    # over two equal-hop equal-latency routes whose relays cost differently,
    # so the two traffic classes must pick different next hops
    sim = make_sim(
        [("o1", 0, 0, 14, 1.0), ("x1", 0, 20, 1, 1.0),
         ("o2", 40, 0, 14, 5.0), ("x2", 40, 20, 1, 1.0),
         ("o3", 80, 0, 14, 0.5), ("x3", 80, 20, 1, 1.0),
         ("o4", 120, 0, 14, 1.0), ("x4", 120, 20, 1, 1.0)],
        script=[(0, "connect", "x1", "o1"), (0, "connect", "x2", "o2"),
                (0, "connect", "x3", "o3"), (0, "connect", "x4", "o4"),
                (4, "bridge", "o1", "o2"), (4.2, "bridge", "o1", "o3"),
                (4.4, "bridge", "o2", "o4"), (4.6, "bridge", "o3", "o4")],
        duration_s=14, routing=RoutingConfig(full_dump_every=5))
    sim.run_until(14 * SECOND)
    valid = [e for e in candidates(sim.table("o1"), "o4") if e.valid]
    assert {e.next_hop for e in valid} == {"o2", "o3"}
    assert all(e.hop_count == 2 for e in valid)
    assert sim.agent("o1").select_route("o4", TrafficClass.REAL_TIME) == "o2"
    assert sim.agent("o1").select_route("o4", TrafficClass.BULK) == "o3"


ROAM_RETURN = pathlib.Path(__file__).resolve().parent / "scenarios" / \
    "roam_return.yaml"


def test_a_returning_roamer_does_not_end_routes_it_is_not_on():
    # from 10 s, when the line has converged, to the end, every node that
    # never moves holds a valid route to every other, sampled each 100 ms
    sim = Simulation.from_source(str(ROAM_RETURN))
    still = [n.id for n in sim.scenario.nodes if n.id != "c3"]
    gaps = []
    for t in range(10 * SECOND, sim.scenario.sim.duration_us + 1, 100 * MS):
        sim.run_until(t)
        gaps += [(t, n, d) for n in still for d in still
                 if d != n and d not in sim.table(n).snapshot()]
    assert gaps == []
    # c3 did leave: o3 evicted it, and it joined again
    assert [(r.time_us // SECOND, r.details["action"])
            for r in trace_records(sim.trace, EventClass.GROUP)
            if r.details.get("peer", r.node) == "c3"
            and r.details["action"] in ("evict", "join")][-2:] == \
        [(17, "evict"), (27, "join")]


def test_mobility_break_invalidations_propagate():
    sim = Simulation.from_source("mobility_break")
    sim.run()
    # B loses C: the routes to C and D die with odd sequence numbers
    for dst in ("C", "D"):
        entry = primary(sim.table("B"), dst)
        assert not entry.valid
        assert entry.seq_no % 2 == 1
        entry_a = primary(sim.table("A"), dst)
        assert not entry_a.valid
    # A heard about it via B's advert
    rx = [r.details for r in trace_records(sim.trace, EventClass.ADVERT, "rx")
          if r.node == "A" and r.time_us > 12 * SECOND]
    assert any(set(d["changed"].split(",")) == {"C", "D"} for d in rx)
