"""Link model: discovery, negotiation, group lifecycle, delivery rules."""

import pytest

from wfdsim.engine import MS, SECOND, EventClass
from wfdsim.linklayer import (BROADCAST, BridgingDisabledError,
                              BridgingPolicy, DeviceState, Frame,
                              ForbiddenByRoleError, GoNegotiationParams,
                              InvalidStateError, LinkConfig, LinkEvents,
                              NotInGroupError, OutOfRangeError,
                              _DiscoverySession)
from wfdsim.topology import Position

from conftest import form_pair, make_link_world, trace_records


# ----------------------------------------------------------------------
# discovery

def test_two_in_range_nodes_discover_each_other():
    engine, _, ll = make_link_world({"a": (0, 0), "b": (100, 0)})
    ll.start_discovery("a")
    ll.start_discovery("b")
    engine.run_until(10 * SECOND)
    assert "b" in ll.discovered("a")
    assert "a" in ll.discovered("b")


def test_isolated_node_times_out_to_idle():
    engine, _, ll = make_link_world({"a": (0, 0), "z": (10_000, 10_000)})
    ll.start_discovery("a")
    engine.run_until(11 * SECOND)
    assert ll.state("a") is DeviceState.IDLE
    assert len(trace_records(engine.trace, EventClass.DISCOVERY,
                             "timeout")) == 1


def test_discovery_requires_idle():
    engine, _, ll = make_link_world({"a": (0, 0), "b": (100, 0)})
    ll.start_discovery("a")
    with pytest.raises(InvalidStateError):
        ll.start_discovery("a")


def test_find_legs_deterministic_per_seed():
    sequences = []
    for _ in range(2):
        engine, _, ll = make_link_world({"a": (0, 0), "b": (100, 0)}, seed=42)
        ll.start_discovery("a")
        ll.start_discovery("b")
        engine.run_until(10 * SECOND)
        sequences.append(trace_records(engine.trace, EventClass.DISCOVERY,
                                       "leg"))
    assert sequences[0] == sequences[1]
    assert sequences[0], "expected at least one find leg"


def test_find_leg_durations_within_configured_interval():
    engine, _, ll = make_link_world({"a": (0, 0), "z": (10_000, 10_000)},
                                    seed=7)
    ll.start_discovery("a")
    engine.run_until(11 * SECOND)
    durations = [int(r.details["dur_us"])
                 for r in trace_records(engine.trace, EventClass.DISCOVERY,
                                        "leg")]
    assert durations
    assert all(100 * MS <= d < 300 * MS for d in durations)


def probe_world():
    engine, topo, ll = make_link_world({"a": (0, 0), "b": (100, 0)})
    sa = _DiscoverySession("a", None, None, None)
    sb = _DiscoverySession("b", None, None, None)
    for s in (sa, sb):
        s.leg_start, s.leg_end = 0, 250 * MS
        s.leg_channel = 6
    ll._sessions = {"a": sa, "b": sb}
    return engine, ll, sa, sb


def test_probe_match_needs_opposite_states():
    engine, ll, sa, sb = probe_world()
    sa.leg_state = DeviceState.FIND_SEARCH
    sb.leg_state = DeviceState.FIND_SEARCH
    ll._check_probe_matches(sa)
    engine.run_until(1 * SECOND)
    assert ll.discovered("a") == set()

    engine, ll, sa, sb = probe_world()
    sa.leg_state = DeviceState.FIND_SEARCH
    sb.leg_state = DeviceState.FIND_LISTEN
    ll._check_probe_matches(sa)
    engine.run_until(1 * SECOND)
    assert ll.discovered("a") == {"b"}


def test_probe_match_needs_same_channel():
    engine, ll, sa, sb = probe_world()
    sa.leg_state = DeviceState.FIND_SEARCH
    sb.leg_state = DeviceState.FIND_LISTEN
    sb.leg_channel = 11
    ll._check_probe_matches(sa)
    engine.run_until(1 * SECOND)
    assert ll.discovered("a") == set()


def test_probe_match_needs_minimum_overlap():
    engine, ll, sa, sb = probe_world()
    sa.leg_state = DeviceState.FIND_SEARCH
    sb.leg_state = DeviceState.FIND_LISTEN
    sb.leg_end = 10 * MS  # only 10 ms of shared window remains
    ll._check_probe_matches(sa)
    engine.run_until(1 * SECOND)
    assert ll.discovered("a") == set()


def test_out_of_range_pair_never_discovers():
    engine, _, ll = make_link_world({"a": (0, 0), "b": (10_000, 0)})
    ll.start_discovery("a")
    ll.start_discovery("b")
    engine.run_until(11 * SECOND)
    assert ll.discovered("a") == set()


# ----------------------------------------------------------------------
# GO negotiation

def negotiate(intents, seed=1, initiator="a", responder="b"):
    engine, _, ll = make_link_world({"a": (0, 0), "b": (100, 0)},
                                    intents=intents, seed=seed)
    outcome = {}
    ll.record_discovery("a", "b")
    ll.negotiate_go(initiator, responder,
                    on_complete=lambda g: outcome.setdefault("group", g),
                    on_failed=lambda i, r, why: outcome.setdefault("why", why))
    engine.run_until(2 * SECOND)
    return engine, ll, outcome


def test_higher_intent_becomes_owner():
    _, ll, outcome = negotiate({"a": 7, "b": 3})
    assert outcome["group"].owner == "a"
    assert ll.state("a") is DeviceState.GROUP_OWNER
    assert ll.state("b") is DeviceState.GROUP_CLIENT


def test_equal_intents_resolved_by_tie_breaker_bit():
    engine, ll, outcome = negotiate({"a": 5, "b": 5})
    request = trace_records(engine.trace, EventClass.NEGOTIATION,
                            "request")[0]
    bit = int(request.details["tie"])
    expected_owner = "a" if bit else "b"
    assert outcome["group"].owner == expected_owner


def test_both_intents_15_fails_and_returns_to_idle():
    _, ll, outcome = negotiate({"a": 15, "b": 15})
    assert "group" not in outcome
    assert outcome["why"] == "intent_conflict"
    assert ll.state("a") is DeviceState.IDLE
    assert ll.state("b") is DeviceState.IDLE


def test_negotiation_requires_mutual_discovery():
    engine, _, ll = make_link_world({"a": (0, 0), "b": (100, 0)})
    with pytest.raises(InvalidStateError):
        ll.negotiate_go("a", "b")


def test_negotiation_message_timing():
    engine, ll, outcome = negotiate({"a": 7, "b": 3})
    nego = trace_records(engine.trace, EventClass.NEGOTIATION)
    times = {r.details["action"]: r.time_us for r in nego}
    # three messages, one MAC latency (2 ms) each, then the 200 ms WPS delay
    assert times["response"] - times["request"] == 2 * MS
    assert times["confirm"] - times["response"] == 2 * MS
    group_formed = trace_records(engine.trace, EventClass.GROUP)[0]
    assert group_formed.time_us - times["confirm"] == 200 * MS


def test_pair_drifting_apart_during_wps_fails_through_on_failed():
    engine, topo, ll = make_link_world({"a": (0, 0), "b": (100, 0)},
                                       intents={"a": 7, "b": 3})
    failed, formed = [], []
    ll.record_discovery("a", "b")
    ll.negotiate_go("a", "b", on_complete=formed.append,
                    on_failed=lambda i, r, why: failed.append((i, r, why)))
    engine.run_until(100 * MS)  # confirmed at 6 ms, WPS ends at 206 ms
    topo.apply_move("b", Position(1000, 0))
    engine.run_until(2 * SECOND)
    assert (failed, formed) == ([("a", "b", "out_of_range")], [])
    assert ll.state("a") is DeviceState.IDLE
    assert ll.state("b") is DeviceState.IDLE
    assert not ll.groups
    ll.check_consistency()


def test_go_intent_range_validated():
    with pytest.raises(ValueError):
        GoNegotiationParams(intent=16, tie_breaker=0)


# ----------------------------------------------------------------------
# membership and addressing

def trio():
    engine, topo, ll = make_link_world(
        {"go": (0, 0), "c1": (-75, 0), "c2": (75, 0)},
        intents={"go": 14, "c1": 2, "c2": 3})
    group = form_pair(engine, ll, "c1", "go")
    return engine, topo, ll, group


def test_owner_holds_address_one_clients_sequential():
    engine, _, ll, group = trio()
    assert group.addresses["go"] == 1
    assert group.addresses["c1"] == 2
    assert ll.join_group("c2", group) == 3
    ll.check_consistency()


def test_client_cannot_join_a_second_group():
    engine, topo, ll, group = trio()
    ll.join_group("c2", group)
    engine2, _, ll2 = make_link_world({"x": (0, 0), "y": (100, 0)})
    with pytest.raises(ForbiddenByRoleError):
        ll.join_group("c1", group)  # c1 is already a client of this group


def test_join_out_of_range_owner_rejected():
    engine, topo, ll, group = trio()
    topo.apply_move("c2", Position(10_000, 0))
    with pytest.raises(OutOfRangeError):
        ll.join_group("c2", group)


def test_owner_leaving_dissolves_group():
    engine, _, ll, group = trio()
    ll.join_group("c2", group)
    ll.leave_group("go")
    assert ll.state("go") is DeviceState.IDLE
    assert ll.state("c1") is DeviceState.IDLE
    assert ll.state("c2") is DeviceState.IDLE
    assert group.group_id not in ll.groups


def test_client_leaving_keeps_group():
    engine, _, ll, group = trio()
    ll.join_group("c2", group)
    ll.leave_group("c1")
    assert ll.state("c1") is DeviceState.IDLE
    assert group.group_id in ll.groups
    assert group.clients == {"c2"}


def test_mobility_evicts_client_after_three_missed_keepalives():
    engine, topo, ll, group = trio()
    moved_at = engine.now()
    topo.apply_move("c1", Position(10_000, 0))
    engine.run_until(20 * SECOND)
    evict = trace_records(engine.trace, EventClass.GROUP, "evict")
    assert len(evict) == 1
    assert evict[0].details["peer"] == "c1"
    # first miss lands within one keepalive period of the move, the third
    # miss two periods later
    elapsed = evict[0].time_us - moved_at
    assert 2 * SECOND < elapsed <= 3 * SECOND
    assert ll.state("c1") is DeviceState.IDLE


# ----------------------------------------------------------------------
# frame delivery rules

class Recorder(LinkEvents):
    """An upper layer that records what the link layer reports, and the
    virtual time each frame arrived."""

    def __init__(self, engine):
        self.engine = engine
        self.frames = []
        self.losses = []

    def _on_frame(self, node, frame):
        self.frames.append((node, frame, self.engine.now()))

    def frame_lost(self, src, dst, frame):
        self.losses.append((src, dst))


def delivered_frames(ll):
    ll.upper = Recorder(ll.engine)
    return ll.upper.frames


def test_client_to_owner_unicast_latency_exact():
    engine, _, ll, group = trio()
    inbox = delivered_frames(ll)
    sent_at = engine.now()
    recipients = ll.deliver_frame(Frame("c1", "go", group.group_id,
                                        8_000_000, "payload"))
    assert recipients == {"go"}
    engine.run_until(sent_at + 1 * SECOND)
    assert [n for n, _, _ in inbox] == ["go"]
    _, frame, arrived_at = inbox[0]
    # 8e6 bits / 250 Mbps = 32 ms, plus 2 ms MAC latency
    assert arrived_at == sent_at + 34 * MS
    assert frame.sent_at == sent_at


def test_client_to_client_unicast_forbidden():
    engine, _, ll, group = trio()
    ll.join_group("c2", group)
    with pytest.raises(ForbiddenByRoleError):
        ll.deliver_frame(Frame("c1", "c2", group.group_id, 100, None))


def test_unicast_to_nonmember_rejected():
    engine, _, ll, group = trio()
    with pytest.raises(NotInGroupError):
        ll.deliver_frame(Frame("c1", "c2", group.group_id, 100, None))


def test_owner_broadcast_reaches_all_in_range_members():
    engine, topo, ll, group = trio()
    ll.join_group("c2", group)
    recipients = ll.deliver_frame(Frame("go", BROADCAST, group.group_id,
                                        100, None))
    assert recipients == {"c1", "c2"}


def test_client_broadcast_reaches_only_owner():
    engine, _, ll, group = trio()
    ll.join_group("c2", group)
    recipients = ll.deliver_frame(Frame("c1", BROADCAST, group.group_id,
                                        100, None))
    assert recipients == {"go"}


def test_frame_lost_when_receiver_moves_out_before_arrival():
    engine, topo, ll, group = trio()
    ll.upper = Recorder(engine)
    losses = ll.upper.losses
    ll.deliver_frame(Frame("c1", "go", group.group_id, 8_000_000, None))
    topo.apply_move("go", Position(10_000, 0))  # moves before the 34 ms arrival
    engine.run_until(engine.now() + 1 * SECOND)
    assert losses == [("c1", "go")]
    drops = trace_records(engine.trace, EventClass.DROP)
    assert any(r.details.get("reason") == "lost" for r in drops)


# ----------------------------------------------------------------------
# bridging

def two_groups():
    engine, topo, ll = make_link_world(
        {"a1": (0, 0), "b1": (150, 0), "b2": (300, 0), "a2": (450, 0)},
        intents={"a1": 2, "b1": 12, "b2": 13, "a2": 3})
    g1 = form_pair(engine, ll, "a1", "b1")
    g2 = form_pair(engine, ll, "b2", "a2", until_us=4 * SECOND)
    assert g1.owner == "b1" and g2.owner == "b2"
    return engine, topo, ll, g1, g2


def test_bridge_creates_owner_to_owner_edge():
    engine, _, ll, g1, g2 = two_groups()
    ll.bridge_attach("b1", g2)
    assert ("b1", "b2") in ll.deliverable_pairs()
    recipients = ll.deliver_frame(Frame("b1", "b2", g2.group_id, 100, None))
    assert recipients == {"b2"}
    ll.check_consistency()


def test_client_cannot_bridge():
    engine, _, ll, g1, g2 = two_groups()
    with pytest.raises(ForbiddenByRoleError):
        ll.bridge_attach("a1", g2)


def test_bridge_out_of_range_rejected():
    engine, topo, ll, g1, g2 = two_groups()
    topo.apply_move("b2", Position(5_000, 0))
    with pytest.raises(OutOfRangeError):
        ll.bridge_attach("b1", g2)


def test_bridge_disabled_by_policy():
    engine, topo, ll = make_link_world(
        {"a1": (0, 0), "b1": (150, 0), "b2": (300, 0), "a2": (450, 0)},
        intents={"a1": 2, "b1": 12, "b2": 13, "a2": 3},
        config=LinkConfig(bridging=BridgingPolicy.NONE))
    g1 = form_pair(engine, ll, "a1", "b1")
    g2 = form_pair(engine, ll, "b2", "a2", until_us=4 * SECOND)
    with pytest.raises(BridgingDisabledError):
        ll.bridge_attach("b1", g2)


def test_deliverable_pairs_enumeration():
    engine, _, ll, g1, g2 = two_groups()
    ll.bridge_attach("b1", g2)
    expected = {("a1", "b1"), ("a2", "b2"), ("b1", "b2")}
    assert ll.deliverable_pairs() == expected
    # every other pair must be rejected at this layer
    nodes = ["a1", "b1", "b2", "a2"]
    for i, src in enumerate(nodes):
        for dst in nodes[i + 1:]:
            if tuple(sorted((src, dst))) in expected:
                continue
            for group in (g1, g2):
                with pytest.raises((ForbiddenByRoleError, NotInGroupError)):
                    ll.deliver_frame(Frame(src, dst, group.group_id, 10, None))
