"""Transfer plane: connection composition, application send/receive and
delivery reporting."""

import pytest

from wfdsim.engine import MS, SECOND, EventClass
from wfdsim.linklayer import (BridgingPolicy, DeviceState, InvalidStateError,
                              LinkConfig, LinkEvents, OutOfRangeError)
from wfdsim.routing import TrafficClass
from wfdsim.transfer import DeliveryOutcome, RoleConflictError
from wfdsim.simulation import Simulation
from wfdsim.topology import Position

from conftest import (CHAIN4_NODES, CHAIN4_SCRIPT, connect_ends,
                      deliverable_pairs, make_sim, primary, trace_records)


def deliveries(sim, node):
    """(src, payload bits, app_seq) of each DELIVER record at node, in
    trace order."""
    return [(r.details["src"], int(r.details["bits"]),
             int(r.details["app_seq"]))
            for r in trace_records(sim.trace, EventClass.DELIVER)
            if r.node == node]


def connect_outcomes(sim):
    """(node, peer, action) of each `up` or `failed` CONNECT record."""
    return [(r.node, r.details["peer"], r.details["action"])
            for r in trace_records(sim.trace, EventClass.CONNECT)
            if r.details["action"] != "request"]


def pair_sim(**kwargs):
    return make_sim([("a", 0, 0, 9), ("b", 100, 0, 1)],
                    script=[(0, "connect", "a", "b")], **kwargs)


# ----------------------------------------------------------------------
# connect

def test_connect_two_idle_nodes_forms_group_and_goes_up():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    assert connect_outcomes(sim) == [("a", "b", "up")]
    assert sim.linklayer.state("a") is DeviceState.GROUP_OWNER
    assert sim.linklayer.state("b") is DeviceState.GROUP_CLIENT


def test_connect_idle_node_to_existing_owner_joins():
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (3, "connect", "c2", "go")])
    sim.run_until(5 * SECOND)
    group = sim.linklayer.owned_group("go")
    assert set(group.members) == {"c1", "c2"}
    assert all(sim.linklayer.client_group(n) is group for n in ("c1", "c2"))
    assert sim.linklayer.state("c2") is DeviceState.GROUP_CLIENT


def test_connect_owner_to_idle_node_joins_the_peer():
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (3, "connect", "go", "c2")])
    sim.run_until(5 * SECOND)
    group = sim.linklayer.owned_group("go")
    assert set(group.members) == {"c1", "c2"}
    assert all(sim.linklayer.client_group(n) is group for n in ("c1", "c2"))


def test_connect_client_to_foreign_node_is_role_conflict():
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (3, "connect", "c2", "go")])
    sim.run_until(5 * SECOND)
    with pytest.raises(RoleConflictError):
        sim.transfer.connect("c1", "c2")


def test_connect_out_of_range_rejected():
    sim = make_sim([("a", 0, 0, 9), ("z", 5000, 0, 1)])
    with pytest.raises(OutOfRangeError):
        sim.transfer.connect("a", "z")


def test_connect_a_node_to_itself_is_rejected():
    sim = pair_sim()
    with pytest.raises(ValueError, match="to itself"):
        sim.transfer.connect("a", "a")
    assert sim.trace.lines() == []


def test_connect_a_pair_with_a_scanning_end_is_busy():
    sim = pair_sim()
    sim.linklayer.start_discovery("b")
    before = sim.trace.lines()
    for local, peer in (("a", "b"), ("b", "a")):
        with pytest.raises(InvalidStateError,
                           match=f"^{local} or {peer} is busy$"):
            sim.transfer.connect(local, peer)
    assert sim.linklayer.state("b") is DeviceState.SCAN
    assert sim.trace.lines() == before


def test_connect_two_owners_bridges():
    sim = make_sim(
        [("a1", 0, 0, 2), ("b1", 150, 0, 12), ("b2", 300, 0, 13),
         ("a2", 450, 0, 3)],
        script=[(0, "connect", "a1", "b1"), (0, "connect", "b2", "a2"),
                (3, "connect", "b1", "b2")])
    sim.run_until(5 * SECOND)
    assert ("b1", "b2") in deliverable_pairs(sim.linklayer)
    assert ("b1", "b2", "up") in connect_outcomes(sim)


def test_connection_closes_when_link_dies():
    sim = pair_sim(mobility=[(5, "b", 9000, 9000)], duration_s=12)
    sim.run_until(12 * SECOND)
    # the connection ends in the keepalive eviction of the walked-off client
    assert [(r.node, r.details["peer"]) for r in trace_records(
        sim.trace, EventClass.GROUP, "evict")] == [("a", "b")]
    assert sim.linklayer.unicast_group("a", "b") is None


# how A's second connect fails at each seed: negotiation refused at once
# when the stale pair ends A's session, else the discovery timeout
STALE_DISCOVERY_REASON = {1: "OutOfRangeError", 2: "OutOfRangeError",
                          3: "OutOfRangeError", 4: "discovery_timeout",
                          5: "OutOfRangeError", 6: "discovery_timeout",
                          7: "OutOfRangeError", 8: "discovery_timeout"}


@pytest.mark.parametrize("seed", sorted(STALE_DISCOVERY_REASON))
def test_stale_discovery_of_departed_peer_fails_the_connect(seed):
    # A and B discover each other and group; A walks away (the group
    # dissolves) and back.  B walks off after the second A->B connect
    # starts.  When A then finds D (which is looking for C), the A-B pair
    # left over from the first discovery ends A's session as if B had been
    # found, and negotiation starts with a B that is out of range.  At most
    # that fails the connect; it must not end the run.
    sim = make_sim(
        [("A", 0, 0, 2), ("B", 100, 0, 12), ("C", 0, 100, 3),
         ("D", 0, 180, 11)],
        script=[(0, "connect", "A", "B"), (10.5, "connect", "A", "B"),
                (11, "connect", "C", "D")],
        mobility=[(5, "A", -5000, 0), (10, "A", 0, 0), (10.8, "B", 5000, 0)],
        seed=seed, duration_s=30)
    sim.run()
    ll = sim.linklayer
    assert ll.state("A") is DeviceState.IDLE
    assert ll.state("B") is DeviceState.IDLE
    assert ("C", "D") in deliverable_pairs(ll)
    ll.check_consistency()
    assert [(r.details["action"], r.details.get("reason"))
            for r in trace_records(sim.trace, EventClass.CONNECT)
            if r.node == "A" and r.details["action"] != "request"] == \
        [("up", None), ("failed", STALE_DISCOVERY_REASON[seed])]


def test_connect_fails_when_the_pair_drifts_apart_during_wps():
    sim = pair_sim()
    while not any(p.details["action"] == "confirm"
                  for p in trace_records(sim.trace, EventClass.NEGOTIATION)):
        sim.run_until(sim.engine.now() + 1 * MS)
    sim.topology.apply_move("b", Position(5000, 0))  # WPS takes 200 ms
    sim.run_until(3 * SECOND)
    failed = [p for p in trace_records(sim.trace, EventClass.CONNECT)
              if p.details["action"] == "failed"]
    assert [(p.node, p.details["reason"]) for p in failed] == \
        [("a", "out_of_range")]
    sim.linklayer.check_consistency()


def test_discovery_timeout_fails_the_connect_once():
    # both ends' discovery sessions time out at the same instant; the
    # connection fails once, not once per session
    sim = Simulation.from_source({
        "sim": {"duration_ms": 2000, "discovery_timeout_ms": 505},
        "nodes": [{"id": "a", "pos": [0, 0]}, {"id": "b", "pos": [100, 0]}],
        "script": [{"at_ms": 0, "action": "connect", "from": "a",
                    "to": "b"}],
    })
    sim.run()
    failed = [p for p in trace_records(sim.trace, EventClass.CONNECT)
              if p.details["action"] == "failed"]
    assert [(p.node, p.details["reason"]) for p in failed] == \
        [("a", "discovery_timeout")]


BRIDGE_NODES = [("a", 0, 0, 12), ("b", 100, 0, 2), ("c", 150, 0, 13),
                ("d", 250, 0, 3)]
GROUP_CONNECTS = [(0, "connect", "b", "a"), (0, "connect", "d", "c")]


def connect_lines(sim):
    """The run's CONNECT records as trace lines."""
    return [line for line in sim.trace.lines()
            if line.split(" ", 3)[2] == EventClass.CONNECT.value]


# one run for each way a directive or a connect ends, with every CONNECT
# record it writes
CONNECT_CASES = {
    # the bridge retries every 500 ms until both groups exist
    "bridge_before_groups": (
        lambda: make_sim(BRIDGE_NODES,
                         GROUP_CONNECTS + [(0, "bridge", "a", "c")],
                         duration_s=8),
        ["0 b CONNECT action=request peer=a",
         "0 d CONNECT action=request peer=c",
         "0 a CONNECT action=retry peer=c what=bridge",
         "500000 a CONNECT action=retry peer=c what=bridge",
         "726000 b CONNECT action=up peer=a",
         "1000000 a CONNECT action=retry peer=c what=bridge",
         "1023765 d CONNECT action=up peer=c",
         "1500000 a CONNECT action=request peer=c",
         "1700000 a CONNECT action=up peer=c"]),
    # a join retries until the run has no time for another try
    "join_never_ready": (
        lambda: make_sim([("a", 0, 0, 12), ("b", 100, 0, 2)],
                         [(0, "join", "b", "a")], duration_s=2),
        ["0 b CONNECT action=retry peer=a what=join",
         "500000 b CONNECT action=retry peer=a what=join",
         "1000000 b CONNECT action=retry peer=a what=join",
         "1500000 b CONNECT action=retry peer=a what=join",
         "2000000 b CONNECT action=failed peer=a reason=not_ready"]),
    # a client may only talk to its owner: refused with no request
    "role_conflict": (
        lambda: make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2),
                          ("c2", 75, 0, 3)],
                         [(0, "connect", "c1", "go"),
                          (3, "connect", "c2", "go"),
                          (4, "connect", "c1", "c2")], duration_s=5),
        ["0 c1 CONNECT action=request peer=go",
         "1211377 c1 CONNECT action=up peer=go",
         "3000000 c2 CONNECT action=request peer=go",
         "3200000 c2 CONNECT action=up peer=go",
         "4000000 c1 CONNECT action=failed peer=c2 "
         "reason=RoleConflictError"]),
    "out_of_range": (
        lambda: make_sim([("a", 0, 0, 9), ("z", 5000, 0, 1)],
                         [(0, "connect", "a", "z")], duration_s=1),
        ["0 a CONNECT action=failed peer=z reason=OutOfRangeError"]),
    # the second bridge is requested, and refused once WPS is done
    "bridge_twice": (
        lambda: make_sim(BRIDGE_NODES,
                         GROUP_CONNECTS + [(4, "bridge", "a", "c"),
                                           (5, "bridge", "a", "c")],
                         duration_s=8),
        ["0 b CONNECT action=request peer=a",
         "0 d CONNECT action=request peer=c",
         "726000 b CONNECT action=up peer=a",
         "1023765 d CONNECT action=up peer=c",
         "4000000 a CONNECT action=request peer=c",
         "4200000 a CONNECT action=up peer=c",
         "5000000 a CONNECT action=request peer=c",
         "5200000 a CONNECT action=failed peer=c reason=InvalidStateError"]),
    # a client and its own owner are already linked, from either end: up
    # at once, with no request
    "client_to_own_owner": (
        lambda: make_sim([("a", 0, 0, 12), ("b", 100, 0, 2)],
                         [(0, "connect", "b", "a"), (3, "connect", "b", "a"),
                          (4, "connect", "a", "b")], duration_s=5),
        ["0 b CONNECT action=request peer=a",
         "726000 b CONNECT action=up peer=a",
         "3000000 b CONNECT action=up peer=a",
         "4000000 a CONNECT action=up peer=b"]),
    # the bridge is requested, and fails once WPS is done
    "bridging_off": (
        lambda: make_sim(BRIDGE_NODES,
                         GROUP_CONNECTS + [(4, "bridge", "a", "c")],
                         duration_s=8,
                         link=LinkConfig(bridging=BridgingPolicy.NONE)),
        ["0 b CONNECT action=request peer=a",
         "0 d CONNECT action=request peer=c",
         "726000 b CONNECT action=up peer=a",
         "1023765 d CONNECT action=up peer=c",
         "4000000 a CONNECT action=request peer=c",
         "4200000 a CONNECT action=failed peer=c "
         "reason=BridgingDisabledError"]),
}


@pytest.mark.parametrize("case", sorted(CONNECT_CASES))
def test_each_way_a_connect_ends_is_traced(case):
    make, lines = CONNECT_CASES[case]
    sim = make()
    sim.run()
    assert connect_lines(sim) == lines
    assert connect_ends(sim.trace)[2] == []  # every request ended


@pytest.mark.parametrize("local, peer, leaver", [
    ("c2", "go", "go"),    # a join whose owner leaves during WPS
    ("b1", "b2", "a2"),    # a bridge whose group empties during WPS
])
def test_a_join_or_bridge_into_a_group_dissolved_during_wps_fails(
        local, peer, leaver):
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3),
                    ("b1", 0, 150, 12), ("a1", 0, 250, 2),
                    ("b2", 150, 150, 13), ("a2", 150, 250, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (0, "connect", "a1", "b1"),
                           (0, "connect", "a2", "b2")], duration_s=6)
    sim.run_until(3 * SECOND)
    group = sim.linklayer.owned_group(peer)
    sim.transfer.connect(local, peer)
    sim.run_until(3 * SECOND + 100 * MS)  # WPS ends at 3.2 s
    sim.linklayer.leave_group(leaver)
    assert group.group_id not in sim.linklayer.groups
    sim.run()
    assert connect_lines(sim)[-2:] == [
        f"3000000 {local} CONNECT action=request peer={peer}",
        f"3200000 {local} CONNECT action=failed peer={peer} "
        f"reason=NotInGroupError"]
    assert sim.linklayer.unicast_group(local, peer) is None
    sim.linklayer.check_consistency()


def test_a_connect_whose_client_is_joining_elsewhere_still_ends():
    # c2's join of go is in WPS when c2 starts discovering x: both
    # requests end, each with one record.  The join is refused, because a
    # node in discovery cannot join; had it aborted c2's session, x's
    # session (which reports no timeout) would have left c2 -> x open
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3),
                    ("x", 75, 80, 5)],
                   script=[(0, "connect", "c1", "go"),
                           (3, "connect", "c2", "go"),
                           (3.1, "connect", "c2", "x")], duration_s=20)
    sim.run()
    assert connect_ends(sim.trace)[1:] == (0, [])
    assert connect_lines(sim)[2:] == [
        "3000000 c2 CONNECT action=request peer=go",
        "3100000 c2 CONNECT action=request peer=x",
        "3200000 c2 CONNECT action=failed peer=go reason=InvalidStateError",
        "4189861 c2 CONNECT action=up peer=x"]
    sim.linklayer.check_consistency()


# ----------------------------------------------------------------------
# frame arithmetic

def test_one_megabyte_single_hop_takes_exactly_34_ms():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("b", "a", 8_000_000, TrafficClass.BULK)
    sim.run_until(5 * SECOND)
    report = sim.transfer.reports[seq]
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.latency_us == 34 * MS


def test_zero_payload_still_pays_mac_latency():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("a", "b", 0, TrafficClass.REAL_TIME)
    sim.run_until(5 * SECOND)
    report = sim.transfer.reports[seq]
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.latency_us == 2 * MS


def test_send_to_peer_that_moved_away_reports_lost_and_invalidates():
    sim = pair_sim(duration_s=20)
    sim.run_until(3 * SECOND)
    assert primary(sim.table("a"), "b").valid
    # queue the frame, then yank the receiver out of range mid-flight
    seq = sim.transfer.app_send("a", "b", 8_000_000, TrafficClass.BULK)
    sim.run_until(3 * SECOND + 10 * MS)
    sim.topology.apply_move("b", Position(9000.0, 9000.0))
    sim.run_until(5 * SECOND)
    report = sim.transfer.reports[seq]
    assert report.outcome is DeliveryOutcome.LOST
    assert not primary(sim.table("a"), "b").valid
    assert sim.summary().flows[0].outcome == "LOST"


def test_send_to_a_hop_that_shares_no_group_reports_lost_and_invalidates():
    # b leaves while the link layer reports to a stand-in, so a's routing
    # agent still routes through b when a sends
    sim = pair_sim(duration_s=20)
    sim.run_until(3 * SECOND)
    assert primary(sim.table("a"), "b").valid
    sim.linklayer.upper = LinkEvents()
    sim.linklayer.leave_group("b")
    sim.linklayer.upper = sim.transfer
    assert sim.linklayer.unicast_group("a", "b") is None
    seq = sim.transfer.app_send("a", "b", 100, TrafficClass.REAL_TIME)
    sim.run_until(3 * SECOND + 1 * MS)
    assert sim.transfer.reports[seq].outcome is DeliveryOutcome.LOST
    assert not primary(sim.table("a"), "b").valid
    drops = trace_records(sim.trace, EventClass.DROP)
    assert [(p.node, p.details) for p in drops] == \
        [("a", {"reason": "lost", "dst": "b", "detail": "no_link",
                "app_seq": str(seq)})]
    assert sim.summary().flows[0].outcome == "LOST"


# ----------------------------------------------------------------------
# app interface

def test_self_send_is_a_degenerate_local_delivery():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("a", "a", 123, TrafficClass.REAL_TIME)
    report = sim.transfer.reports[seq]
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.path == ["a"]
    assert report.latency_us == 0
    assert deliveries(sim, "a") == [("a", 123, seq)]


def test_send_from_an_unknown_node_changes_nothing():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    lines, queued = sim.trace.lines(), len(sim.engine._queue)
    with pytest.raises(KeyError, match="'ghost'"):
        sim.transfer.app_send("ghost", "a", 100, TrafficClass.REAL_TIME)
    assert sim.transfer.reports == {}
    assert sim.trace.lines() == lines
    assert len(sim.engine._queue) == queued
    assert sim.transfer.app_send("a", "b", 100) == 0  # no app_seq used up


def test_send_to_unreachable_destination_reports_no_route():
    sim = make_sim([("a", 0, 0, 9), ("b", 100, 0, 1), ("z", 9000, 9000, 5)],
                   script=[(0, "connect", "a", "b")])
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("a", "z", 100, TrafficClass.REAL_TIME)
    sim.run_until(4 * SECOND)
    assert sim.transfer.reports[seq].outcome is DeliveryOutcome.NO_ROUTE


def test_deliveries_in_order_and_exactly_once():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    s1 = sim.transfer.app_send("a", "b", 10, TrafficClass.REAL_TIME)
    s2 = sim.transfer.app_send("a", "b", 20, TrafficClass.REAL_TIME)
    sim.run_until(4 * SECOND)
    assert deliveries(sim, "b") == [("a", 10, s1), ("a", 20, s2)]
    assert deliveries(sim, "a") == []


def chain4_with_self_send():
    return make_sim(CHAIN4_NODES, CHAIN4_SCRIPT,
                    traffic=[(8, "A", "D", 8000, TrafficClass.REAL_TIME),
                             (9, "B", "B", 500, TrafficClass.BULK),
                             (10, "D", "A", 4000, TrafficClass.BULK)])


REPORT_CASES = {name: (lambda name=name: Simulation.from_source(name))
                for name in ("chain4", "gc_pair", "two_groups_bridge",
                             "mobility_break")}
REPORT_CASES["self_send"] = chain4_with_self_send


def slow_link_scenario(duration_ms=80_000):
    # one 35,000-bit send over a 1 kbit/s hop: the frame is on the air for
    # 35 s, and the flow ends only when it arrives
    radio = {"data_rate_bps": 1000}
    return {
        "sim": {"duration_ms": duration_ms},
        "nodes": [{"id": "a", "pos": [0, 0], "go_intent": 9, **radio},
                  {"id": "b", "pos": [100, 0], "go_intent": 1, **radio}],
        "script": [{"at_ms": 0, "action": "connect", "from": "a",
                    "to": "b"}],
        "traffic": [{"at_ms": 5000, "src": "a", "dst": "b",
                     "payload_bits": 35_000}],
    }


def slow_link(duration_ms=80_000):
    return Simulation.from_source(slow_link_scenario(duration_ms))


REPORT_CASES["slow_link"] = slow_link
# cut 15 s into the frame's 35 s on the air: the run ends with the flow
# still in flight, and neither its report nor its summary may call it lost
REPORT_CASES["slow_link_in_flight"] = lambda: slow_link(duration_ms=20_000)
# the sends still in flight when each case ends, with the path the summary
# has traced so far; every other send settles within the run
IN_FLIGHT_AT_END = {"slow_link_in_flight": {0: ["a"]}}


def assert_reports_match_the_summary(sim):
    """One report per send so far, agreeing with the flow the summary
    derives from the trace: outcome and endpoints always, path and latency
    once delivered, no latency and (in the report) no path before."""
    flows = {f.app_seq: f for f in sim.summary().flows}
    reports = sim.transfer.reports
    assert sorted(reports) == sorted(flows) == \
        list(range(sim.transfer._next_app_seq))
    for seq, report in reports.items():
        flow = flows[seq]
        assert (report.outcome.value, report.src, report.dst) == \
            (flow.outcome, flow.src, flow.dst)
        if report.outcome is DeliveryOutcome.DELIVERED:
            assert (report.path, report.latency_us) == \
                (flow.path, flow.latency_us)
            assert report.path[0] == report.src
            assert report.path[-1] == report.dst
        else:
            assert (report.latency_us, flow.latency_us) == (None, None)
        if report.outcome is DeliveryOutcome.IN_FLIGHT:
            assert report.path == []
    return flows


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_delivered_path_consistent_with_trace(case):
    # checked after every simulated second, so a report must agree with
    # the summary at any point of the run, not only at its end
    sim = REPORT_CASES[case]()
    duration = sim.scenario.sim.duration_us
    for t in range(SECOND, duration + SECOND, SECOND):
        sim.run_until(min(t, duration))
        flows = assert_reports_match_the_summary(sim)
    sends = list(range(len(sim.scenario.traffic)))
    in_flight = IN_FLIGHT_AT_END.get(case, {})
    assert sends and sorted(sim.transfer.reports) == sends
    for seq in sends:
        report, flow = sim.transfer.reports[seq], flows[seq]
        if seq in in_flight:
            assert report.outcome is DeliveryOutcome.IN_FLIGHT
            assert flow.path == in_flight[seq]
        else:
            assert report.outcome is not DeliveryOutcome.IN_FLIGHT


def test_slow_link_delivery_reports_its_whole_latency():
    # the report app_send made is the one the delivery ends
    sim = slow_link()
    sim.run_until(20 * SECOND)
    report = sim.transfer.reports[0]
    assert (report.outcome, report.path, report.latency_us,
            report.sent_at) == (DeliveryOutcome.IN_FLIGHT, [], None,
                                5 * SECOND)
    sim.run()
    assert sim.transfer.reports[0] is report
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.path == ["a", "b"]
    assert report.latency_us == 35_002_000
