"""Transfer plane: connection composition, application send/receive and
delivery reporting."""

import pytest

from wfdsim.engine import MS, SECOND, EventClass
from wfdsim.linklayer import DeviceState, LinkEvents, OutOfRangeError
from wfdsim.routing import Packet, TrafficClass
from wfdsim.transfer import (ConnectionState, DeliveryOutcome,
                             RoleConflictError)
from wfdsim.simulation import Simulation
from wfdsim.topology import Position

from conftest import CHAIN4_NODES, CHAIN4_SCRIPT, make_sim, trace_records


def deliveries(sim, node):
    """(src, payload bits, app_seq) of each DELIVER record at node, in
    trace order."""
    return [(r.details["src"], int(r.details["bits"]),
             int(r.details["app_seq"]))
            for r in trace_records(sim.trace, EventClass.DELIVER)
            if r.node == node]


def pair_sim(**kwargs):
    return make_sim([("a", 0, 0, 9), ("b", 100, 0, 1)],
                    script=[(0, "connect", "a", "b")], **kwargs)


# ----------------------------------------------------------------------
# connect

def test_connect_two_idle_nodes_forms_group_and_goes_up():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    conn = sim.transfer.connections[0]
    assert conn.state is ConnectionState.UP
    assert sim.linklayer.state("a") is DeviceState.GROUP_OWNER
    assert sim.linklayer.state("b") is DeviceState.GROUP_CLIENT


def test_connect_idle_node_to_existing_owner_joins():
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (3, "connect", "c2", "go")])
    sim.run_until(5 * SECOND)
    group = sim.linklayer.owned_group("go")
    assert group.clients == {"c1", "c2"}
    assert sim.linklayer.state("c2") is DeviceState.GROUP_CLIENT


def test_connect_owner_to_idle_node_joins_the_peer():
    sim = make_sim([("go", 0, 0, 14), ("c1", -75, 0, 2), ("c2", 75, 0, 3)],
                   script=[(0, "connect", "c1", "go"),
                           (3, "connect", "go", "c2")])
    sim.run_until(5 * SECOND)
    assert sim.linklayer.owned_group("go").clients == {"c1", "c2"}


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


def test_connect_two_owners_bridges():
    sim = make_sim(
        [("a1", 0, 0, 2), ("b1", 150, 0, 12), ("b2", 300, 0, 13),
         ("a2", 450, 0, 3)],
        script=[(0, "connect", "a1", "b1"), (0, "connect", "b2", "a2"),
                (3, "connect", "b1", "b2")])
    sim.run_until(5 * SECOND)
    assert ("b1", "b2") in sim.linklayer.deliverable_pairs()
    up = [c for c in sim.transfer.connections
          if {c.local, c.peer} == {"b1", "b2"}]
    assert up and up[0].state is ConnectionState.UP


def test_connection_closes_when_link_dies():
    sim = pair_sim(mobility=[(5, "b", 9000, 9000)], duration_s=12)
    sim.run_until(12 * SECOND)
    conn = sim.transfer.connections[0]
    assert conn.state is ConnectionState.CLOSED
    assert conn.reason == "link_down"


@pytest.mark.parametrize("seed", range(1, 9))
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
    assert ("C", "D") in ll.deliverable_pairs()
    ll.check_consistency()
    second = [c for c in sim.transfer.connections
              if (c.local, c.peer) == ("A", "B")][-1]
    assert second.state is ConnectionState.CLOSED


def test_connect_fails_when_the_pair_drifts_apart_during_wps():
    sim = pair_sim()
    while not any(p.details["action"] == "confirm"
                  for p in trace_records(sim.trace, EventClass.NEGOTIATION)):
        sim.run_until(sim.engine.now() + 1 * MS)
    sim.topology.apply_move("b", Position(5000, 0))  # WPS takes 200 ms
    sim.run_until(3 * SECOND)
    conn = sim.transfer.connections[0]
    assert (conn.state, conn.reason) == (ConnectionState.CLOSED,
                                         "out_of_range")
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
    conn = sim.transfer.connections[0]
    assert (conn.state, conn.reason) == (ConnectionState.CLOSED,
                                         "discovery_timeout")


# ----------------------------------------------------------------------
# frame arithmetic

def test_one_megabyte_single_hop_takes_exactly_34_ms():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("b", "a", 8_000_000, TrafficClass.BULK)
    sim.run_until(5 * SECOND)
    report = sim.transfer.report(seq)
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.latency_us == 34 * MS


def test_zero_payload_still_pays_mac_latency():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("a", "b", 0, TrafficClass.REAL_TIME)
    sim.run_until(5 * SECOND)
    report = sim.transfer.report(seq)
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.latency_us == 2 * MS


def test_send_to_peer_that_moved_away_reports_lost_and_invalidates():
    sim = pair_sim(duration_s=20)
    sim.run_until(3 * SECOND)
    assert sim.table("a").primary("b").valid
    # queue the frame, then yank the receiver out of range mid-flight
    seq = sim.transfer.app_send("a", "b", 8_000_000, TrafficClass.BULK)
    sim.run_until(3 * SECOND + 10 * MS)
    sim.topology.apply_move("b", Position(9000.0, 9000.0))
    sim.run_until(5 * SECOND)
    report = sim.transfer.report(seq)
    assert report.outcome is DeliveryOutcome.LOST
    assert not sim.table("a").primary("b").valid


def test_send_to_a_hop_that_shares_no_group_reports_lost_and_invalidates():
    # b leaves while the link layer reports to a stand-in, so a's routing
    # agent still routes through b when a sends
    sim = pair_sim(duration_s=20)
    sim.run_until(3 * SECOND)
    assert sim.table("a").primary("b").valid
    sim.linklayer.upper = LinkEvents()
    sim.linklayer.leave_group("b")
    sim.linklayer.upper = sim.transfer
    assert sim.linklayer.unicast_group("a", "b") is None
    seq = sim.transfer.app_send("a", "b", 100, TrafficClass.REAL_TIME)
    sim.run_until(3 * SECOND + 1 * MS)
    assert sim.transfer.report(seq).outcome is DeliveryOutcome.LOST
    assert not sim.table("a").primary("b").valid
    drops = trace_records(sim.trace, EventClass.DROP)
    assert [(p.node, p.details) for p in drops] == \
        [("a", {"reason": "lost", "dst": "b", "detail": "no_link"})]


def test_swallowed_data_frame_times_out_as_lost():
    # a send whose frame vanishes without a trace of loss is settled only
    # by the report timeout; the run carries on and the link layer stays
    # consistent
    sim = pair_sim(duration_s=40)
    sim.run_until(3 * SECOND)
    sim.transfer.send_data = lambda node, pkt, next_hop: True
    seq = sim.transfer.app_send("a", "b", 100, TrafficClass.REAL_TIME)
    sim.run_until(10 * SECOND)
    assert sim.transfer.report(seq) is None
    sim.run_until(35 * SECOND)
    assert sim.transfer.report(seq).outcome is DeliveryOutcome.LOST
    sim.linklayer.check_consistency()


# ----------------------------------------------------------------------
# app interface

def test_self_send_is_a_degenerate_local_delivery():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("a", "a", 123, TrafficClass.REAL_TIME)
    report = sim.transfer.report(seq)
    assert report.outcome is DeliveryOutcome.DELIVERED
    assert report.path == ["a"]
    assert report.latency_us == 0
    assert deliveries(sim, "a") == [("a", 123, seq)]


def test_send_to_unreachable_destination_reports_no_route():
    sim = make_sim([("a", 0, 0, 9), ("b", 100, 0, 1), ("z", 9000, 9000, 5)],
                   script=[(0, "connect", "a", "b")])
    sim.run_until(3 * SECOND)
    seq = sim.transfer.app_send("a", "z", 100, TrafficClass.REAL_TIME)
    sim.run_until(4 * SECOND)
    assert sim.transfer.report(seq).outcome is DeliveryOutcome.NO_ROUTE


def test_deliveries_in_order_and_exactly_once():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    s1 = sim.transfer.app_send("a", "b", 10, TrafficClass.REAL_TIME)
    s2 = sim.transfer.app_send("a", "b", 20, TrafficClass.REAL_TIME)
    sim.run_until(4 * SECOND)
    assert deliveries(sim, "b") == [("a", 10, s1), ("a", 20, s2)]
    assert deliveries(sim, "a") == []


def test_duplicate_injection_suppressed_by_dedup_window():
    sim = pair_sim()
    sim.run_until(3 * SECOND)
    pkt = Packet("a", "b", 777, 16, TrafficClass.REAL_TIME, 10)
    sim.agent("b").forward(pkt)
    dup = Packet("a", "b", 777, 16, TrafficClass.REAL_TIME, 10)
    sim.agent("b").forward(dup)
    assert [m for m in deliveries(sim, "b") if m[2] == 777] == \
        [("a", 10, 777)]
    drops = [r for r in trace_records(sim.trace, EventClass.DROP)
             if r.details.get("reason") == "duplicate"]
    assert len(drops) == 1


def chain4_with_self_send():
    return make_sim(CHAIN4_NODES, CHAIN4_SCRIPT,
                    traffic=[(8, "A", "D", 8000, TrafficClass.REAL_TIME),
                             (9, "B", "B", 500, TrafficClass.BULK),
                             (10, "D", "A", 4000, TrafficClass.BULK)])


REPORT_CASES = {name: (lambda name=name: Simulation.from_source(name))
                for name in ("chain4", "gc_pair", "two_groups_bridge",
                             "mobility_break")}
REPORT_CASES["self_send"] = chain4_with_self_send


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_delivered_path_consistent_with_trace(case):
    # every send's report agrees with the flow the summary derives from
    # the trace: outcome and endpoints always, path and latency when
    # delivered
    sim = REPORT_CASES[case]()
    summary = sim.run()
    flows = {f.app_seq: f for f in summary.flows}
    sends = list(range(len(sim.scenario.traffic)))
    assert sends and sorted(sim.transfer.reports) == sends
    for seq in sends:
        report, flow = sim.transfer.report(seq), flows[seq]
        assert (report.outcome.value, report.src, report.dst) == \
            (flow.outcome, flow.src, flow.dst)
        if report.outcome is DeliveryOutcome.DELIVERED:
            assert (report.path, report.latency_us) == \
                (flow.path, flow.latency_us)
            assert report.path[0] == report.src
            assert report.path[-1] == report.dst

