"""Connection orchestration and the application facing send interface
with per-flow delivery reports.

Frames go straight to the Wi-Fi Direct link layer: a unicast is sent in the
context of the one group in which the two nodes may exchange frames
(`LinkLayer.unicast_group`), and a control broadcast goes into every group
context of the sending node.  The transfer layer is the link layer's one
upper layer (`LinkEvents`): it sets itself as `LinkLayer.upper` and hands
arrivals, losses and link changes on to the routing agents.

A connect's outcome is its `CONNECT` records (`request`, then `up` or
`failed`); the transfer layer keeps no connection state of its own.  One
method, `end_connect`, writes every connect's last record, whichever way
it ends: at once, after WPS, after negotiation, or when a script directive
gives up.

`app_send` puts the flow's report into `reports` at once, reading
`IN_FLIGHT`, as the summary does for a flow with no record that ends it.
The report is ended in place, once, at the traced event that ends its
packet: the `DELIVER` record, the `DROP` of a TTL expiry or a missing
route, or the `DROP reason=lost` of a frame that found no link or did not
arrive, which names the packet's `app_seq`.  A packet travels as one
unicast frame per hop and stops at its destination, so it ends exactly
once.  A delivery report's path is the one the packet recorded on itself
as it was forwarded (`Packet.path`), plus the node that delivered it; the
transfer layer never reads the trace back.
"""

from __future__ import annotations

from enum import Enum
from functools import partial

from .engine import Engine, EventClass, NodeId, record_format
from .linklayer import (BROADCAST, DeviceState, Frame, InvalidStateError,
                        LinkError, LinkEvents, LinkLayer, OutOfRangeError)
from .routing import (CONTROL_FRAME_BITS, Packet, RoutingAgent, TrafficClass)

# the format of each kind of trace record this layer writes
_REQUEST = record_format(EventClass.CONNECT, "action=request", "peer")
_UP = record_format(EventClass.CONNECT, "action=up", "peer")
_FAILED = record_format(EventClass.CONNECT, "action=failed", "peer", "reason")
_NO_LINK = record_format(EventClass.DROP, "reason=lost", "dst",
                         "detail=no_link")
_NO_LINK_APP_SEQ = record_format(EventClass.DROP, "reason=lost", "dst",
                                 "detail=no_link", "app_seq")
_DELIVER = record_format(EventClass.DELIVER, "src", "app_seq", "cls", "bits")


class RoleConflictError(LinkError):
    """A group client may connect only to its own owner."""


class DeliveryOutcome(Enum):
    DELIVERED = "DELIVERED"
    NO_ROUTE = "NO_ROUTE"
    TTL_EXPIRED = "TTL_EXPIRED"
    LOST = "LOST"
    IN_FLIGHT = "IN_FLIGHT"


class DeliveryReport:
    __slots__ = ("app_seq", "src", "dst", "outcome", "path", "latency_us",
                 "sent_at")

    def __init__(self, app_seq: int, src: NodeId, dst: NodeId,
                 outcome: DeliveryOutcome, path: list[NodeId],
                 latency_us: int | None, sent_at: int):
        self.app_seq = app_seq
        self.src = src
        self.dst = dst
        self.outcome = outcome
        self.path = path
        self.latency_us = latency_us
        self.sent_at = sent_at


class TransferLayer(LinkEvents):
    """Per-simulation transfer plane: wraps packets in frames, dispatches
    arrivals up to the routing agents, and keeps each flow's one report
    from `app_send` to the traced event that ends it."""

    def __init__(self, engine: Engine, linklayer: LinkLayer):
        self.engine = engine
        self.linklayer = linklayer
        self.agents: dict[NodeId, RoutingAgent] = {}
        self._next_app_seq = 0
        self.reports: dict[int, DeliveryReport] = {}
        linklayer.upper = self

    def attach_agent(self, agent: RoutingAgent) -> None:
        node = agent.node
        self.agents[node] = agent
        agent.transfer = self

    # ------------------------------------------------------------------
    # connection management

    def connect(self, local: NodeId, peer: NodeId) -> None:
        """Compose whatever link-layer flow the endpoint roles require:
        discovery + GO negotiation for two idle nodes, a join when one side
        already owns a group, a bridge when both do."""
        if local == peer:
            raise ValueError("cannot connect a node to itself")
        if not self.linklayer.topology.in_range(local, peer):
            raise OutOfRangeError(f"{local} and {peer} are out of range")
        ll = self.linklayer
        for node, other in ((local, peer), (peer, local)):
            group = ll.client_group(node)
            if group is None:
                continue
            if group.owner == other:
                self.end_connect(local, peer)
                return
            raise RoleConflictError(
                f"{node} is a group client and may only talk to {group.owner}")

        # neither is a client, so any state but these two is busy
        ls, ps = ll.state(local), ll.state(peer)
        if {ls, ps} - {DeviceState.IDLE, DeviceState.GROUP_OWNER}:
            raise InvalidStateError(f"{local} or {peer} is busy")

        self.engine.log(_REQUEST, local, peer)

        if ls is DeviceState.GROUP_OWNER and ps is DeviceState.GROUP_OWNER:
            attach, node, group = ll.bridge_attach, local, ll.owned_group(peer)
        elif ps is DeviceState.GROUP_OWNER:
            attach, node, group = ll.join_group, local, ll.owned_group(peer)
        elif ls is DeviceState.GROUP_OWNER:
            attach, node, group = ll.join_group, peer, ll.owned_group(local)
        else:
            self._discover_then_negotiate(local, peer)
            return
        self.engine.call_later(ll.config.wps_us, self._finish, local, peer,
                               attach, node, group)

    def _finish(self, local: NodeId, peer: NodeId, attach, node: NodeId,
                group) -> None:
        """Join or bridge `node` into `group` once WPS is done."""
        try:
            attach(node, group)
        except LinkError as exc:  # policy, role or range changed meanwhile
            self.end_connect(local, peer, type(exc).__name__)
        else:
            self.end_connect(local, peer)

    def _discover_then_negotiate(self, local: NodeId, peer: NodeId) -> None:
        """Discovery is recorded on both ends, and negotiating (or aborting
        after it fails) ends both sessions, so `on_found` runs at most once
        per connect and only once each side has found the other.  The two
        sessions start at one instant with one timeout, and every other way
        one ends also ends the other, so only the initiator's reports its
        timeout: it fires first."""
        ll = self.linklayer
        done = partial(self.end_connect, local, peer)

        def on_found(node, discovered):
            try:
                ll.negotiate_go(local, peer, done)
            except LinkError as exc:
                # the pair may be left from an earlier discovery and the
                # peer gone since; end both sessions so neither node is
                # left in FIND_*
                ll.abort_discovery(local)
                ll.abort_discovery(peer)
                done(type(exc).__name__)

        ll.start_discovery(local, target=peer, on_found=on_found,
                           on_timeout=lambda node: done("discovery_timeout"))
        ll.start_discovery(peer, target=local, on_found=on_found)

    def end_connect(self, local: NodeId, peer: NodeId,
                    reason: str | None = None) -> None:
        """Write a connect's last record: `up`, or `failed` with the
        reason.  Every connect ends here, and so does a directive that
        gives up."""
        if reason is None:
            self.engine.log(_UP, local, peer)
        else:
            self.engine.log(_FAILED, local, peer, reason)

    # ------------------------------------------------------------------
    # link events (LinkEvents)

    def link_up(self, a: NodeId, b: NodeId) -> None:
        for node, peer in ((a, b), (b, a)):
            agent = self.agents.get(node)
            if agent is not None:
                agent.on_link_up(peer)

    def link_down(self, a: NodeId, b: NodeId) -> None:
        for node, peer in ((a, b), (b, a)):
            agent = self.agents.get(node)
            if agent is not None:
                agent.on_link_down(peer)

    # ------------------------------------------------------------------
    # frame plane

    def broadcast_control(self, node: NodeId, msg) -> set[NodeId]:
        """One-hop broadcast of a control message into every group context
        of the node; returns the union of intended recipients."""
        reached: set[NodeId] = set()
        for group in self.linklayer.contexts(node):
            reached |= self.linklayer.deliver_frame(
                Frame(node, BROADCAST, group.group_id, CONTROL_FRAME_BITS, msg))
        return reached

    def send_control(self, node: NodeId, peer: NodeId, msg) -> bool:
        """Called by nothing in wfdsim; kept while bench/spans.py wraps it."""
        return self._send_frame(node, peer, CONTROL_FRAME_BITS, msg)

    def send_data(self, node: NodeId, pkt: Packet, next_hop: NodeId) -> bool:
        """Wrap a routed packet in a frame toward next_hop.  A dead link is
        reported upward so the routing layer can invalidate immediately."""
        return self._send_frame(node, next_hop, pkt.payload_bits, pkt)

    def _send_frame(self, node: NodeId, peer: NodeId, size_bits: int,
                    payload) -> bool:
        group = self.linklayer.unicast_group(node, peer)
        if group is None:
            app_seq = self.lost_app_seq(payload)
            if app_seq is None:
                self.engine.log(_NO_LINK, node, peer)
            else:
                self.engine.log(_NO_LINK_APP_SEQ, node, peer, app_seq)
            self._report_loss(node, peer, payload)
            return False
        self.linklayer.deliver_frame(
            Frame(node, peer, group.group_id, size_bits, payload))
        return True

    def _on_frame(self, node: NodeId, frame: Frame) -> None:
        agent = self.agents[node]
        if isinstance(frame.payload, Packet):
            agent.forward(frame.payload)
        else:
            agent.handle_control(frame.payload, frame.sent_at)

    def frame_lost(self, src: NodeId, dst: NodeId, frame: Frame) -> None:
        self._report_loss(src, dst, frame.payload)

    def lost_app_seq(self, payload) -> int | None:
        """A lost data frame's record names its packet, so the summary
        ends that flow as `LOST`; a control frame's names nothing."""
        if isinstance(payload, Packet):
            return payload.app_seq
        return None

    def _report_loss(self, src: NodeId, dst: NodeId, payload) -> None:
        agent = self.agents.get(src)
        if agent is not None:
            agent.invalidate_neighbor(dst)
        if isinstance(payload, Packet):
            self._finalize(payload.app_seq, DeliveryOutcome.LOST)

    # ------------------------------------------------------------------
    # application interface

    def app_send(self, src: NodeId, dst: NodeId, payload_bits: int,
                 traffic_class: TrafficClass = TrafficClass.REAL_TIME) -> int:
        if src not in self.agents:
            raise KeyError(f"unknown node {src!r}")
        app_seq = self._next_app_seq
        self._next_app_seq += 1
        self.reports[app_seq] = DeliveryReport(
            app_seq, src, dst, DeliveryOutcome.IN_FLIGHT, [], None,
            self.engine.now())
        if dst == src:
            self.deliver_local(src, Packet(src, dst, app_seq, 0,
                                           traffic_class, payload_bits))
            return app_seq
        pkt = Packet(src, dst, app_seq, self.agents[src].config.default_ttl,
                     traffic_class, payload_bits)
        self.engine.call_later(0, self.agents[src].forward, pkt)
        return app_seq

    def deliver_local(self, node: NodeId, pkt: Packet) -> None:
        self.engine.log(_DELIVER, node, pkt.src, pkt.app_seq,
                        pkt.traffic_class._value_, pkt.payload_bits)
        self._finalize(pkt.app_seq, DeliveryOutcome.DELIVERED,
                       pkt.path + [node])

    # ------------------------------------------------------------------
    # delivery reports

    def notify_drop(self, app_seq: int, reason: str) -> None:
        outcome = {"ttl_expired": DeliveryOutcome.TTL_EXPIRED,
                   "no_route": DeliveryOutcome.NO_ROUTE}[reason]
        self._finalize(app_seq, outcome)

    def _finalize(self, app_seq: int, outcome: DeliveryOutcome,
                  path: list[NodeId] | None = None) -> None:
        """End the flow's report in place; path is given for deliveries."""
        report = self.reports.get(app_seq)
        if report is None or report.outcome is not DeliveryOutcome.IN_FLIGHT:
            return  # a packet that no app_send made, or a flow that ended
        report.outcome = outcome
        if outcome is DeliveryOutcome.DELIVERED:
            report.path = path
            report.latency_us = self.engine.now() - report.sent_at
