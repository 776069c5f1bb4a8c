"""Connection orchestration and the application facing send interface
with per-flow delivery reports.

Frames go straight to the Wi-Fi Direct link layer: a unicast is sent in the
context of the one group in which the two nodes may exchange frames
(`LinkLayer.unicast_group`), and a control broadcast goes into every group
context of the sending node.  The transfer layer is the link layer's one
upper layer (`LinkEvents`): it sets itself as `LinkLayer.upper` and hands
arrivals, losses and link changes on to the routing agents.

A delivery report's path is the one the packet recorded on itself as it
was forwarded (`Packet.path`), plus the node that delivered it; the
transfer layer never reads the trace back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .engine import Engine, EventClass, NodeId
from .linklayer import (BROADCAST, DeviceState, Frame, InvalidStateError,
                        LinkError, LinkEvents, LinkLayer, OutOfRangeError)
from .routing import (CONTROL_FRAME_BITS, Packet, RoutingAgent, TrafficClass)


class TransferError(Exception):
    pass


class RoleConflictError(TransferError):
    pass


class ConnectionState(Enum):
    CONNECTING = "CONNECTING"
    UP = "UP"
    CLOSED = "CLOSED"


@dataclass
class Connection:
    local: NodeId
    peer: NodeId
    state: ConnectionState = ConnectionState.CONNECTING
    reason: str = ""


class DeliveryOutcome(Enum):
    DELIVERED = "DELIVERED"
    NO_ROUTE = "NO_ROUTE"
    TTL_EXPIRED = "TTL_EXPIRED"
    LOST = "LOST"


@dataclass
class DeliveryReport:
    app_seq: int
    src: NodeId
    dst: NodeId
    outcome: DeliveryOutcome
    path: list[NodeId]
    latency_us: int | None


@dataclass
class _PendingFlow:
    src: NodeId
    dst: NodeId
    sent_at: int
    timeout_handle: object


DEDUP_WINDOW = 1024
REPORT_TIMEOUT_US = 30_000_000


class TransferLayer(LinkEvents):
    """Per-simulation transfer plane: wraps packets in frames, dispatches
    arrivals up to the routing agents, delivers each packet once per node
    through a (src, app_seq) de-duplication window, and tracks per-flow
    outcomes: a delivery is recorded in its report and its DELIVER trace
    record."""

    def __init__(self, engine: Engine, linklayer: LinkLayer):
        self.engine = engine
        self.linklayer = linklayer
        self.agents: dict[NodeId, RoutingAgent] = {}
        self.connections: list[Connection] = []
        self._dedup: dict[NodeId, tuple[deque, set]] = {}
        self._next_app_seq = 0
        self._pending: dict[int, _PendingFlow] = {}
        self.reports: dict[int, DeliveryReport] = {}
        linklayer.upper = self

    def attach_agent(self, agent: RoutingAgent) -> None:
        node = agent.node
        self.agents[node] = agent
        agent.transfer = self
        self._dedup[node] = (deque(), set())

    # ------------------------------------------------------------------
    # connection management

    def connect(self, local: NodeId, peer: NodeId) -> Connection:
        """Compose whatever link-layer flow the endpoint roles require:
        discovery + GO negotiation for two idle nodes, a join when one side
        already owns a group, a bridge when both do."""
        if local == peer:
            raise ValueError("cannot connect a node to itself")
        if not self.linklayer.topology.in_range(local, peer):
            raise OutOfRangeError(f"{local} and {peer} are out of range")
        ll = self.linklayer
        ls, ps = ll.state(local), ll.state(peer)

        if ls is DeviceState.GROUP_CLIENT:
            group = ll.client_group(local)
            if group.owner == peer:
                return self._track(local, peer, ConnectionState.UP)
            raise RoleConflictError(
                f"{local} is a group client and may only talk to {group.owner}")
        if ps is DeviceState.GROUP_CLIENT:
            group = ll.client_group(peer)
            if group.owner == local:
                return self._track(local, peer, ConnectionState.UP)
            raise RoleConflictError(
                f"{peer} is a group client and may only talk to {group.owner}")

        busy = (DeviceState.SCAN, DeviceState.FIND_SEARCH,
                DeviceState.FIND_LISTEN, DeviceState.NEGOTIATING)
        if ls in busy or ps in busy:
            raise InvalidStateError(f"{local} or {peer} is busy")

        conn = self._track(local, peer, ConnectionState.CONNECTING)
        self.engine.log(local, EventClass.CONNECT, action="request", peer=peer)

        if ls is DeviceState.GROUP_OWNER and ps is DeviceState.GROUP_OWNER:
            attach, node, group = ll.bridge_attach, local, ll.owned_group(peer)
        elif ps is DeviceState.GROUP_OWNER:
            attach, node, group = ll.join_group, local, ll.owned_group(peer)
        elif ls is DeviceState.GROUP_OWNER:
            attach, node, group = ll.join_group, peer, ll.owned_group(local)
        else:
            self._discover_then_negotiate(conn)
            return conn
        self.engine.call_later(ll.config.wps_us, self._finish, conn, attach,
                               node, group)
        return conn

    def _track(self, local, peer, state) -> Connection:
        conn = Connection(local, peer, state)
        self.connections.append(conn)
        if state is ConnectionState.UP:
            self.engine.log(local, EventClass.CONNECT, action="up", peer=peer)
        return conn

    def _conn_up(self, conn: Connection) -> None:
        conn.state = ConnectionState.UP
        self.engine.log(conn.local, EventClass.CONNECT, action="up",
                        peer=conn.peer)

    def _conn_failed(self, conn: Connection, reason: str) -> None:
        if conn.state is not ConnectionState.CONNECTING:
            return  # both discovery sessions time out at the same instant
        conn.state = ConnectionState.CLOSED
        conn.reason = reason
        self.engine.log(conn.local, EventClass.CONNECT, action="failed",
                        peer=conn.peer, reason=reason)

    def _finish(self, conn: Connection, attach, node: NodeId, group) -> None:
        """Join or bridge `node` into `group` once WPS is done."""
        try:
            attach(node, group)
        except LinkError as exc:  # policy, role or range changed meanwhile
            self._conn_failed(conn, type(exc).__name__)
            return
        self._conn_up(conn)

    def _discover_then_negotiate(self, conn: Connection) -> None:
        """Discovery is recorded on both ends, and negotiating (or aborting
        after it fails) ends both sessions, so `on_found` runs at most once
        per connect and only once each side has found the other."""
        ll = self.linklayer
        local, peer = conn.local, conn.peer

        def on_found(node, discovered):
            try:
                ll.negotiate_go(local, peer,
                                on_complete=lambda group: self._conn_up(conn),
                                on_failed=lambda i, r, reason:
                                self._conn_failed(conn, reason))
            except LinkError as exc:
                # the pair may be left from an earlier discovery and the
                # peer gone since; end both sessions so neither node is
                # left in FIND_*
                ll.abort_discovery(local)
                ll.abort_discovery(peer)
                self._conn_failed(conn, type(exc).__name__)

        def on_timeout(node):
            self._conn_failed(conn, "discovery_timeout")

        ll.start_discovery(local, target=peer, on_found=on_found,
                           on_timeout=on_timeout)
        ll.start_discovery(peer, target=local, on_found=on_found,
                           on_timeout=on_timeout)

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
        for conn in self.connections:
            if conn.state is ConnectionState.UP and \
                    {conn.local, conn.peer} == {a, b}:
                conn.state = ConnectionState.CLOSED
                conn.reason = "link_down"

    # ------------------------------------------------------------------
    # frame plane

    def link_peers(self, node: NodeId) -> set[NodeId]:
        return self.linklayer.peers(node)

    def broadcast_control(self, node: NodeId, msg) -> set[NodeId]:
        """One-hop broadcast of a control message into every group context
        of the node; returns the union of intended recipients."""
        reached: set[NodeId] = set()
        groups = []
        owned = self.linklayer.owned_group(node)
        if owned is not None:
            groups.append(owned)
        client = self.linklayer.client_group(node)
        if client is not None:
            groups.append(client)
        groups += self.linklayer.bridge_groups(node)
        for group in groups:
            reached |= self.linklayer.deliver_frame(
                Frame(node, BROADCAST, group.group_id, CONTROL_FRAME_BITS, msg))
        return reached

    def send_control(self, node: NodeId, peer: NodeId, msg) -> bool:
        return self._send_frame(node, peer, CONTROL_FRAME_BITS, msg)

    def send_data(self, node: NodeId, pkt: Packet, next_hop: NodeId) -> bool:
        """Wrap a routed packet in a frame toward next_hop.  A dead link is
        reported upward so the routing layer can invalidate immediately."""
        return self._send_frame(node, next_hop, pkt.payload_bits, pkt)

    def _send_frame(self, node: NodeId, peer: NodeId, size_bits: int,
                    payload) -> bool:
        group = self.linklayer.unicast_group(node, peer)
        if group is None:
            self.engine.log(node, EventClass.DROP, reason="lost", dst=peer,
                            detail="no_link")
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

    def _report_loss(self, src: NodeId, dst: NodeId, payload) -> None:
        agent = self.agents.get(src)
        if agent is not None:
            agent.invalidate_neighbor(dst)
        if isinstance(payload, Packet):
            self._finalize(payload.app_seq, DeliveryOutcome.LOST)

    # ------------------------------------------------------------------
    # application interface

    def app_send(self, src: NodeId, dst: NodeId, payload_bits: int,
                 traffic_class: TrafficClass = TrafficClass.REAL_TIME,
                 ttl: int | None = None) -> int:
        if src not in self.agents:
            raise KeyError(f"unknown node {src!r}")
        app_seq = self._next_app_seq
        self._next_app_seq += 1
        if dst == src:
            pkt = Packet(src, dst, app_seq, 0, traffic_class, payload_bits)
            self._pending[app_seq] = _PendingFlow(src, dst, self.engine.now(),
                                                  None)
            self.deliver_local(src, pkt)
            return app_seq
        ttl = ttl if ttl is not None else self.agents[src].config.default_ttl
        pkt = Packet(src, dst, app_seq, ttl, traffic_class, payload_bits)
        handle = self.engine.call_later(REPORT_TIMEOUT_US, self._finalize,
                                        app_seq, DeliveryOutcome.LOST)
        self._pending[app_seq] = _PendingFlow(src, dst, self.engine.now(),
                                              handle)
        self.engine.call_later(0, self.agents[src].forward, pkt)
        return app_seq

    def deliver_local(self, node: NodeId, pkt: Packet) -> None:
        window, seen = self._dedup[node]
        key = (pkt.src, pkt.app_seq)
        if key in seen:
            self.engine.log(node, EventClass.DROP, reason="duplicate",
                            src=pkt.src, app_seq=pkt.app_seq)
            return
        window.append(key)
        seen.add(key)
        if len(window) > DEDUP_WINDOW:
            seen.discard(window.popleft())
        self.engine.log(node, EventClass.DELIVER, src=pkt.src,
                        app_seq=pkt.app_seq, cls=pkt.traffic_class,
                        bits=pkt.payload_bits)
        self._finalize(pkt.app_seq, DeliveryOutcome.DELIVERED,
                       pkt.path + [node])

    # ------------------------------------------------------------------
    # delivery reports

    def notify_drop(self, app_seq: int, reason: str) -> None:
        outcome = {"ttl_expired": DeliveryOutcome.TTL_EXPIRED,
                   "no_route": DeliveryOutcome.NO_ROUTE,
                   "lost": DeliveryOutcome.LOST}[reason]
        self._finalize(app_seq, outcome)

    def _finalize(self, app_seq: int, outcome: DeliveryOutcome,
                  path: list[NodeId] | None = None) -> None:
        """Record the flow's one report; path is given for deliveries."""
        flow = self._pending.pop(app_seq, None)
        if flow is None:
            return  # already terminal (e.g. duplicate delivery)
        if flow.timeout_handle is not None:
            flow.timeout_handle.cancel()
        latency: int | None = None
        if outcome is DeliveryOutcome.DELIVERED:
            latency = self.engine.now() - flow.sent_at
        self.reports[app_seq] = DeliveryReport(app_seq, flow.src, flow.dst,
                                               outcome, path or [], latency)

    def report(self, app_seq: int) -> DeliveryReport | None:
        return self.reports.get(app_seq)
