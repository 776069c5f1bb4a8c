"""Wi-Fi Direct link model: device discovery (Scan/Find), standard group
owner negotiation, group lifecycle with GO-assigned addressing, and the
frame-delivery rules that encode the technology's constraints.

The delivery rules are the point of this layer: within a group, unicast
frames flow only between the group owner and one of its members.  Two
clients of the same group can never exchange frames directly, and a
client cannot belong to two groups.  Inter-group connectivity exists only
through the bridging policy, where a group owner additionally attaches to
a foreign group as a legacy client and may then exchange frames with that
group's owner.

The layer reports upward to one object, `LinkEvents` (`LinkLayer.upper`):
frame arrivals, frames lost at arrival, and links that come up or go down.
The transfer layer is that object in a simulation; tests substitute a
recorder.  Discovery and negotiation report through the continuations
passed to each call instead, because each call belongs to one connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .engine import MS, SECOND, Engine, EventClass, NodeId, uniform_duration
from .topology import Topology

BROADCAST: NodeId = "*"
SOCIAL_CHANNELS = (1, 6, 11)


class LinkError(Exception):
    pass


class InvalidStateError(LinkError):
    pass


class ForbiddenByRoleError(LinkError):
    """The requested exchange violates group-role constraints (e.g. GC-to-GC)."""


class NotInGroupError(LinkError):
    pass


class OutOfRangeError(LinkError):
    pass


class BridgingDisabledError(LinkError):
    pass


class DeviceState(Enum):
    IDLE = "IDLE"
    SCAN = "SCAN"
    FIND_SEARCH = "FIND_SEARCH"
    FIND_LISTEN = "FIND_LISTEN"
    NEGOTIATING = "NEGOTIATING"
    GROUP_OWNER = "GROUP_OWNER"
    GROUP_CLIENT = "GROUP_CLIENT"


FIND_STATES = (DeviceState.FIND_SEARCH, DeviceState.FIND_LISTEN)


class BridgingPolicy(Enum):
    GO_AS_LEGACY_CLIENT = "GO_AS_LEGACY_CLIENT"
    NONE = "NONE"


@dataclass(frozen=True)
class GoNegotiationParams:
    intent: int
    tie_breaker: int

    def __post_init__(self):
        if not 0 <= self.intent <= 15:
            raise ValueError(f"GO intent {self.intent} outside 0..15")


@dataclass
class LinkConfig:
    scan_us: int = 500 * MS
    find_min_us: int = 100 * MS
    find_max_us: int = 300 * MS
    discovery_timeout_us: int = 10 * SECOND
    overlap_min_us: int = 20 * MS
    wps_us: int = 200 * MS
    keepalive_us: int = 1 * SECOND
    keepalive_miss_limit: int = 3
    bridging: BridgingPolicy = BridgingPolicy.GO_AS_LEGACY_CLIENT


@dataclass
class Group:
    group_id: int
    owner: NodeId
    channel: int
    clients: set[NodeId] = field(default_factory=set)
    legacy: set[NodeId] = field(default_factory=set)  # bridged foreign GOs
    addresses: dict[NodeId, int] = field(default_factory=dict)
    _next_addr: int = 2
    misses: dict[NodeId, int] = field(default_factory=dict)

    def members(self) -> set[NodeId]:
        return self.clients | self.legacy

    def has(self, node: NodeId) -> bool:
        """Whether node is a client or a bridged member (not the owner)."""
        return node in self.clients or node in self.legacy

    def assign_address(self, node: NodeId) -> int:
        addr = self._next_addr
        self._next_addr += 1
        self.addresses[node] = addr
        return addr


@dataclass
class Frame:
    src: NodeId
    dst: NodeId  # BROADCAST or a node id
    group_id: int
    size_bits: int
    payload: object
    sent_at: int = 0

    def __post_init__(self):
        if self.size_bits < 0:
            raise ValueError("size_bits must be non-negative")


class LinkEvents:
    """The upper layer the link layer reports to.  Every method does
    nothing here; the transfer layer overrides them all."""

    def _on_frame(self, node: NodeId, frame: Frame) -> None:
        """`frame` arrived at `node`."""

    def frame_lost(self, src: NodeId, dst: NodeId, frame: Frame) -> None:
        """`frame` from `src` did not reach `dst`: out of range, or no
        longer role-legal, when it arrived."""

    def link_up(self, owner: NodeId, member: NodeId) -> None:
        """`member` joined or bridged into `owner`'s group."""

    def link_down(self, owner: NodeId, member: NodeId) -> None:
        """`member` no longer shares `owner`'s group: it left or was
        evicted, or the group dissolved."""


class _DiscoverySession:
    __slots__ = ("node", "target", "active", "listen_channel", "leg_state",
                 "leg_channel", "leg_start", "leg_end", "handles", "on_found",
                 "on_timeout")

    def __init__(self, node: NodeId, target: NodeId | None,
                 on_found, on_timeout):
        self.node = node
        self.target = target
        self.active = True
        self.listen_channel: int = 0
        self.leg_state: DeviceState | None = None  # None while scanning
        self.leg_channel: int = 0
        self.leg_start: int = 0
        self.leg_end: int = 0
        self.handles: list = []
        self.on_found = on_found
        self.on_timeout = on_timeout


class LinkLayer:
    def __init__(self, engine: Engine, topology: Topology,
                 config: LinkConfig | None = None):
        self.engine = engine
        self.topology = topology
        self.config = config or LinkConfig()
        self._states: dict[NodeId, DeviceState] = {}
        self._intents: dict[NodeId, int] = {}
        self._channels: dict[NodeId, int | None] = {}
        self.groups: dict[int, Group] = {}
        self._owns: dict[NodeId, int] = {}
        self._member_of: dict[NodeId, int] = {}        # clients only
        self._bridges: dict[NodeId, set[int]] = {}     # GO -> foreign groups
        self._sessions: dict[NodeId, _DiscoverySession] = {}
        self._discovered: dict[NodeId, set[NodeId]] = {}
        self._next_group_id = 1
        self.upper: LinkEvents = LinkEvents()

    # ------------------------------------------------------------------
    # registration

    def register_node(self, node: NodeId, go_intent: int = 7,
                      channel: int | None = None) -> None:
        if node in self._states:
            raise ValueError(f"node {node!r} already registered")
        if not 0 <= go_intent <= 15:
            raise ValueError(f"GO intent {go_intent} outside 0..15")
        if channel is not None and channel not in SOCIAL_CHANNELS:
            raise ValueError(f"channel {channel} is not a social channel")
        self._states[node] = DeviceState.IDLE
        self._intents[node] = go_intent
        self._channels[node] = channel
        self._discovered[node] = set()

    # ------------------------------------------------------------------
    # queries

    def state(self, node: NodeId) -> DeviceState:
        return self._states[node]

    def intent(self, node: NodeId) -> int:
        return self._intents[node]

    def discovered(self, node: NodeId) -> set[NodeId]:
        return set(self._discovered[node])

    def owned_group(self, node: NodeId) -> Group | None:
        gid = self._owns.get(node)
        return self.groups[gid] if gid is not None else None

    def client_group(self, node: NodeId) -> Group | None:
        gid = self._member_of.get(node)
        return self.groups[gid] if gid is not None else None

    def bridge_groups(self, node: NodeId) -> list[Group]:
        return [self.groups[g] for g in sorted(self._bridges.get(node, ()))]

    def peers(self, node: NodeId) -> set[NodeId]:
        """Role-legal unicast partners of `node` right now."""
        result: set[NodeId] = set()
        group = self.owned_group(node)
        if group is not None:
            result |= group.members()
        group = self.client_group(node)
        if group is not None:
            result.add(group.owner)
        for group in self.bridge_groups(node):
            result.add(group.owner)
        return result

    def deliverable_pairs(self) -> set[tuple[NodeId, NodeId]]:
        """All unordered pairs for which a unicast frame could succeed."""
        pairs = set()
        for group in self.groups.values():
            for member in group.members():
                pairs.add(tuple(sorted((group.owner, member))))
        return pairs

    def unicast_group(self, a: NodeId, b: NodeId) -> Group | None:
        """The group in whose context a may unicast to b, if any."""
        group = self.owned_group(a)
        if group is not None and group.has(b):
            return group
        group = self.client_group(a)
        if group is not None and group.owner == b:
            return group
        # group owners are unique, so at most one bridged group matches
        for gid in self._bridges.get(a, ()):
            group = self.groups[gid]
            if group.owner == b:
                return group
        return None

    def in_group(self, node: NodeId) -> bool:
        return node in self._owns or node in self._member_of

    # ------------------------------------------------------------------
    # discovery

    def start_discovery(self, node: NodeId, target: NodeId | None = None,
                        on_found=None, on_timeout=None) -> None:
        state = self._states[node]
        if state is not DeviceState.IDLE:
            raise InvalidStateError(
                f"{node} cannot start discovery from {state.value}")
        session = _DiscoverySession(node, target, on_found, on_timeout)
        rng = self.engine.node_rng(node)
        session.listen_channel = rng.choice(SOCIAL_CHANNELS)
        # first leg state drawn so simultaneous starters do not run in lockstep
        session.leg_state = rng.choice(FIND_STATES)
        self._sessions[node] = session
        self._states[node] = DeviceState.SCAN
        self.engine.log(node, EventClass.DISCOVERY, action="start",
                        target=target or "-")
        session.handles.append(self.engine.call_later(
            self.config.scan_us, self._begin_find_leg, session))
        session.handles.append(self.engine.call_later(
            self.config.discovery_timeout_us, self._discovery_timeout, session))

    def abort_discovery(self, node: NodeId) -> None:
        session = self._sessions.get(node)
        if session is not None:
            self._end_session(session)
        if self._states[node] in (DeviceState.SCAN,) + FIND_STATES:
            self._states[node] = DeviceState.IDLE

    def _begin_find_leg(self, session: _DiscoverySession) -> None:
        if not session.active:
            return
        node = session.node
        rng = self.engine.node_rng(node)
        # alternate search/listen; the first leg state was drawn at start
        if self._states[node] in FIND_STATES:
            session.leg_state = (DeviceState.FIND_LISTEN
                                 if session.leg_state is DeviceState.FIND_SEARCH
                                 else DeviceState.FIND_SEARCH)
        duration = uniform_duration(rng, self.config.find_min_us,
                                    self.config.find_max_us)
        if session.leg_state is DeviceState.FIND_LISTEN:
            session.leg_channel = session.listen_channel
        else:
            session.leg_channel = rng.choice(SOCIAL_CHANNELS)
        now = self.engine.now()
        session.leg_start = now
        session.leg_end = now + duration
        self._states[node] = session.leg_state
        self.engine.log(node, EventClass.DISCOVERY, action="leg",
                        state=session.leg_state.value.lower(),
                        chan=session.leg_channel, dur_us=duration)
        session.handles.append(self.engine.call_later(
            duration, self._begin_find_leg, session))
        self._check_probe_matches(session)

    def _check_probe_matches(self, session: _DiscoverySession) -> None:
        now = self.engine.now()
        for peer_id in sorted(self._sessions):
            peer = self._sessions[peer_id]
            if peer is session or not peer.active or peer.leg_state is None:
                continue
            if peer_id in self._discovered[session.node]:
                continue
            if peer.leg_state is session.leg_state:
                continue  # both searching or both listening
            if peer.leg_channel != session.leg_channel:
                continue
            if not self.topology.in_range(session.node, peer_id):
                continue
            overlap = min(session.leg_end, peer.leg_end) - now
            if overlap < self.config.overlap_min_us:
                continue
            session.handles.append(self.engine.call_later(
                self.config.overlap_min_us, self._probe_success, session, peer,
                (session.leg_start, peer.leg_start)))

    def _probe_success(self, a: _DiscoverySession, b: _DiscoverySession,
                       expect: tuple[int, int]) -> None:
        if not (a.active and b.active):
            return
        if (a.leg_start, b.leg_start) != expect:
            return  # a leg changed under the pending probe
        if not self.topology.in_range(a.node, b.node):
            return
        self.record_discovery(a.node, b.node)

    def record_discovery(self, a: NodeId, b: NodeId) -> None:
        """Mark mutual discovery of a and b (ids and GO intents exchanged)."""
        self._discovered[a].add(b)
        self._discovered[b].add(a)
        self.engine.log(a, EventClass.DISCOVERY, action="found", peer=b)
        self.engine.log(b, EventClass.DISCOVERY, action="found", peer=a)
        for node in (a, b):
            session = self._sessions.get(node)
            if session is None or not session.active:
                continue
            if session.target is None or session.target in self._discovered[node]:
                self._end_session(session)
                if session.on_found is not None:
                    session.on_found(node, self._discovered[node])

    def _discovery_timeout(self, session: _DiscoverySession) -> None:
        if not session.active:
            return
        node = session.node
        self._end_session(session)
        self._states[node] = DeviceState.IDLE
        self.engine.log(node, EventClass.DISCOVERY, action="timeout")
        if session.on_timeout is not None:
            session.on_timeout(node)

    def _end_session(self, session: _DiscoverySession) -> None:
        session.active = False
        for handle in session.handles:
            handle.cancel()
        session.handles.clear()
        self._sessions.pop(session.node, None)

    # ------------------------------------------------------------------
    # GO negotiation (three-way handshake: Request-Response-Confirmation)

    def negotiate_go(self, initiator: NodeId, responder: NodeId,
                     on_complete=None, on_failed=None) -> None:
        if responder not in self._discovered[initiator] or \
                initiator not in self._discovered[responder]:
            raise InvalidStateError(
                f"{initiator} and {responder} have not discovered each other")
        for node in (initiator, responder):
            if self.in_group(node):
                raise InvalidStateError(f"{node} is already in a group")
            if self._states[node] is DeviceState.NEGOTIATING:
                raise InvalidStateError(f"{node} is already negotiating")
        if not self.topology.in_range(initiator, responder):
            raise OutOfRangeError(f"{initiator} and {responder} out of range")

        for node in (initiator, responder):
            session = self._sessions.get(node)
            if session is not None:
                self._end_session(session)
            self._states[node] = DeviceState.NEGOTIATING

        params = GoNegotiationParams(
            intent=self._intents[initiator],
            tie_breaker=self.engine.node_rng(initiator).getrandbits(1))
        mac = self.topology.profile(initiator).per_hop_mac_latency_us
        self.engine.call_later(mac, self._nego_request, initiator, responder,
                               params, on_complete, on_failed)

    def _nego_failed(self, initiator: NodeId, responder: NodeId, reason: str,
                     on_failed) -> None:
        for node in (initiator, responder):
            self._states[node] = DeviceState.IDLE
            self.engine.log(node, EventClass.NEGOTIATION, action="failed",
                            reason=reason)
        if on_failed is not None:
            on_failed(initiator, responder, reason)

    def _nego_request(self, initiator, responder, params, on_complete, on_failed):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", on_failed)
            return
        self.engine.log(responder, EventClass.NEGOTIATION, action="request",
                        peer=initiator, intent=params.intent,
                        tie=params.tie_breaker)
        resp_intent = self._intents[responder]
        mac = self.topology.profile(responder).per_hop_mac_latency_us
        if params.intent == 15 and resp_intent == 15:
            # both insist on the GO role: negotiation fails at the response
            self.engine.call_later(mac, self._nego_failed, initiator,
                                   responder, "intent_conflict", on_failed)
            return
        self.engine.call_later(mac, self._nego_response, initiator, responder,
                               params, resp_intent, on_complete, on_failed)

    def _nego_response(self, initiator, responder, params, resp_intent,
                       on_complete, on_failed):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", on_failed)
            return
        self.engine.log(initiator, EventClass.NEGOTIATION, action="response",
                        peer=responder, intent=resp_intent)
        if params.intent > resp_intent:
            owner = initiator
        elif resp_intent > params.intent:
            owner = responder
        else:
            owner = initiator if params.tie_breaker else responder
        mac = self.topology.profile(initiator).per_hop_mac_latency_us
        self.engine.call_later(mac, self._nego_confirm, initiator, responder,
                               owner, on_complete, on_failed)

    def _nego_confirm(self, initiator, responder, owner, on_complete, on_failed):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", on_failed)
            return
        self.engine.log(responder, EventClass.NEGOTIATION, action="confirm",
                        peer=initiator, owner=owner)
        # WPS authentication modelled as a fixed delay, then addressing
        self.engine.call_later(self.config.wps_us, self._form_group,
                               initiator, responder, owner, on_complete,
                               on_failed)

    def _form_group(self, initiator, responder, owner, on_complete,
                    on_failed):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", on_failed)
            return
        client = responder if owner == initiator else initiator
        channel = self._channels[owner]
        if channel is None:
            channel = self.engine.node_rng(owner).choice(SOCIAL_CHANNELS)
        group = Group(self._next_group_id, owner, channel)
        self._next_group_id += 1
        group.addresses[owner] = 1
        self.groups[group.group_id] = group
        self._owns[owner] = group.group_id
        self._states[owner] = DeviceState.GROUP_OWNER
        self.engine.log(owner, EventClass.GROUP, action="formed",
                        group=group.group_id, channel=channel)
        self._admit(group, client, kind="client")
        self._schedule_keepalive(group.group_id)
        if on_complete is not None:
            on_complete(group)

    # ------------------------------------------------------------------
    # group membership

    def _admit(self, group: Group, node: NodeId, kind: str) -> int:
        addr = group.assign_address(node)
        group.misses[node] = 0
        if kind == "client":
            group.clients.add(node)
            self._member_of[node] = group.group_id
            self._states[node] = DeviceState.GROUP_CLIENT
            action = "join"
        else:
            group.legacy.add(node)
            self._bridges.setdefault(node, set()).add(group.group_id)
            action = "bridge"
        self.engine.log(node, EventClass.GROUP, action=action,
                        group=group.group_id, owner=group.owner, addr=addr)
        self.upper.link_up(group.owner, node)
        return addr

    def join_group(self, client: NodeId, group: Group) -> int:
        if self.in_group(client):
            raise ForbiddenByRoleError(
                f"{client} already belongs to a group and cannot join another")
        if self._states[client] is DeviceState.NEGOTIATING:
            raise InvalidStateError(f"{client} is negotiating")
        if group.group_id not in self.groups:
            raise NotInGroupError(f"group {group.group_id} no longer exists")
        if not self.topology.in_range(client, group.owner):
            raise OutOfRangeError(f"{client} out of range of owner {group.owner}")
        session = self._sessions.get(client)
        if session is not None:
            self._end_session(session)
        return self._admit(group, client, kind="client")

    def bridge_attach(self, go_node: NodeId, foreign_group: Group) -> int:
        if self.config.bridging is BridgingPolicy.NONE:
            raise BridgingDisabledError("bridging policy is NONE")
        if self._states.get(go_node) is not DeviceState.GROUP_OWNER:
            raise ForbiddenByRoleError(
                f"{go_node} is not a group owner and cannot bridge")
        if foreign_group.group_id not in self.groups:
            raise NotInGroupError(f"group {foreign_group.group_id} no longer exists")
        if foreign_group.group_id == self._owns.get(go_node):
            raise InvalidStateError(f"{go_node} owns group {foreign_group.group_id}")
        if go_node in foreign_group.legacy:
            raise InvalidStateError(f"{go_node} already attached")
        if not self.topology.in_range(go_node, foreign_group.owner):
            raise OutOfRangeError(
                f"{go_node} out of range of owner {foreign_group.owner}")
        return self._admit(foreign_group, go_node, kind="legacy")

    def leave_group(self, node: NodeId) -> None:
        if node in self._owns:
            self.dissolve_group(self.groups[self._owns[node]], reason="owner_left")
            return
        gid = self._member_of.get(node)
        if gid is None:
            raise NotInGroupError(f"{node} is not in a group")
        group = self.groups[gid]
        self._remove_member(group, node, traced_as="leave")
        if not group.members():
            self.dissolve_group(group, reason="empty")

    def dissolve_group(self, group: Group, reason: str = "dissolved") -> None:
        if group.group_id not in self.groups:
            return
        for member in sorted(group.members()):
            self._detach(group, member)
            self.upper.link_down(group.owner, member)
        del self.groups[group.group_id]
        self._owns.pop(group.owner, None)
        if self._states[group.owner] is DeviceState.GROUP_OWNER:
            self._states[group.owner] = DeviceState.IDLE
        self.engine.log(group.owner, EventClass.GROUP, action="dissolved",
                        group=group.group_id, reason=reason)

    def _detach(self, group: Group, member: NodeId) -> None:
        group.clients.discard(member)
        if member in group.legacy:
            group.legacy.discard(member)
            self._bridges.get(member, set()).discard(group.group_id)
        group.addresses.pop(member, None)
        group.misses.pop(member, None)
        if self._member_of.get(member) == group.group_id:
            del self._member_of[member]
            self._states[member] = DeviceState.IDLE

    def _remove_member(self, group: Group, member: NodeId, traced_as: str) -> None:
        self._detach(group, member)
        self.engine.log(member, EventClass.GROUP, action=traced_as,
                        group=group.group_id)
        self.upper.link_down(group.owner, member)

    # ------------------------------------------------------------------
    # keepalive and eviction

    def _schedule_keepalive(self, group_id: int) -> None:
        self.engine.call_later(self.config.keepalive_us, self._keepalive,
                               group_id)

    def _keepalive(self, group_id: int) -> None:
        group = self.groups.get(group_id)
        if group is None:
            return
        for member in sorted(group.members()):
            if self.topology.in_range(group.owner, member):
                group.misses[member] = 0
                continue
            group.misses[member] = group.misses.get(member, 0) + 1
            if group.misses[member] >= self.config.keepalive_miss_limit:
                self._detach(group, member)
                self.engine.log(group.owner, EventClass.GROUP, action="evict",
                                peer=member, group=group_id)
                self.upper.link_down(group.owner, member)
        if not group.members():
            self.dissolve_group(group, reason="empty")
            return
        self._schedule_keepalive(group_id)

    # ------------------------------------------------------------------
    # frame delivery

    def deliver_frame(self, frame: Frame) -> set[NodeId]:
        """Validate role legality and schedule delivery; returns the intended
        recipient set.  Range is re-checked at arrival time; frames that fail
        then are traced as DROP and reported as `frame_lost`."""
        group = self.groups.get(frame.group_id)
        if group is None:
            raise NotInGroupError(f"no group {frame.group_id}")
        if frame.src != group.owner and not group.has(frame.src):
            raise NotInGroupError(f"{frame.src} not in group {frame.group_id}")
        frame.sent_at = self.engine.now()

        if frame.dst == BROADCAST:
            if frame.src == group.owner:
                recipients = {m for m in group.members()
                              if self.topology.in_range(frame.src, m)}
            else:
                recipients = ({group.owner}
                              if self.topology.in_range(frame.src, group.owner)
                              else set())
            for dst in sorted(recipients):
                self._schedule_arrival(frame, dst)
            return recipients

        if frame.dst != group.owner and not group.has(frame.dst):
            raise NotInGroupError(f"{frame.dst} not in group {frame.group_id}")
        if group.owner not in (frame.src, frame.dst):
            raise ForbiddenByRoleError(
                f"{frame.src}->{frame.dst}: group members may only exchange "
                f"frames with the group owner")
        self._schedule_arrival(frame, frame.dst)
        return {frame.dst}

    def transmit_delay_us(self, sender: NodeId, size_bits: int) -> int:
        profile = self.topology.profile(sender)
        return (size_bits * SECOND // profile.data_rate_bps
                + profile.per_hop_mac_latency_us)

    def _schedule_arrival(self, frame: Frame, dst: NodeId) -> None:
        delay = self.transmit_delay_us(frame.src, frame.size_bits)
        self.engine.call_later(delay, self._on_frame_arrival, frame, dst)

    def _on_frame_arrival(self, frame: Frame, dst: NodeId) -> None:
        group = self.groups.get(frame.group_id)
        legal = (group is not None
                 and (frame.src == group.owner or group.has(frame.src))
                 and (dst == group.owner or group.has(dst)))
        if not legal or not self.topology.in_range(frame.src, dst):
            self.engine.log(frame.src, EventClass.DROP, reason="lost",
                            dst=dst, group=frame.group_id,
                            size_bits=frame.size_bits)
            self.upper.frame_lost(frame.src, dst, frame)
            return
        self.upper._on_frame(dst, frame)

    # ------------------------------------------------------------------
    # invariants (used by tests)

    def check_consistency(self) -> None:
        for gid, group in self.groups.items():
            assert group.owner not in group.clients
            assert self._states[group.owner] is DeviceState.GROUP_OWNER
            assert group.addresses[group.owner] == 1
            addrs = list(group.addresses.values())
            assert len(addrs) == len(set(addrs)), "duplicate address in group"
            for client in group.clients:
                assert self._member_of.get(client) == gid
                assert self._states[client] is DeviceState.GROUP_CLIENT
            for go in group.legacy:
                assert gid in self._bridges.get(go, set())
                assert self._states[go] is DeviceState.GROUP_OWNER
        for node, gid in self._member_of.items():
            assert node in self.groups[gid].clients
        for node, gid in self._owns.items():
            assert self.groups[gid].owner == node
