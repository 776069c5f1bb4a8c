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

A group keeps one member map, from each client or bridged owner to the
keepalives it has missed in a row; `_member_of` and `_bridges` say which
of the two a member is.  The owner holds address 1 and members are given
2, 3, ..., each traced on the member's `join` or `bridge` record and kept
nowhere else.  Only `_admit` and `_detach` change a member map, and
`_detach` reports each link down.

The layer reports upward to one object, `LinkEvents` (`LinkLayer.upper`):
frame arrivals, frames lost at arrival, and links that come up or go down.
The transfer layer is that object in a simulation; tests substitute a
recorder.  Discovery and negotiation report through the continuations
passed to each call instead, because each call belongs to one connection:
a discovery session through `on_found` and `on_timeout`, a negotiation
through one `done(reason)`, called once with `None` when the group forms
and otherwise with the reason it failed.

The checks are ordered so that a legal frame pays each once.  A unicast
from the owner costs one owner comparison and a member lookup of its
receiver; one from a member compares both ends with the owner and looks up
its sender.  Only an illegal frame is examined further, to raise the
error its first fault names: a missing group, then a sender and then a
receiver outside the group (`NotInGroupError`), else two members that are
not the owner (`ForbiddenByRoleError`).  An owner's broadcast reaches the
members in its neighbor set.  Arrival re-checks membership and range,
because the group or the layout can change while a frame is in flight.

Device state is worked out, not stored: `state(node)` reads it from the
groups a node owns or is a client of, the negotiations in progress and the
node's discovery session, so it cannot drift from them.
"""

from __future__ import annotations

from enum import Enum

from .engine import MS, SECOND, Engine, EventClass, NodeId, uniform_duration
from .record import Record
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


class LinkConfig(Record):
    __slots__ = ("scan_us", "find_min_us", "find_max_us",
                 "discovery_timeout_us", "overlap_min_us", "wps_us",
                 "keepalive_us", "keepalive_miss_limit", "bridging")

    def __init__(self, scan_us: int = 500 * MS, find_min_us: int = 100 * MS,
                 find_max_us: int = 300 * MS,
                 discovery_timeout_us: int = 10 * SECOND,
                 overlap_min_us: int = 20 * MS, wps_us: int = 200 * MS,
                 keepalive_us: int = 1 * SECOND, keepalive_miss_limit: int = 3,
                 bridging: BridgingPolicy =
                 BridgingPolicy.GO_AS_LEGACY_CLIENT):
        self.scan_us = scan_us
        self.find_min_us = find_min_us
        self.find_max_us = find_max_us
        self.discovery_timeout_us = discovery_timeout_us
        self.overlap_min_us = overlap_min_us
        self.wps_us = wps_us
        self.keepalive_us = keepalive_us
        self.keepalive_miss_limit = keepalive_miss_limit
        self.bridging = bridging


class Group:
    __slots__ = ("group_id", "owner", "members", "next_addr")

    def __init__(self, group_id: int, owner: NodeId):
        self.group_id = group_id
        self.owner = owner
        # member -> keepalives it has missed in a row
        self.members: dict[NodeId, int] = {}
        self.next_addr = 2  # the owner holds address 1


class Frame:
    __slots__ = ("src", "dst", "group_id", "size_bits", "payload", "sent_at")

    def __init__(self, src: NodeId, dst: NodeId, group_id: int,
                 size_bits: int, payload: object, sent_at: int = 0):
        if size_bits < 0:
            raise ValueError("size_bits must be non-negative")
        self.src = src
        self.dst = dst  # BROADCAST or a node id
        self.group_id = group_id
        self.size_bits = size_bits
        self.payload = payload
        self.sent_at = sent_at


class LinkEvents:
    """The upper layer the link layer reports to.  Every method does
    nothing here; the transfer layer overrides them all."""

    def _on_frame(self, node: NodeId, frame: Frame) -> None:
        """`frame` arrived at `node`."""

    def frame_lost(self, src: NodeId, dst: NodeId, frame: Frame) -> None:
        """`frame` from `src` did not reach `dst`: out of range, or no
        longer role-legal, when it arrived."""

    def loss_fields(self, payload: object) -> dict:
        """Trace fields that name a lost frame's payload in its `DROP`
        record: none here."""
        return {}

    def link_up(self, owner: NodeId, member: NodeId) -> None:
        """`member` joined or bridged into `owner`'s group."""

    def link_down(self, owner: NodeId, member: NodeId) -> None:
        """`member` no longer shares `owner`'s group: it left or was
        evicted, or the group dissolved."""


class _DiscoverySession:
    """Live while it is its node's entry in `LinkLayer._sessions`."""

    __slots__ = ("node", "target", "listen_channel", "leg_state",
                 "leg_channel", "leg_start", "leg_end", "events", "on_found",
                 "on_timeout")

    def __init__(self, node: NodeId, target: NodeId | None,
                 on_found, on_timeout):
        self.node = node
        self.target = target
        self.listen_channel: int = 0
        self.leg_state: DeviceState | None = None  # None until the first leg
        self.leg_channel: int = 0
        self.leg_start: int = 0
        self.leg_end: int = 0
        self.events: list = []  # from call_later, for Engine.cancel
        self.on_found = on_found
        self.on_timeout = on_timeout


class LinkLayer:
    def __init__(self, engine: Engine, topology: Topology,
                 config: LinkConfig | None = None):
        self.engine = engine
        self.topology = topology
        self.config = config or LinkConfig()
        self._intents: dict[NodeId, int] = {}
        self._channels: dict[NodeId, int | None] = {}
        self.groups: dict[int, Group] = {}
        # written only by _form_group, dissolve_group, _admit and _detach
        self._owns: dict[NodeId, Group] = {}
        self._member_of: dict[NodeId, Group] = {}      # clients only
        self._bridges: dict[NodeId, dict[int, Group]] = {}  # GO -> foreign
        self._negotiating: set[NodeId] = set()
        self._sessions: dict[NodeId, _DiscoverySession] = {}
        self._discovered: dict[NodeId, set[NodeId]] = {}
        # node -> (data_rate_bps, per_hop_mac_latency_us) of its radio
        # profile, which is frozen and set once when the node is added
        self._radio: dict[NodeId, tuple[int, int]] = {}
        self._next_group_id = 1
        self.upper: LinkEvents = LinkEvents()

    # ------------------------------------------------------------------
    # registration

    def register_node(self, node: NodeId, go_intent: int = 7,
                      channel: int | None = None) -> None:
        if node in self._intents:
            raise ValueError(f"node {node!r} already registered")
        if not 0 <= go_intent <= 15:
            raise ValueError(f"GO intent {go_intent} outside 0..15")
        if channel is not None and channel not in SOCIAL_CHANNELS:
            raise ValueError(f"channel {channel} is not a social channel")
        self._intents[node] = go_intent
        self._channels[node] = channel
        self._discovered[node] = set()

    # ------------------------------------------------------------------
    # queries

    def state(self, node: NodeId) -> DeviceState:
        """A group owner or client by its group, else negotiating, else in
        discovery (SCAN until the first find leg), else IDLE."""
        if node in self._owns:
            return DeviceState.GROUP_OWNER
        if node in self._member_of:
            return DeviceState.GROUP_CLIENT
        if node in self._negotiating:
            return DeviceState.NEGOTIATING
        session = self._sessions.get(node)
        if session is not None:
            return session.leg_state or DeviceState.SCAN
        if node not in self._intents:
            raise KeyError(node)
        return DeviceState.IDLE

    def discovered(self, node: NodeId) -> set[NodeId]:
        return set(self._discovered[node])

    def owned_group(self, node: NodeId) -> Group | None:
        return self._owns.get(node)

    def client_group(self, node: NodeId) -> Group | None:
        return self._member_of.get(node)

    def contexts(self, node: NodeId) -> list[Group]:
        """The groups `node` may send in: the one it owns, the one it is a
        client of, then the ones it bridges into, by group id."""
        groups = [g for g in (self._owns.get(node), self._member_of.get(node))
                  if g is not None]
        bridges = self._bridges.get(node)
        if bridges:
            groups += [bridges[gid] for gid in sorted(bridges)]
        return groups

    def unicast_group(self, a: NodeId, b: NodeId) -> Group | None:
        """The group in whose context a may unicast to b, if any."""
        group = self._owns.get(a)
        if group is not None and b in group.members:
            return group
        group = self._member_of.get(a)
        if group is not None and group.owner == b:
            return group
        # group owners are unique, so at most one bridged group matches
        bridges = self._bridges.get(a)
        if bridges:
            for group in bridges.values():
                if group.owner == b:
                    return group
        return None

    def in_group(self, node: NodeId) -> bool:
        return node in self._owns or node in self._member_of

    # ------------------------------------------------------------------
    # discovery

    def start_discovery(self, node: NodeId, target: NodeId | None = None,
                        on_found=None, on_timeout=None) -> None:
        state = self.state(node)
        if state is not DeviceState.IDLE:
            raise InvalidStateError(
                f"{node} cannot start discovery from {state.value}")
        session = _DiscoverySession(node, target, on_found, on_timeout)
        rng = self.engine.node_rng(node)
        session.listen_channel = rng.choice(SOCIAL_CHANNELS)
        self._sessions[node] = session
        self.engine.log(node, EventClass.DISCOVERY, action="start",
                        target=target or "-")
        # a drawn first leg keeps simultaneous starters out of lockstep
        session.events.append(self.engine.call_later(
            self.config.scan_us, self._begin_find_leg, session,
            rng.choice(FIND_STATES)))
        session.events.append(self.engine.call_later(
            self.config.discovery_timeout_us, self._discovery_timeout, session))

    def abort_discovery(self, node: NodeId) -> None:
        session = self._sessions.get(node)
        if session is not None:
            self._end_session(session)

    def _begin_find_leg(self, session: _DiscoverySession,
                        leg_state: DeviceState) -> None:
        rng = self.engine.node_rng(session.node)
        session.leg_state = leg_state
        duration = uniform_duration(rng, self.config.find_min_us,
                                    self.config.find_max_us)
        if leg_state is DeviceState.FIND_LISTEN:
            session.leg_channel = session.listen_channel
        else:
            session.leg_channel = rng.choice(SOCIAL_CHANNELS)
        now = self.engine.now()
        session.leg_start = now
        session.leg_end = now + duration
        self.engine.log(session.node, EventClass.DISCOVERY, action="leg",
                        state=leg_state.value.lower(),
                        chan=session.leg_channel, dur_us=duration)
        session.events.append(self.engine.call_later(
            duration, self._begin_find_leg, session,
            DeviceState.FIND_LISTEN if leg_state is DeviceState.FIND_SEARCH
            else DeviceState.FIND_SEARCH))
        self._check_probe_matches(session)

    def _check_probe_matches(self, session: _DiscoverySession) -> None:
        now = self.engine.now()
        for peer_id in sorted(self._sessions):
            peer = self._sessions[peer_id]
            if peer is session or peer.leg_state is None:
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
            session.events.append(self.engine.call_later(
                self.config.overlap_min_us, self._probe_success, session, peer,
                (session.leg_start, peer.leg_start)))

    def _probe_success(self, a: _DiscoverySession, b: _DiscoverySession,
                       expect: tuple[int, int]) -> None:
        # ending `a` cancels this probe; `b` may have ended since
        if self._sessions.get(b.node) is not b:
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
            if session is None:
                continue
            if session.target is None or session.target in self._discovered[node]:
                self._end_session(session)
                if session.on_found is not None:
                    session.on_found(node, self._discovered[node])

    def _discovery_timeout(self, session: _DiscoverySession) -> None:
        node = session.node
        self._end_session(session)
        self.engine.log(node, EventClass.DISCOVERY, action="timeout")
        if session.on_timeout is not None:
            session.on_timeout(node)

    def _end_session(self, session: _DiscoverySession) -> None:
        for event in session.events:
            self.engine.cancel(event)
        session.events.clear()
        self._sessions.pop(session.node, None)

    # ------------------------------------------------------------------
    # GO negotiation (three-way handshake: Request-Response-Confirmation)

    def negotiate_go(self, initiator: NodeId, responder: NodeId,
                     done=None) -> None:
        if responder not in self._discovered[initiator] or \
                initiator not in self._discovered[responder]:
            raise InvalidStateError(
                f"{initiator} and {responder} have not discovered each other")
        for node in (initiator, responder):
            if self.in_group(node):
                raise InvalidStateError(f"{node} is already in a group")
            if node in self._negotiating:
                raise InvalidStateError(f"{node} is already negotiating")
        if not self.topology.in_range(initiator, responder):
            raise OutOfRangeError(f"{initiator} and {responder} out of range")

        for node in (initiator, responder):
            self.abort_discovery(node)
            self._negotiating.add(node)

        tie = self.engine.node_rng(initiator).getrandbits(1)
        mac = self.topology.profile(initiator).per_hop_mac_latency_us
        self.engine.call_later(mac, self._nego_request, initiator, responder,
                               self._intents[initiator], tie, done)

    def _nego_failed(self, initiator: NodeId, responder: NodeId, reason: str,
                     done) -> None:
        for node in (initiator, responder):
            self._negotiating.discard(node)
            self.engine.log(node, EventClass.NEGOTIATION, action="failed",
                            reason=reason)
        if done is not None:
            done(reason)

    def _nego_request(self, initiator, responder, intent, tie, done):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", done)
            return
        self.engine.log(responder, EventClass.NEGOTIATION, action="request",
                        peer=initiator, intent=intent, tie=tie)
        resp_intent = self._intents[responder]
        mac = self.topology.profile(responder).per_hop_mac_latency_us
        if intent == 15 and resp_intent == 15:
            # both insist on the GO role: negotiation fails at the response
            self.engine.call_later(mac, self._nego_failed, initiator,
                                   responder, "intent_conflict", done)
            return
        self.engine.call_later(mac, self._nego_response, initiator, responder,
                               intent, tie, resp_intent, done)

    def _nego_response(self, initiator, responder, intent, tie, resp_intent,
                       done):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", done)
            return
        self.engine.log(initiator, EventClass.NEGOTIATION, action="response",
                        peer=responder, intent=resp_intent)
        if intent > resp_intent:
            owner = initiator
        elif resp_intent > intent:
            owner = responder
        else:
            owner = initiator if tie else responder
        mac = self.topology.profile(initiator).per_hop_mac_latency_us
        self.engine.call_later(mac, self._nego_confirm, initiator, responder,
                               owner, done)

    def _nego_confirm(self, initiator, responder, owner, done):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", done)
            return
        self.engine.log(responder, EventClass.NEGOTIATION, action="confirm",
                        peer=initiator, owner=owner)
        # WPS authentication modelled as a fixed delay, then addressing
        self.engine.call_later(self.config.wps_us, self._form_group,
                               initiator, responder, owner, done)

    def _form_group(self, initiator, responder, owner, done):
        if not self.topology.in_range(initiator, responder):
            self._nego_failed(initiator, responder, "out_of_range", done)
            return
        client = responder if owner == initiator else initiator
        self._negotiating.difference_update((initiator, responder))
        channel = self._channels[owner]
        if channel is None:
            channel = self.engine.node_rng(owner).choice(SOCIAL_CHANNELS)
        group = Group(self._next_group_id, owner)
        self._next_group_id += 1
        self.groups[group.group_id] = group
        self._owns[owner] = group
        self.engine.log(owner, EventClass.GROUP, action="formed",
                        group=group.group_id, channel=channel)
        self._admit(group, client, kind="client")
        self._schedule_keepalive(group.group_id)
        if done is not None:
            done(None)

    # ------------------------------------------------------------------
    # group membership

    def _admit(self, group: Group, node: NodeId, kind: str) -> int:
        addr = group.next_addr
        group.next_addr += 1
        group.members[node] = 0
        if kind == "client":
            self._member_of[node] = group
            action = "join"
        else:
            self._bridges.setdefault(node, {})[group.group_id] = group
            action = "bridge"
        self.engine.log(node, EventClass.GROUP, action=action,
                        group=group.group_id, owner=group.owner, addr=addr)
        self.upper.link_up(group.owner, node)
        return addr

    def join_group(self, client: NodeId, group: Group) -> int:
        if self.in_group(client):
            raise ForbiddenByRoleError(
                f"{client} already belongs to a group and cannot join another")
        if client in self._negotiating or client in self._sessions:
            # a connect ends its two discovery sessions together, so a
            # join may not end just one of them
            raise InvalidStateError(
                f"{client} cannot join from {self.state(client).value}")
        if group.group_id not in self.groups:
            raise NotInGroupError(f"group {group.group_id} no longer exists")
        if not self.topology.in_range(client, group.owner):
            raise OutOfRangeError(f"{client} out of range of owner {group.owner}")
        return self._admit(group, client, kind="client")

    def bridge_attach(self, go_node: NodeId, foreign_group: Group) -> int:
        if self.config.bridging is BridgingPolicy.NONE:
            raise BridgingDisabledError("bridging policy is NONE")
        if go_node not in self._owns:
            raise ForbiddenByRoleError(
                f"{go_node} is not a group owner and cannot bridge")
        if foreign_group.group_id not in self.groups:
            raise NotInGroupError(f"group {foreign_group.group_id} no longer exists")
        if foreign_group.group_id == self._owns[go_node].group_id:
            raise InvalidStateError(f"{go_node} owns group {foreign_group.group_id}")
        if go_node in foreign_group.members:
            raise InvalidStateError(f"{go_node} already attached")
        if not self.topology.in_range(go_node, foreign_group.owner):
            raise OutOfRangeError(
                f"{go_node} out of range of owner {foreign_group.owner}")
        return self._admit(foreign_group, go_node, kind="legacy")

    def leave_group(self, node: NodeId) -> None:
        """An owner leaving dissolves its group; a client leaving may empty
        it.  Nothing in a simulation calls it; the link-layer and transfer
        tests do."""
        group = self._owns.get(node)
        if group is not None:
            self.dissolve_group(group, reason="owner_left")
            return
        group = self._member_of.get(node)
        if group is None:
            raise NotInGroupError(f"{node} is not in a group")
        self._detach(group, node)
        self.engine.log(node, EventClass.GROUP, action="leave",
                        group=group.group_id)
        if not group.members:
            self.dissolve_group(group, reason="empty")

    def dissolve_group(self, group: Group, reason: str = "dissolved") -> None:
        """`group` must be live."""
        for member in sorted(group.members):
            self._detach(group, member)
        del self.groups[group.group_id]
        del self._owns[group.owner]
        self.engine.log(group.owner, EventClass.GROUP, action="dissolved",
                        group=group.group_id, reason=reason)

    def _detach(self, group: Group, member: NodeId) -> None:
        # a former owner keeps its bridges (the known bug of dissolve_group),
        # so it may have joined this group as a client too: clear both
        del group.members[member]
        if self._member_of.get(member) is group:
            del self._member_of[member]
        self._bridges.get(member, {}).pop(group.group_id, None)
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
        members = group.members
        for member in sorted(members):
            if self.topology.in_range(group.owner, member):
                members[member] = 0
                continue
            members[member] += 1
            if members[member] >= self.config.keepalive_miss_limit:
                self._detach(group, member)
                self.engine.log(group.owner, EventClass.GROUP, action="evict",
                                peer=member, group=group_id)
        if not members:
            self.dissolve_group(group, reason="empty")
            return
        self._schedule_keepalive(group_id)

    # ------------------------------------------------------------------
    # frame delivery

    def deliver_frame(self, frame: Frame) -> set[NodeId]:
        """Validate role legality and schedule delivery; returns the intended
        recipient set.  Range is re-checked at arrival time; frames that fail
        then are traced as DROP and reported as `frame_lost`.  The order of
        the checks is set out in the module docstring."""
        group = self.groups.get(frame.group_id)
        if group is None:
            raise NotInGroupError(f"no group {frame.group_id}")
        src, dst, owner = frame.src, frame.dst, group.owner

        if dst == BROADCAST:
            if src == owner:
                recipients = group.members.keys() & \
                    self.topology.neighbors(src)
            elif src in group.members:
                recipients = ({owner} if self.topology.in_range(src, owner)
                              else set())
            else:
                raise self._illegal(frame, group)
            frame.sent_at = self.engine.now()
            delay = self.transmit_delay_us(src, frame.size_bits)
            for node in sorted(recipients):
                self.engine.call_later(delay, self._on_frame_arrival, frame,
                                       node)
            return recipients

        if src == owner:
            legal = dst in group.members or dst == owner
        else:
            legal = dst == owner and src in group.members
        if not legal:
            raise self._illegal(frame, group)
        frame.sent_at = self.engine.now()
        self.engine.call_later(self.transmit_delay_us(src, frame.size_bits),
                               self._on_frame_arrival, frame, dst)
        return {dst}

    @staticmethod
    def _illegal(frame: Frame, group: Group) -> LinkError:
        """The error an illegal frame raises: its sender, else its receiver,
        outside the group, else two members that are not the owner."""
        for node in (frame.src, frame.dst):
            if node != group.owner and node not in group.members:
                return NotInGroupError(f"{node} not in group {frame.group_id}")
        return ForbiddenByRoleError(
            f"{frame.src}->{frame.dst}: group members may only exchange "
            f"frames with the group owner")

    def transmit_delay_us(self, sender: NodeId, size_bits: int) -> int:
        radio = self._radio.get(sender)
        if radio is None:
            profile = self.topology.profile(sender)
            radio = self._radio[sender] = (profile.data_rate_bps,
                                           profile.per_hop_mac_latency_us)
        rate, mac = radio
        return size_bits * SECOND // rate + mac

    def _on_frame_arrival(self, frame: Frame, dst: NodeId) -> None:
        group = self.groups.get(frame.group_id)
        src = frame.src
        legal = (group is not None
                 and (src == group.owner or src in group.members)
                 and (dst == group.owner or dst in group.members))
        if not legal or not self.topology.in_range(src, dst):
            self.engine.log(src, EventClass.DROP, reason="lost",
                            dst=dst, group=frame.group_id,
                            size_bits=frame.size_bits,
                            **self.upper.loss_fields(frame.payload))
            self.upper.frame_lost(src, dst, frame)
            return
        self.upper._on_frame(dst, frame)

    # ------------------------------------------------------------------
    # invariants (used by tests and the benchmark's check mode)

    def check_consistency(self) -> None:
        """Raise one AssertionError naming every broken invariant; an
        explicit raise, so the check also runs under `python -O`."""
        checks = []  # (what is broken if it fails, whether it holds)
        for gid, g in self.groups.items():
            # a member that is not a client of `g` must be bridged into it
            checks += [(f"group {gid}: {what}", ok) for what, ok in [
                ("owner is a member", g.owner not in g.members),
                (f"{g.owner} does not own it", self._owns.get(g.owner) is g),
                *[(f"bridged {n} is not an owner with a bridge to it",
                   n in self._owns and gid in self._bridges.get(n, ()))
                  for n in sorted(g.members)
                  if self._member_of.get(n) is not g]]]
        checks += [(f"client {n}: group {g.group_id} is gone or lacks it",
                    self.groups.get(g.group_id) is g and n in g.members)
                   for n, g in self._member_of.items()]
        checks += [(f"owner {n}: group {g.group_id} is gone or not its",
                    self.groups.get(g.group_id) is g and g.owner == n)
                   for n, g in self._owns.items()]
        checks += [(f"{n} owns a group and is a client",
                    n not in self._member_of) for n in self._owns]
        checks += [(f"{n} negotiates while in a group", not self.in_group(n))
                   for n in sorted(self._negotiating)]
        bad = [what for what, ok in checks if not ok]
        if bad:
            raise AssertionError("; ".join(bad))
