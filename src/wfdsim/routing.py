"""Multi-hop routing layer over the link model: neighbor discovery, periodic
change-only table broadcast, QoS route selection and hop-by-hop forwarding.

The table protocol is destination-sequenced distance vector: every node
originates an even sequence number for itself; routes are adopted on fresher
sequence first, then fewer hops, then lower latency.  Invalidations carry an
odd sequence (origin's last even + 1) and infinite hops, so a re-discovered
destination overrides them with its next even announcement.

A table stores up to two candidates per destination: the primary plus one
alternate with equal sequence number *and equal hop count* learned via a
different neighbor.  Class-based selection (minimum latency for real-time
traffic, minimum energy for bulk) operates over these candidates; the equal
hop count requirement keeps every candidate strictly closer to the
destination, which is what makes per-hop class selection loop-free once
tables have converged.

Merging decides each advertised candidate once, against its destination's
slots: an older sequence number is dropped (freshness first); a newer one
replaces the slots, unless it is an invalidation (infinite hops) of a valid
route, which only that route's next hop can send: from the alternate's next
hop it drops the alternate, and from any other neighbor it is ignored.  At
an equal sequence an invalid candidate is dropped, a better one (fewer
hops, then lower latency) becomes primary, one via the primary's own next
hop replaces the primary unless it is identical (or, when it has more hops
and an alternate exists, leaves the alternate alone as primary), and an
equal-hop one via another neighbor may take the alternate slot.  An
identical refresh is the DSDV update that carries no new information.  The
decision is a pure function of the slots and the candidate.  Applied to its
own output it changes no route: at most it puts the same alternate again.

A route is one exact tuple `(dest, seq, hops, latency_us, energy, next_hop,
wire)`, never changed after it is built, and a destination's slots are a
tuple of one or two of them.  `wire` is the route's advert text, formatted
once when the route is written.  So a table's primary routes are its advert
entries as they are: an advert builds no tuple, and its trace line joins
kept strings.  Tuples of strings and numbers are untracked by the cyclic
garbage collector, so the tables cost it nothing to scan.

Full dumps repeat mostly what every neighbor already heard, so the receiver
does work only for what changed.  A dump names in `changed` the
destinations its table wrote since its previous dump (every write goes
through `RoutingTable.put`, which stamps the destination with the table's
version).  A receiver that folded the sender's previous dump over the same
link folds from the next one only the destinations in `changed` or written
in its own table since (`merge_full_dump`); the rest would be decided again
against the slots they already shaped, which changes no route.  The trace is
the same as with a whole fold.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .engine import Engine, EventClass, NodeId, record_format
from .record import Record

INFINITE_HOPS = 1 << 16
CONTROL_FRAME_BITS = 1024  # wire size of discovery/advert frames

# the format of each kind of trace record this layer writes
_REQ = record_format(EventClass.DISCOVERY, "action=req", "reached")
_RESP = record_format(EventClass.DISCOVERY, "action=resp", "peer", "seq",
                      "lat_us", "energy:g", "changed")
_TX = record_format(EventClass.ADVERT, "action=tx", "full:d", "n", "cost:g",
                    "entries")
_RX = record_format(EventClass.ADVERT, "action=rx", "sender", "changed")
_TTL_EXPIRED = record_format(EventClass.DROP, "reason=ttl_expired", "src",
                             "dst", "app_seq")
_NO_ROUTE = record_format(EventClass.DROP, "reason=no_route", "src", "dst",
                          "app_seq")
_FORWARD = record_format(EventClass.FORWARD, "src", "dst", "app_seq", "ttl",
                         "next", "cls", "bits")


class RoutingError(Exception):
    pass


class NoRouteError(RoutingError):
    pass


class TrafficClass(Enum):
    REAL_TIME = "REAL_TIME"  # minimize path latency
    BULK = "BULK"            # minimize path energy


class Packet:
    __slots__ = ("src", "dst", "app_seq", "ttl", "traffic_class",
                 "payload_bits", "path")

    def __init__(self, src: NodeId, dst: NodeId, app_seq: int, ttl: int,
                 traffic_class: TrafficClass, payload_bits: int):
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        if payload_bits < 0:
            raise ValueError("payload_bits must be non-negative")
        self.src = src
        self.dst = dst
        self.app_seq = app_seq
        self.ttl = ttl
        self.traffic_class = traffic_class
        self.payload_bits = payload_bits
        self.path: list[NodeId] = []  # nodes that forwarded it


# A route is one exact tuple, (dest, seq, hops, latency_us, energy,
# next_hop, wire), never changed once built.  These name its positions.
DEST, SEQ, HOPS, LATENCY, ENERGY, NEXT_HOP, WIRE = range(7)
Route = tuple[NodeId, int, int, int, float, NodeId, str]


def _route(dest: NodeId, seq: int, hops: int, latency_us: int,
           energy: float, next_hop: NodeId) -> Route:
    """A route with its wire text, as adverts and the trace carry it:
    dest:seq:hops:lat_us:energy."""
    return (dest, seq, hops, latency_us, energy, next_hop,
            "%s:%s:%s:%s:%g" % (dest, seq, hops, latency_us, energy))


class TableAdvert(NamedTuple):
    """A table advert.  Each entry is a route of the sender, the tuple its
    table holds; a receiver reads the first five fields.  A full dump also
    carries its number among the sender's full dumps and, in `changed`, the
    destinations the sender's table wrote since its previous full dump
    (`None` when there was none): every other entry repeats what that dump
    carried."""

    sender: NodeId
    sender_cost: float
    entries: list[Route]
    full_dump: bool
    dump_no: int = 0
    changed: set[NodeId] | None = None


class DiscoveryRequest(NamedTuple):
    sender: NodeId
    sent_at: int


class DiscoveryResponse(NamedTuple):
    sender: NodeId
    requester: NodeId
    seq_no: int
    energy_cost: float
    echo_us: int


class LinkMetrics(NamedTuple):
    latency_us: int
    energy_cost: float  # relay cost of the peer at the far end


class RoutingTable:
    """Per-node table: destination -> a tuple of one or two routes, primary
    first.  Never holds a route to its owner.  The dirty set tracks
    destinations whose advertised route changed since the last advert.

    Every write goes through `put`, which also stamps the destination with
    the table's next `version` in `changed_at`.  The stamps cover every
    write, seq-only refreshes and alternates included, so they are not the
    dirty set.  `heard` keeps, per sender, what the table last folded of
    that sender's full dumps (see `merge_full_dump`)."""

    def __init__(self, owner: NodeId):
        self.owner = owner
        self.entries: dict[NodeId, tuple[Route, ...]] = {}
        self.self_seq = 0
        self.dirty: set[NodeId] = set()
        self.version = 0
        self.changed_at: dict[NodeId, int] = {}
        # sender -> (dump_no, version after folding it, link latency, energy)
        self.heard: dict[NodeId, tuple[int, int, int, float]] = {}

    def put(self, dst: NodeId, slots: tuple[Route, ...]) -> None:
        self.entries[dst] = slots
        self.version += 1
        self.changed_at[dst] = self.version

    def destinations(self) -> list[NodeId]:
        return sorted(self.entries)

    def snapshot(self) -> dict[NodeId, tuple[NodeId, int, int]]:
        """dest -> (next_hop, hop_count, seq_no) of the primary, valid only."""
        return {d: (s[0][NEXT_HOP], s[0][HOPS], s[0][SEQ])
                for d, s in self.entries.items() if s[0][HOPS] < INFINITE_HOPS}


def merge_advert(table: RoutingTable, advert: TableAdvert, link: LinkMetrics,
                 now: int) -> set[NodeId]:
    """Fold a neighbor's advert into the table.  `now` is not read.

    For each advertised destination the candidate route goes via the sender
    with one extra hop and the link's latency/energy added.  Adoption is
    freshness-first: strictly newer sequence wins outright, except that a
    newer invalidation counts only from the next hop of a route it would
    end; an equal sequence wins only by fewer hops, then lower latency.
    Equal-sequence equal-hop candidates via a different neighbor are kept as
    alternates.  Returns the set of destinations whose advertised route
    (next hop, hops, latency, energy) changed; these also enter the dirty
    set.  A seq-only refresh is written but is not a change.
    """
    changed: set[NodeId] = set()
    entries = table.entries
    put = table.put
    owner = table.owner
    sender = advert.sender
    link_latency, link_energy = link.latency_us, link.energy_cost
    for dest, seq, hops, latency, energy, _, _ in advert.entries:
        if dest == owner:
            continue
        hops += 1
        if hops >= INFINITE_HOPS:  # unreachable, so it carries no cost
            hops, latency, energy = INFINITE_HOPS, 0, 0.0
        else:
            latency += link_latency
            energy += link_energy
        slots = entries.get(dest)
        if not slots:
            if hops < INFINITE_HOPS:  # else nothing to invalidate
                put(dest, (_route(dest, seq, hops, latency, energy, sender),))
                changed.add(dest)
            continue
        primary = slots[0]
        _, held_seq, held_hops, held_latency, held_energy, via, _ = primary
        if seq < held_seq:
            continue
        if seq > held_seq:
            if hops < INFINITE_HOPS or sender == via \
                    or held_hops >= INFINITE_HOPS:
                put(dest, (_route(dest, seq, hops, latency, energy, sender),))
                if (sender != via or hops != held_hops
                        or latency != held_latency or energy != held_energy):
                    changed.add(dest)
            elif len(slots) > 1 and slots[1][NEXT_HOP] == sender:
                put(dest, (primary,))  # it ends only the alternate
            continue
        # equal sequence, so both valid (even) or both invalidated (odd)
        if hops >= INFINITE_HOPS:
            continue
        if hops < held_hops or (hops == held_hops and latency < held_latency):
            # better, so it differs in hops or latency: a change
            cand = _route(dest, seq, hops, latency, energy, sender)
            if sender != via and hops == held_hops:
                put(dest, (cand, primary))
            else:
                put(dest, (cand,))
            changed.add(dest)
        elif sender == via:
            if (hops != held_hops or latency != held_latency
                    or energy != held_energy):
                if hops > held_hops and len(slots) > 1:
                    put(dest, slots[1:])  # the alternate keeps its hops
                else:
                    put(dest, (_route(dest, seq, hops, latency, energy,
                                      sender), *slots[1:]))
                changed.add(dest)
        elif hops == held_hops:
            # alternate candidacy: equal seq, equal hops, different
            # neighbor; the one alternate slot takes it when empty, held via
            # the same neighbor, or worse by (latency, next hop)
            if (len(slots) == 1 or slots[1][NEXT_HOP] == sender
                    or (latency, sender) < (slots[1][LATENCY],
                                            slots[1][NEXT_HOP])):
                put(dest, (primary, _route(dest, seq, hops, latency, energy,
                                           sender)))
    table.dirty |= changed
    return changed


def merge_full_dump(table: RoutingTable, advert: TableAdvert,
                    link: LinkMetrics, now: int) -> set[NodeId]:
    """`merge_advert` for a full dump, folding only what may change the
    table.

    After each full dump it folds, the table records in `heard` the dump's
    number, its own version and the link's latency and energy.  When the
    sender's next dump follows directly over an unchanged link, an entry
    whose destination is neither in the dump's `changed` nor written since
    that fold yields the same candidate that fold decided, against the same
    slots.  `merge_advert` decides each candidate once, as a pure function
    of the slots and the candidate, and deciding it again on its own output
    changes no route: at most it puts the same alternate again.  So such
    entries are dropped before `merge_advert`; any other dump is folded
    whole."""
    heard = table.heard.get(advert.sender)
    if (heard is not None and advert.changed is not None
            and heard[0] == advert.dump_no - 1
            and heard[2] == link.latency_us
            and heard[3] == link.energy_cost):
        since, changed = heard[1], advert.changed
        changed_at = table.changed_at.get
        advert = TableAdvert(
            advert.sender, advert.sender_cost,
            [e for e in advert.entries
             if e[DEST] in changed or changed_at(e[DEST], 0) > since],
            True, advert.dump_no, changed)
    folded = merge_advert(table, advert, link, now)
    table.heard[advert.sender] = (advert.dump_no, table.version,
                                  link.latency_us, link.energy_cost)
    return folded


def select_route(table: RoutingTable, dst: NodeId,
                 traffic_class: TrafficClass) -> NodeId:
    """Pick the next hop for dst per class policy: REAL_TIME minimizes
    latency, BULK minimizes energy; ties break by hop count then lowest
    next-hop id.  Raises NoRouteError when no valid candidate exists."""
    cost = ENERGY if traffic_class is TrafficClass.BULK else LATENCY
    best = None
    for route in table.entries.get(dst, ()):
        if route[HOPS] < INFINITE_HOPS and (
                best is None
                or (route[cost], route[HOPS], route[NEXT_HOP])
                < (best[cost], best[HOPS], best[NEXT_HOP])):
            best = route
    if best is None:
        raise NoRouteError(f"{table.owner}: no route to {dst}")
    return best[NEXT_HOP]


class RoutingConfig(Record):
    __slots__ = ("advert_period_us", "full_dump_every", "default_ttl")

    def __init__(self, advert_period_us: int = 1_000_000,
                 full_dump_every: int = 10, default_ttl: int = 16):
        # Simulation schedules advert_tick every advert_period_us
        self.advert_period_us = advert_period_us
        self.full_dump_every = full_dump_every
        self.default_ttl = default_ttl


class RoutingAgent:
    """The per-node routing brain: owns the table, reacts to link events,
    emits periodic adverts, selects routes and forwards packets.  All frame
    I/O goes through the transfer layer attached after construction."""

    def __init__(self, node: NodeId, engine: Engine, energy_cost: float,
                 config: RoutingConfig | None = None):
        self.node = node
        self.engine = engine
        self.energy_cost = energy_cost
        self.config = config or RoutingConfig()
        self.table = RoutingTable(node)
        self.link_metrics: dict[NodeId, LinkMetrics] = {}
        self.tick_count = 0
        self.dump_version: int | None = None  # table version at last dump
        self.transfer = None  # wired by the simulation

    # ------------------------------------------------------------------
    # link events

    def on_link_up(self, peer: NodeId) -> None:
        # a fresh neighbor has none of our state: requeue the whole table so
        # the next incremental advert brings it up to date within one period
        self.table.dirty |= set(self.table.entries)
        self.broadcast_discovery_request()

    def on_link_down(self, peer: NodeId) -> None:
        self.invalidate_neighbor(peer)

    # ------------------------------------------------------------------
    # neighbor discovery (request/response over one hop)

    def broadcast_discovery_request(self) -> None:
        msg = DiscoveryRequest(self.node, self.engine.now())
        recipients = self.transfer.broadcast_control(self.node, msg)
        self.engine.log(_REQ, self.node, len(recipients))

    def _on_discovery_request(self, msg: DiscoveryRequest) -> None:
        # answering is an announcement of self: bump the even sequence so a
        # re-established neighbor always beats any odd invalidation of us.
        # The response is broadcast, not unicast, so every current neighbor
        # refreshes our sequence at the same instant; otherwise one neighbor
        # would hold a fresher sequence than the rest and freshness-first
        # merging could later prefer its longer route over a shorter one.
        self.table.self_seq += 2
        resp = DiscoveryResponse(self.node, msg.sender, self.table.self_seq,
                                 self.energy_cost, msg.sent_at)
        self.transfer.broadcast_control(self.node, resp)

    def _on_discovery_response(self, resp: DiscoveryResponse,
                               sent_at: int) -> None:
        now = self.engine.now()
        if resp.requester == self.node:
            # round trip measured against our own request, halved
            latency = (now - resp.echo_us) // 2
        else:
            # overheard announcement: the frame's one-way transit
            latency = now - sent_at
        link = LinkMetrics(latency, resp.energy_cost)
        self.link_metrics[resp.sender] = link
        own = _route(resp.sender, resp.seq_no, 0, 0, 0.0, resp.sender)
        advert = TableAdvert(resp.sender, resp.energy_cost, [own], False)
        changed = merge_advert(self.table, advert, link, now)
        self.engine.log(_RESP, self.node, resp.sender, resp.seq_no,
                        link.latency_us, resp.energy_cost,
                        ",".join(sorted(changed)) or "-")

    # ------------------------------------------------------------------
    # periodic table adverts

    def advert_tick(self) -> None:
        self.tick_count += 1
        table = self.table
        if self.tick_count % self.config.full_dump_every == 0:
            table.self_seq += 2
            advert = self._full_dump(
                self.tick_count // self.config.full_dump_every)
        elif table.dirty:
            slots_of = table.entries
            advert = TableAdvert(self.node, self.energy_cost,
                                 [slots_of[d][0] for d in sorted(table.dirty)
                                  if d in slots_of], False)
        else:
            return
        recipients = self.transfer.broadcast_control(self.node, advert)
        if not recipients:
            return  # nobody heard it; keep the dirty set for the next tick
        table.dirty.clear()
        self.engine.log(_TX, self.node, advert.full_dump, len(advert.entries),
                        self.energy_cost,
                        ",".join([e[WIRE] for e in advert.entries]) or "-")

    def _full_dump(self, dump_no: int) -> TableAdvert:
        """Full dump number `dump_no`: this node's own route, then every
        destination's primary route.  `changed` names this node and the
        destinations written since the previous dump."""
        table = self.table
        slots_of = table.entries
        entries = [_route(self.node, table.self_seq, 0, 0, 0.0, self.node)]
        entries += [slots_of[d][0] for d in sorted(slots_of)]
        since, self.dump_version = self.dump_version, table.version
        changed = None
        if since is not None:
            changed = {d for d, v in table.changed_at.items() if v > since}
            changed.add(self.node)
        return TableAdvert(self.node, self.energy_cost, entries, True,
                           dump_no, changed)

    def _on_advert(self, advert: TableAdvert, sent_at: int) -> None:
        now = self.engine.now()
        link = self.link_metrics.get(advert.sender)
        if link is None or advert.full_dump:
            # full dumps refresh the link estimate from the frame's measured
            # one-way transit (symmetric links: equals half the round trip)
            link = LinkMetrics(now - sent_at, advert.sender_cost)
            self.link_metrics[advert.sender] = link
        merge = merge_full_dump if advert.full_dump else merge_advert
        changed = merge(self.table, advert, link, now)
        if changed:
            self.engine.log(_RX, self.node, advert.sender,
                            ",".join(sorted(changed)))

    # ------------------------------------------------------------------
    # invalidation

    def invalidate_neighbor(self, lost_peer: NodeId) -> set[NodeId]:
        """Mark every route through lost_peer unusable.  A surviving
        equal-sequence alternate via another neighbor is promoted instead of
        invalidated; destinations with no survivor get an odd sequence and
        infinite hops, which adverts then propagate."""
        self.link_metrics.pop(lost_peer, None)
        changed: set[NodeId] = set()
        table = self.table
        for dst in table.destinations():
            slots = table.entries[dst]
            primary = slots[0]
            if primary[NEXT_HOP] != lost_peer:
                if len(slots) > 1 and slots[1][NEXT_HOP] == lost_peer:
                    table.put(dst, slots[:1])  # dropped an alternate
                continue
            if primary[HOPS] >= INFINITE_HOPS:
                continue
            if len(slots) > 1:
                table.put(dst, slots[1:])  # the alternate is promoted
            else:
                table.put(dst, (_route(dst, primary[SEQ] + 1, INFINITE_HOPS,
                                       0, 0.0, lost_peer),))
            changed.add(dst)
        table.dirty |= changed
        return changed

    # ------------------------------------------------------------------
    # forwarding

    def select_route(self, dst: NodeId, traffic_class: TrafficClass) -> NodeId:
        return select_route(self.table, dst, traffic_class)

    def forward(self, pkt: Packet) -> None:
        if pkt.dst == self.node:
            self.transfer.deliver_local(self.node, pkt)
            return
        pkt.ttl -= 1
        if pkt.ttl <= 0:
            self.engine.log(_TTL_EXPIRED, self.node, pkt.src, pkt.dst,
                            pkt.app_seq)
            self.transfer.notify_drop(pkt.app_seq, "ttl_expired")
            return
        try:
            next_hop = self.select_route(pkt.dst, pkt.traffic_class)
        except NoRouteError:
            self.engine.log(_NO_ROUTE, self.node, pkt.src, pkt.dst,
                            pkt.app_seq)
            self.transfer.notify_drop(pkt.app_seq, "no_route")
            return
        self.engine.log(_FORWARD, self.node, pkt.src, pkt.dst, pkt.app_seq,
                        pkt.ttl, next_hop, pkt.traffic_class._value_,
                        pkt.payload_bits)
        pkt.path.append(self.node)
        self.transfer.send_data(self.node, pkt, next_hop)

    # ------------------------------------------------------------------
    # dispatch from the transfer layer

    def handle_control(self, msg, sent_at: int) -> None:
        if isinstance(msg, DiscoveryRequest):
            self._on_discovery_request(msg)
        elif isinstance(msg, DiscoveryResponse):
            self._on_discovery_response(msg, sent_at)
        elif isinstance(msg, TableAdvert):
            self._on_advert(msg, sent_at)
        else:
            raise TypeError(f"unknown control message {type(msg).__name__}")
