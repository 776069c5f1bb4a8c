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

Merging skips, before building any entry, the advertised candidates that
cannot change the table.  Against the destination's primary these are: an
older sequence number (freshness-first rejects it outright); an equal
sequence via the primary's own next hop with identical hops, latency and
energy (it would only replace the primary with an equal route); and an
equal sequence via another neighbor with more hops (neither better nor an
equal-hop alternate).  This is the DSDV rule that an update carrying no new
information is dropped.  Every other candidate goes through `_consider`.
Because an identical refresh is skipped, `RoutingEntry.last_updated` is
the time a route was adopted or changed, not when it was last heard.

Full dumps repeat mostly what every neighbor already heard, so both ends
do work only for what changed.  A table never edits an entry: each write
puts new entries into the slots through `RoutingTable.put`, which also
stamps the destination with the table's version.  So an entry builds its
advert tuple and wire text once, the first time an advert carries it, and
keeps them; a full dump joins kept strings.  It names in `changed` the
destinations its table wrote since its previous dump.  A receiver that
folded the sender's previous dump over the same link folds from the next
one only the destinations in `changed` or written in its own table since
(`merge_full_dump`); the rest would be applied to the slots they already
shaped, which `_consider` leaves as they are.  The trace is the same as
with a whole fold.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
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


class RoutingEntry:
    """One candidate route.  `last_updated` is the virtual time the route
    was adopted or changed; a refresh identical to it is not merged, so it
    is not the time the route was last heard.  Nothing reads it.

    An entry is never changed after it is built: a table write puts new
    entries into the slots (`RoutingTable.put`).  Adverts rely on this: the
    first advert that carries an entry keeps its advert tuple and wire text
    on it (`advert`, `wire`), and every later advert reuses them."""

    __slots__ = ("destination", "next_hop", "hop_count", "seq_no",
                 "latency_us", "energy_cost", "last_updated", "advert", "wire")

    def __init__(self, destination: NodeId, next_hop: NodeId, hop_count: int,
                 seq_no: int, latency_us: int, energy_cost: float,
                 last_updated: int):
        self.destination = destination
        self.next_hop = next_hop
        self.hop_count = hop_count
        self.seq_no = seq_no
        self.latency_us = latency_us
        self.energy_cost = energy_cost
        self.last_updated = last_updated
        self.advert: AdvertEntry | None = None
        self.wire: str | None = None

    @property
    def valid(self) -> bool:
        return self.hop_count < INFINITE_HOPS


class AdvertEntry(NamedTuple):
    dest: NodeId
    seq_no: int
    hop_count: int
    latency_us: int
    energy_cost: float


# builds an AdvertEntry from a tuple in C, without the Python-level __new__
# that AdvertEntry(...) runs
_new_advert_entry = partial(tuple.__new__, AdvertEntry)


def _wire(entry: AdvertEntry) -> str:
    """An advert entry as the trace writes it: dest:seq:hops:lat_us:energy."""
    return "%s:%s:%s:%s:%g" % entry


class TableAdvert(NamedTuple):
    """A table advert.  A full dump also carries its number among the
    sender's full dumps and, in `changed`, the destinations the sender's
    table wrote since its previous full dump (`None` when there was none):
    every other entry repeats what that dump carried."""

    sender: NodeId
    sender_cost: float
    entries: list[AdvertEntry]
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
    """Per-node table: destination -> up to two candidate entries, primary
    first.  Never holds an entry for its owner.  The dirty set tracks
    destinations whose advertised route changed since the last advert.

    Every write goes through `put`, which also stamps the destination with
    the table's next `version` in `changed_at`.  The stamps cover every
    write, seq-only refreshes and alternates included, so they are not the
    dirty set.  `heard` keeps, per sender, what the table last folded of
    that sender's full dumps (see `merge_full_dump`)."""

    def __init__(self, owner: NodeId):
        self.owner = owner
        self.entries: dict[NodeId, list[RoutingEntry]] = {}
        self.self_seq = 0
        self.dirty: set[NodeId] = set()
        self.version = 0
        self.changed_at: dict[NodeId, int] = {}
        # sender -> (dump_no, version after folding it, link latency, energy)
        self.heard: dict[NodeId, tuple[int, int, int, float]] = {}

    def put(self, dst: NodeId, slots: list[RoutingEntry]) -> None:
        self.entries[dst] = slots
        self.version += 1
        self.changed_at[dst] = self.version

    def primary(self, dst: NodeId) -> RoutingEntry | None:
        slots = self.entries.get(dst)
        return slots[0] if slots else None

    def candidates(self, dst: NodeId) -> list[RoutingEntry]:
        return list(self.entries.get(dst, ()))

    def destinations(self) -> list[NodeId]:
        return sorted(self.entries)

    def snapshot(self) -> dict[NodeId, tuple[NodeId, int, int]]:
        """dest -> (next_hop, hop_count, seq_no) of the primary, valid only."""
        return {d: (s[0].next_hop, s[0].hop_count, s[0].seq_no)
                for d, s in self.entries.items() if s[0].valid}


def _route_fields(entry: RoutingEntry) -> tuple:
    # the advertised identity of a route; seq-only refreshes are not changes
    return (entry.next_hop, entry.hop_count, entry.latency_us,
            entry.energy_cost, entry.valid)


def merge_advert(table: RoutingTable, advert: TableAdvert, link: LinkMetrics,
                 now: int) -> set[NodeId]:
    """Fold a neighbor's advert into the table.

    For each advertised destination the candidate route goes via the sender
    with one extra hop and the link's latency/energy added.  Adoption is
    freshness-first: strictly newer sequence wins outright; an equal sequence
    wins only by fewer hops, then lower latency.  Equal-sequence equal-hop
    candidates via a different neighbor are kept as alternates.  Returns the
    set of destinations whose advertised route changed (these also enter the
    dirty set).
    """
    changed: set[NodeId] = set()
    entries = table.entries
    owner = table.owner
    sender = advert.sender
    link_latency, link_energy = link.latency_us, link.energy_cost
    for dest, seq, hops, latency, energy in advert.entries:
        if dest == owner:
            continue
        if hops >= INFINITE_HOPS:
            hops, latency, energy = INFINITE_HOPS, 0, 0.0
        else:
            hops += 1
            latency += link_latency
            energy += link_energy
        slots = entries.get(dest)
        if slots:
            # candidates _consider would leave without effect (module doc)
            primary = slots[0]
            if seq < primary.seq_no:
                continue
            if seq == primary.seq_no:
                if primary.next_hop == sender:
                    if (hops == primary.hop_count
                            and latency == primary.latency_us
                            and energy == primary.energy_cost):
                        continue
                elif hops > primary.hop_count:
                    continue
        if _consider(table, RoutingEntry(dest, sender, hops, seq, latency,
                                         energy, now)):
            changed.add(dest)
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
    that fold yields the same candidate that fold gave `_consider`, against
    the same slots.  `_consider` is a pure function of the slots and the
    candidate, and applying it to its own output changes nothing, apart
    from an identical alternate's `last_updated`, which nothing reads.  So
    such entries are dropped before `merge_advert`; any other dump is
    folded whole."""
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
             if e[0] in changed or changed_at(e[0], 0) > since],
            True, advert.dump_no, changed)
    folded = merge_advert(table, advert, link, now)
    table.heard[advert.sender] = (advert.dump_no, table.version,
                                  link.latency_us, link.energy_cost)
    return folded


def _consider(table: RoutingTable, cand: RoutingEntry) -> bool:
    dest = cand.destination
    slots = table.entries.get(dest)
    if not slots:
        if not cand.valid:
            return False  # nothing to invalidate
        table.put(dest, [cand])
        return True
    primary = slots[0]
    if cand.seq_no > primary.seq_no:
        table.put(dest, [cand])
        return _route_fields(cand) != _route_fields(primary)
    if cand.seq_no < primary.seq_no:
        return False
    # equal sequence, so both valid (even) or both invalidated (odd)
    if not cand.valid:
        return False
    if (cand.hop_count, cand.latency_us) < (primary.hop_count, primary.latency_us):
        if (primary.next_hop != cand.next_hop
                and primary.hop_count == cand.hop_count):
            table.put(dest, [cand, primary])
        else:
            table.put(dest, [cand])
        return _route_fields(cand) != _route_fields(primary)
    if cand.next_hop == primary.next_hop:
        table.put(dest, [cand, *slots[1:]])
        return _route_fields(cand) != _route_fields(primary)
    # alternate candidacy: equal seq, equal hops, different neighbor; the
    # one alternate slot takes it when empty, held via the same neighbor,
    # or worse by (latency, next hop)
    if cand.hop_count != primary.hop_count:
        return False
    if len(slots) == 1 or slots[1].next_hop == cand.next_hop or \
            (cand.latency_us, cand.next_hop) < (slots[1].latency_us,
                                               slots[1].next_hop):
        table.put(dest, [primary, cand])
    return False


def select_route(table: RoutingTable, dst: NodeId,
                 traffic_class: TrafficClass) -> NodeId:
    """Pick the next hop for dst per class policy: REAL_TIME minimizes
    latency, BULK minimizes energy; ties break by hop count then lowest
    next-hop id.  Raises NoRouteError when no valid candidate exists."""
    best = None
    for entry in table.entries.get(dst, ()):
        if entry.hop_count >= INFINITE_HOPS:
            continue
        if best is None or _class_key(entry, traffic_class) < \
                _class_key(best, traffic_class):
            best = entry
    if best is None:
        raise NoRouteError(f"{table.owner}: no route to {dst}")
    return best.next_hop


def _class_key(entry: RoutingEntry, traffic_class: TrafficClass) -> tuple:
    if traffic_class is TrafficClass.BULK:
        return (entry.energy_cost, entry.hop_count, entry.next_hop)
    return (entry.latency_us, entry.hop_count, entry.next_hop)


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
        self_entry = AdvertEntry(resp.sender, resp.seq_no, 0, 0, 0.0)
        advert = TableAdvert(resp.sender, resp.energy_cost, [self_entry], False)
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
            advert, wires = self._full_dump(
                self.tick_count // self.config.full_dump_every)
        elif table.dirty:
            entries, wires = self._advert_entries(
                d for d in sorted(table.dirty) if d in table.entries)
            advert = TableAdvert(self.node, self.energy_cost, entries, False)
        else:
            return
        recipients = self.transfer.broadcast_control(self.node, advert)
        if not recipients:
            return  # nobody heard it; keep the dirty set for the next tick
        self.table.dirty.clear()
        self.engine.log(_TX, self.node, advert.full_dump, len(advert.entries),
                        self.energy_cost, ",".join(wires) or "-")

    def _advert_entries(self, dests) -> tuple[list[AdvertEntry], list[str]]:
        """The advertised primary route to each destination, and its wire
        text; an invalid one goes out with infinite hops and zero latency
        and energy.  Both are built once per entry and kept on it."""
        slots_of = self.table.entries
        entries, wires = [], []
        for dst in dests:
            e = slots_of[dst][0]
            if e.wire is None:
                if e.hop_count < INFINITE_HOPS:
                    e.advert = _new_advert_entry((dst, e.seq_no, e.hop_count,
                                                  e.latency_us, e.energy_cost))
                else:
                    e.advert = _new_advert_entry((dst, e.seq_no,
                                                  INFINITE_HOPS, 0, 0.0))
                e.wire = _wire(e.advert)
            entries.append(e.advert)
            wires.append(e.wire)
        return entries, wires

    def _full_dump(self, dump_no: int) -> tuple[TableAdvert, list[str]]:
        """Full dump number `dump_no`: this node's own entry, then every
        destination's advertised route.  `changed` names this node and the
        destinations written since the previous dump."""
        table = self.table
        own = _new_advert_entry((self.node, table.self_seq, 0, 0, 0.0))
        entries, wires = self._advert_entries(table.destinations())
        entries.insert(0, own)
        wires.insert(0, _wire(own))
        since, self.dump_version = self.dump_version, table.version
        changed = None
        if since is not None:
            changed = {d for d, v in table.changed_at.items() if v > since}
            changed.add(self.node)
        return TableAdvert(self.node, self.energy_cost, entries, True,
                           dump_no, changed), wires

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
        now = self.engine.now()
        changed: set[NodeId] = set()
        table = self.table
        for dst in table.destinations():
            slots = table.entries[dst]
            primary = slots[0]
            survivors = [e for e in slots if e.next_hop != lost_peer]
            if primary.next_hop != lost_peer:
                if len(survivors) != len(slots):
                    table.put(dst, survivors)  # dropped an alternate
                continue
            if not primary.valid:
                continue
            if survivors:
                table.put(dst, survivors)
            else:
                table.put(dst, [RoutingEntry(
                    dst, lost_peer, INFINITE_HOPS, primary.seq_no + 1,
                    0, 0.0, now)])
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
