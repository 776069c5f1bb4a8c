"""Physical layout: node positions, radio ranges, neighbor computation and
scripted moves.

Reachability is a symmetric disc model: two nodes are in range iff their
Euclidean distance is at most the smaller of the two radio ranges.  Range
comparisons use squared distances so no square root enters the decision.
Neighbor sets are maintained on add and move, so a range query is a set
lookup and a move updates only the sets of the peers it left or reached.
A query for a pair in range is that one lookup; the id checks run only
when it fails.
"""

from __future__ import annotations

import math

from .engine import NodeId
from .record import FrozenRecord


class UnknownNodeError(KeyError):
    pass


class Position(FrozenRecord):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite position ({x}, {y})")
        self._freeze(x, y)


class RadioProfile(FrozenRecord):
    __slots__ = ("range_m", "data_rate_bps", "per_hop_mac_latency_us")

    def __init__(self, range_m: float = 200.0,
                 data_rate_bps: int = 250_000_000,
                 per_hop_mac_latency_us: int = 2_000):
        # written so NaN fails too: a NaN range would make in_range
        # depend on which end's neighbor set is asked
        if not range_m > 0:
            raise ValueError("range_m must be positive")
        if data_rate_bps <= 0:
            raise ValueError("data_rate_bps must be positive")
        self._freeze(range_m, data_rate_bps, per_hop_mac_latency_us)


class Topology:
    def __init__(self) -> None:
        self._positions: dict[NodeId, Position] = {}
        self._profiles: dict[NodeId, RadioProfile] = {}
        self._near: dict[NodeId, set[NodeId]] = {}  # mirrored on both ends

    def add_node(self, node: NodeId, position: Position,
                 profile: RadioProfile | None = None) -> None:
        if node in self._positions:
            raise ValueError(f"duplicate node id {node!r}")
        self._positions[node] = position
        self._profiles[node] = profile or RadioProfile()
        near = self._near[node] = self._reach(node)
        for peer in near:
            self._near[peer].add(node)

    def position(self, node: NodeId) -> Position:
        self._check(node)
        return self._positions[node]

    def profile(self, node: NodeId) -> RadioProfile:
        self._check(node)
        return self._profiles[node]

    def in_range(self, a: NodeId, b: NodeId) -> bool:
        """Whether a and b can hear each other.  A pair in range costs one
        set lookup; any other query first raises `UnknownNodeError` for an
        unknown a, then for an unknown b, then `ValueError` if a == b."""
        near = self._near.get(a)
        if near is not None and b in near:
            return True
        self._check(a)
        self._check(b)
        if a == b:
            raise ValueError("in_range is not defined for a node with itself")
        return False

    def neighbors(self, node: NodeId) -> set[NodeId]:
        self._check(node)
        return set(self._near[node])

    def apply_move(self, node: NodeId, new_pos: Position) -> None:
        """Move a node, and the node out of or into its peers' sets."""
        self._check(node)
        before = self._near[node]
        self._positions[node] = new_pos
        after = self._near[node] = self._reach(node)
        for peer in before - after:
            self._near[peer].discard(node)
        for peer in after - before:
            self._near[peer].add(node)

    def _reach(self, node: NodeId) -> set[NodeId]:
        """The other nodes in range of `node` at the current positions."""
        p = self._positions[node]
        x, y = p.x, p.y
        range_m = self._profiles[node].range_m
        # every add_node scans all nodes, so skip the profile lookup for a
        # peer beyond range_m: the reach below is never larger than that
        limit = range_m * range_m
        profiles = self._profiles
        near = set()
        for peer, q in self._positions.items():
            dx, dy = x - q.x, y - q.y
            d2 = dx * dx + dy * dy
            if d2 <= limit and peer != node:
                reach = min(range_m, profiles[peer].range_m)
                if d2 <= reach * reach:
                    near.add(peer)
        return near

    def _check(self, node: NodeId) -> None:
        if node not in self._positions:
            raise UnknownNodeError(node)
