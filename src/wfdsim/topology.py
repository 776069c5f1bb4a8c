"""Physical layout: node positions, radio ranges, neighbor computation and
scripted moves.

Reachability is a symmetric disc model: two nodes are in range iff their
Euclidean distance is at most the smaller of the two radio ranges.  Range
comparisons use squared distances so no square root enters the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import NodeId


class UnknownNodeError(KeyError):
    pass


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position ({self.x}, {self.y})")


@dataclass(frozen=True)
class RadioProfile:
    range_m: float = 200.0
    data_rate_bps: int = 250_000_000
    per_hop_mac_latency_us: int = 2_000

    def __post_init__(self):
        if self.range_m <= 0:
            raise ValueError("range_m must be positive")
        if self.data_rate_bps <= 0:
            raise ValueError("data_rate_bps must be positive")


class Topology:
    def __init__(self) -> None:
        self._positions: dict[NodeId, Position] = {}
        self._profiles: dict[NodeId, RadioProfile] = {}

    def add_node(self, node: NodeId, position: Position,
                 profile: RadioProfile | None = None) -> None:
        if node in self._positions:
            raise ValueError(f"duplicate node id {node!r}")
        self._positions[node] = position
        self._profiles[node] = profile or RadioProfile()

    def nodes(self) -> list[NodeId]:
        return sorted(self._positions)

    def position(self, node: NodeId) -> Position:
        self._check(node)
        return self._positions[node]

    def profile(self, node: NodeId) -> RadioProfile:
        self._check(node)
        return self._profiles[node]

    def in_range(self, a: NodeId, b: NodeId) -> bool:
        self._check(a)
        self._check(b)
        if a == b:
            raise ValueError("in_range is not defined for a node with itself")
        pa, pb = self._positions[a], self._positions[b]
        dx, dy = pa.x - pb.x, pa.y - pb.y
        reach = min(self._profiles[a].range_m, self._profiles[b].range_m)
        return dx * dx + dy * dy <= reach * reach

    def neighbors(self, node: NodeId) -> set[NodeId]:
        self._check(node)
        return {m for m in self._positions if m != node and self.in_range(node, m)}

    def apply_move(self, node: NodeId, new_pos: Position) -> list[tuple[NodeId, bool]]:
        """Move a node; returns the (peer, now_in_range) relationships that
        flipped, in peer-id order.  An identity move flips nothing."""
        self._check(node)
        old = self._positions[node]
        if new_pos == old:
            return []
        before = {m: self.in_range(node, m) for m in self._positions if m != node}
        self._positions[node] = new_pos
        changes = []
        for peer in sorted(before):
            now = self.in_range(node, peer)
            if now != before[peer]:
                changes.append((peer, now))
        return changes

    def _check(self, node: NodeId) -> None:
        if node not in self._positions:
            raise UnknownNodeError(node)
