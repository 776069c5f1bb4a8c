"""Geometry: disc reachability, neighbor sets, scripted moves."""

import pytest
from hypothesis import given, strategies as st

from wfdsim.topology import (Position, RadioProfile, Topology,
                             UnknownNodeError)


def chain(spacing=150.0, count=4, range_m=200.0):
    topo = Topology()
    for i, name in enumerate("ABCDEFGH"[:count]):
        topo.add_node(name, Position(i * spacing, 0.0),
                      RadioProfile(range_m=range_m))
    return topo


def test_in_range_at_150m_with_default_range():
    topo = Topology()
    topo.add_node("a", Position(0, 0))
    topo.add_node("b", Position(150, 0))
    assert topo.in_range("a", "b")


def test_out_of_range_at_250m():
    topo = Topology()
    topo.add_node("a", Position(0, 0))
    topo.add_node("b", Position(250, 0))
    assert not topo.in_range("a", "b")


def test_asymmetric_ranges_use_the_smaller():
    topo = Topology()
    topo.add_node("a", Position(0, 0), RadioProfile(range_m=200))
    topo.add_node("b", Position(150, 0), RadioProfile(range_m=100))
    assert not topo.in_range("a", "b")
    assert not topo.in_range("b", "a")


def test_unknown_node_raises():
    topo = chain()
    with pytest.raises(UnknownNodeError):
        topo.in_range("A", "nope")
    with pytest.raises(UnknownNodeError):
        topo.neighbors("nope")


@pytest.mark.parametrize("a, b, error", [
    ("nope", "B", UnknownNodeError),   # unknown first id
    ("A", "nope", UnknownNodeError),   # unknown second id
    ("nope", "nope", UnknownNodeError),  # unknown ids come before a == b
    ("A", "A", ValueError),
    ("D", "A", None),                  # known, distinct, out of range
])
def test_in_range_errors_in_order(a, b, error):
    topo = chain()
    if error is None:
        assert topo.in_range(a, b) is False
        return
    with pytest.raises(Exception) as raised:
        topo.in_range(a, b)
    assert type(raised.value) is error


def test_chain_neighbors():
    topo = chain()
    assert topo.neighbors("A") == {"B"}
    assert topo.neighbors("B") == {"A", "C"}
    assert topo.neighbors("C") == {"B", "D"}
    assert topo.neighbors("D") == {"C"}


def test_isolated_node_has_no_neighbors():
    topo = chain()
    topo.add_node("Z", Position(10_000, 10_000))
    assert topo.neighbors("Z") == set()


def test_move_breaks_range():
    topo = chain()
    assert topo.in_range("C", "D")
    topo.apply_move("D", Position(10_000, 0))
    assert not topo.in_range("C", "D")


def all_neighbors(topo):
    return {node: topo.neighbors(node) for node in "ABCD"}


def test_identity_move_notifies_nobody():
    topo = chain()
    before = all_neighbors(topo)
    assert before["B"] == {"A", "C"}
    assert topo.apply_move("B", Position(150.0, 0.0)) is None
    assert all_neighbors(topo) == before


def test_move_away_empties_neighbor_sets():
    topo = chain()
    assert all_neighbors(topo) == {"A": {"B"}, "B": {"A", "C"},
                                   "C": {"B", "D"}, "D": {"C"}}
    topo.apply_move("B", Position(5_000, 5_000))
    assert all_neighbors(topo) == {"A": set(), "B": set(), "C": {"D"},
                                   "D": {"C"}}


def test_duplicate_node_rejected():
    topo = chain()
    with pytest.raises(ValueError):
        topo.add_node("A", Position(1, 1))


@pytest.mark.parametrize("range_m", [0.0, -1.0, float("nan")])
def test_non_positive_or_nan_range_rejected(range_m):
    with pytest.raises(ValueError):
        RadioProfile(range_m=range_m)


coords = st.floats(min_value=-500, max_value=500, allow_nan=False,
                   allow_infinity=False)
ranges = st.floats(min_value=1, max_value=600, allow_nan=False,
                   allow_infinity=False)


@given(st.lists(st.tuples(coords, coords, ranges), min_size=2, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.tuples(coords, coords)),
                max_size=5))
def test_neighbors_agree_with_brute_force(points, moves):
    # each node draws its own range, so a neighbor computation that used
    # only one end's range would disagree with the oracle
    topo = Topology()
    names = [f"n{i}" for i in range(len(points))]
    for name, (x, y, range_m) in zip(names, points):
        topo.add_node(name, Position(x, y), RadioProfile(range_m=range_m))

    def brute_neighbors(node):
        # same squared-distance arithmetic as production so the oracle value
        # differs only in how it enumerates, not in float rounding
        px = topo.position(node)
        result = set()
        for other in names:
            if other == node:
                continue
            po = topo.position(other)
            d2 = (px.x - po.x) ** 2 + (px.y - po.y) ** 2
            reach = min(topo.profile(node).range_m,
                        topo.profile(other).range_m)
            if d2 <= reach * reach:
                result.add(other)
        return result

    for idx, (x, y) in moves:
        if idx < len(names):
            mover = names[idx]
            assert topo.neighbors(mover) == brute_neighbors(mover)
            topo.apply_move(mover, Position(x, y))
            for node in names:
                assert topo.neighbors(node) == brute_neighbors(node)

    for node in names:
        assert node not in topo.neighbors(node)
        assert topo.neighbors(node) == brute_neighbors(node)
    for a in names:
        for b in names:
            if a != b:
                assert topo.in_range(a, b) == topo.in_range(b, a)
