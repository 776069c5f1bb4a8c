"""Value behaviour of the package's records.

The summaries, the scenario and its config objects compare field by field:
the benchmark and `replay` check a rebuilt summary against the run's, and
a scenario loaded from a file against one built from a mapping.
`Position` and `RadioProfile` are also immutable and hashable.  `Frame`
and `Packet` reject negative sizes when they are built.
"""

from __future__ import annotations

import copy

import pytest

from wfdsim.linklayer import Frame
from wfdsim.routing import Packet, TrafficClass
from wfdsim.scenario import load_scenario
from wfdsim.simulation import Simulation
from wfdsim.summary import AdvertStats, FlowSummary, Summary, build_summary
from wfdsim.topology import Position, RadioProfile

INF, NAN = float("inf"), float("nan")


# ----------------------------------------------------------------------
# summaries

def make_summary() -> Summary:
    return Summary(
        flows=[FlowSummary(0, "a", "c", "REAL_TIME", "DELIVERED", 4000,
                           ["a", "b", "c"]),
               FlowSummary(1, "c", "a", "BULK")],
        adverts={"a": AdvertStats(3, 7, 1), "b": AdvertStats(2, 5, 0)},
        convergence_us=1500, drops={"no_route": 2, "ttl_expired": 1})


def _set_path(s):
    s.flows[0].path[1] = "x"


def _drop_flow(s):
    del s.flows[1]


# each edit changes one field somewhere in the summary
SUMMARY_EDITS = {
    "flow path": _set_path,
    "flow outcome": lambda s: setattr(s.flows[1], "outcome", "LOST"),
    "flow latency": lambda s: setattr(s.flows[0], "latency_us", 4001),
    "flow app_seq": lambda s: setattr(s.flows[1], "app_seq", 2),
    "flow src": lambda s: setattr(s.flows[0], "src", "b"),
    "flow dst": lambda s: setattr(s.flows[0], "dst", "b"),
    "flow class": lambda s: setattr(s.flows[1], "traffic_class", "REAL_TIME"),
    "one flow fewer": _drop_flow,
    "advert tx": lambda s: setattr(s.adverts["a"], "tx", 4),
    "advert entries": lambda s: setattr(s.adverts["b"], "entries", 6),
    "advert full dumps": lambda s: setattr(s.adverts["b"], "full_dumps", 1),
    "advert node": lambda s: s.adverts.update(c=AdvertStats()),
    "convergence": lambda s: setattr(s, "convergence_us", 1501),
    "drop count": lambda s: s.drops.update(no_route=3),
    "drop reason": lambda s: s.drops.update(lost=1),
}


def test_equal_summaries_compare_equal():
    assert make_summary() == make_summary()
    assert not make_summary() != make_summary()
    assert FlowSummary(1, "c", "a", "BULK") == FlowSummary(1, "c", "a", "BULK")
    assert AdvertStats(1, 2, 3) == AdvertStats(1, 2, 3)
    assert Summary() == Summary()


def test_summary_text_has_a_line_per_flow_advert_node_and_drop_reason():
    # no pinned summary has a drop line since churn_grid fails no send
    assert make_summary().to_text().splitlines() == [
        "flows=2",
        "flow app_seq=0 src=a dst=c class=REAL_TIME outcome=DELIVERED "
        "latency_us=4000 path=a,b,c",
        "flow app_seq=1 src=c dst=a class=BULK outcome=IN_FLIGHT "
        "latency_us=- path=-",
        "adverts node=a tx=3 entries=7 full_dumps=1",
        "adverts node=b tx=2 entries=5 full_dumps=0",
        "convergence_us=1500",
        "drop reason=no_route count=2",
        "drop reason=ttl_expired count=1"]


@pytest.mark.parametrize("edit", SUMMARY_EDITS)
def test_a_summary_that_differs_in_one_field_is_unequal(edit):
    changed = make_summary()
    SUMMARY_EDITS[edit](changed)
    assert changed != make_summary()
    assert make_summary() != changed
    assert not changed == make_summary()


def test_records_of_one_family_compare_only_with_their_own_class():
    assert AdvertStats(1, 2, 3) != (1, 2, 3)
    assert FlowSummary(0, "a", "b", "BULK") != AdvertStats()
    assert Summary() != AdvertStats()


def test_the_same_lines_give_equal_summaries():
    sim = Simulation.from_source("chain4")
    sim.run()
    lines = sim.trace.lines()
    assert build_summary(lines) == build_summary(list(lines)) == sim.summary()
    delivered = [i for i, line in enumerate(lines) if " DELIVER " in line]
    assert delivered
    fewer = lines[:delivered[0]] + lines[delivered[0] + 1:]
    assert build_summary(fewer) != sim.summary()


# ----------------------------------------------------------------------
# scenarios

DOC = {
    "sim": {"seed": 3, "duration_ms": 8000, "keepalive_ms": 900,
            "advert_period_ms": 700},
    "nodes": [
        {"id": "a", "pos": [0, 0], "go_intent": 9},
        {"id": "b", "pos": [100, 0], "go_intent": 1, "range_m": 150},
        {"id": "c", "pos": [200, 0], "energy_cost": 2.0, "channel": 6},
    ],
    "script": [{"at_ms": 0, "action": "connect", "from": "a", "to": "b"},
               {"at_ms": 500, "action": "join", "from": "c", "to": "b"}],
    "mobility": [{"at_ms": 6000, "node": "c", "pos": [300, 0]}],
    "traffic": [{"at_ms": 4000, "src": "a", "dst": "c",
                 "payload_bits": 8000, "class": "BULK"},
                {"at_ms": 4500, "src": "c", "dst": "a", "payload_bits": 512}],
}


# (path into the document, new value): each differs from DOC in one place
SCENARIO_EDITS = {
    "seed": (("sim", "seed"), 4),
    "duration": (("sim", "duration_ms"), 9000),
    "link config": (("sim", "keepalive_ms"), 901),
    "routing config": (("sim", "advert_period_ms"), 701),
    "radio range_m": (("nodes", 1, "range_m"), 151),
    "radio data rate": (("nodes", 2, "data_rate_bps"), 125_000_000),
    "node position": (("nodes", 0, "pos"), [0, 1]),
    "go intent": (("nodes", 0, "go_intent"), 8),
    "energy cost": (("nodes", 2, "energy_cost"), 2.5),
    "channel": (("nodes", 2, "channel"), 11),
    "directive action": (("script", 1, "action"), "connect"),
    "directive peer": (("script", 0, "to"), "c"),
    "directive time": (("script", 1, "at_ms"), 501),
    "mobility position": (("mobility", 0, "pos"), [300, 1]),
    "traffic class": (("traffic", 0, "class"), "REAL_TIME"),
    "traffic size": (("traffic", 1, "payload_bits"), 513),
    "traffic time": (("traffic", 0, "at_ms"), 4001),
}


def edited(path, value) -> dict:
    doc = copy.deepcopy(DOC)
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


def test_loaded_scenarios_compare_deeply():
    scenario = load_scenario(copy.deepcopy(DOC))
    assert scenario == load_scenario(copy.deepcopy(DOC))
    assert not scenario != load_scenario(copy.deepcopy(DOC))
    # every part compares by value, not only the whole
    other = load_scenario(copy.deepcopy(DOC))
    for a, b in [(scenario.sim, other.sim),
                 (scenario.sim.link, other.sim.link),
                 (scenario.sim.routing, other.sim.routing),
                 *zip(scenario.nodes, other.nodes),
                 *zip(scenario.script, other.script),
                 *zip(scenario.mobility, other.mobility),
                 *zip(scenario.traffic, other.traffic)]:
        assert a is not b and a == b


@pytest.mark.parametrize("edit", SCENARIO_EDITS)
def test_a_scenario_that_differs_in_one_place_is_unequal(edit):
    changed = load_scenario(edited(*SCENARIO_EDITS[edit]))
    assert changed != load_scenario(copy.deepcopy(DOC))
    assert not changed == load_scenario(copy.deepcopy(DOC))


def test_traffic_class_survives_into_the_scenario():
    scenario = load_scenario(copy.deepcopy(DOC))
    assert [t.traffic_class for t in scenario.traffic] == [
        TrafficClass.BULK, TrafficClass.REAL_TIME]


# ----------------------------------------------------------------------
# positions and radio profiles

def test_position_and_radio_profile_are_immutable():
    pos, radio = Position(1.0, 2.0), RadioProfile(range_m=150.0)
    for record, name in [(pos, "x"), (pos, "y"), (radio, "range_m"),
                         (radio, "data_rate_bps"),
                         (radio, "per_hop_mac_latency_us")]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == before


def test_position_and_radio_profile_are_hashable_values():
    assert Position(1.0, 2.0) == Position(1, 2)
    assert hash(Position(1.0, 2.0)) == hash(Position(1, 2))
    assert Position(1.0, 2.0) != Position(2.0, 1.0)
    assert len({Position(1.0, 2.0), Position(1.0, 2.0),
                Position(2.0, 1.0)}) == 2
    assert RadioProfile() == RadioProfile(200.0, 250_000_000, 2_000)
    assert hash(RadioProfile()) == hash(RadioProfile(range_m=200.0))
    assert RadioProfile() != RadioProfile(range_m=150.0)
    assert RadioProfile() != RadioProfile(per_hop_mac_latency_us=1)
    assert len({RadioProfile(), RadioProfile(), RadioProfile(10.0)}) == 2
    assert Position(200.0, 250_000_000) != RadioProfile(200.0, 250_000_000)


def test_a_record_repr_names_its_class_and_each_field():
    assert repr(RadioProfile()) == ("RadioProfile(range_m=200.0, "
                                    "data_rate_bps=250000000, "
                                    "per_hop_mac_latency_us=2000)")
    assert repr(Position(1.5, -0.0)) == "Position(x=1.5, y=-0.0)"


@pytest.mark.parametrize("x, y", [(NAN, 0.0), (0.0, NAN), (INF, 0.0),
                                  (0.0, -INF)])
def test_a_non_finite_position_is_rejected(x, y):
    with pytest.raises(ValueError, match=r"^non-finite position \("):
        Position(x, y)


@pytest.mark.parametrize("kwargs, message", [
    ({"range_m": 0.0}, "range_m must be positive"),
    ({"range_m": -1.0}, "range_m must be positive"),
    ({"range_m": NAN}, "range_m must be positive"),
    ({"data_rate_bps": 0}, "data_rate_bps must be positive"),
    ({"data_rate_bps": -5}, "data_rate_bps must be positive"),
    ({"range_m": 0.0, "data_rate_bps": 0}, "range_m must be positive"),
])
def test_a_non_positive_radio_profile_is_rejected(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RadioProfile(**kwargs)


# ----------------------------------------------------------------------
# frames and packets

def test_a_negative_frame_size_is_rejected():
    with pytest.raises(ValueError, match="^size_bits must be non-negative$"):
        Frame("a", "b", 1, -1, None)
    assert Frame("a", "b", 1, 0, None).size_bits == 0


@pytest.mark.parametrize("ttl, bits, message", [
    (-1, 100, "ttl must be non-negative"),
    (3, -1, "payload_bits must be non-negative"),
    (-1, -1, "ttl must be non-negative"),
])
def test_a_negative_packet_ttl_or_size_is_rejected(ttl, bits, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Packet("a", "b", 0, ttl, TrafficClass.BULK, bits)


def test_a_packet_starts_with_its_own_empty_path():
    first = Packet("a", "b", 0, 0, TrafficClass.BULK, 0)
    second = Packet("a", "b", 1, 1, TrafficClass.REAL_TIME, 1)
    first.path.append("a")
    assert second.path == [] and first.path == ["a"]
