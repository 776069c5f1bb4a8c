"""Scenario parsing/validation, the bundled fixtures, and the CLI surface."""

import copy
import re
import subprocess
import sys

import pytest
import yaml

from wfdsim.cli import main
from wfdsim.engine import SECOND
from wfdsim.scenario import ScenarioError, load_scenario
from wfdsim.simulation import Simulation
from wfdsim.summary import build_summary


BASE = {
    "sim": {"seed": 1, "duration_ms": 5000},
    "nodes": [
        {"id": "a", "pos": [0, 0], "go_intent": 9},
        {"id": "b", "pos": [100, 0], "go_intent": 1},
    ],
    "script": [{"at_ms": 0, "action": "connect", "from": "a", "to": "b"}],
}


def variant(**overrides):
    doc = copy.deepcopy(BASE)
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------------
# loading and validation

def test_bundled_chain4_loads_with_generated_script():
    scenario = load_scenario("chain4")
    assert scenario.node_ids() == ["A", "B", "C", "D"]
    positions = [n.pos.x for n in scenario.nodes]
    assert positions == [0, 150, 300, 450]
    intents = {n.id: n.go_intent for n in scenario.nodes}
    assert intents["B"] > intents["A"] and intents["C"] > intents["D"]
    actions = [(d.action, d.initiator, d.peer) for d in scenario.script]
    assert actions == [("connect", "A", "B"), ("connect", "C", "D"),
                       ("bridge", "B", "C")]


@pytest.mark.parametrize("name", ["chain4", "gc_pair", "two_groups_bridge",
                                  "mobility_break"])
def test_all_bundled_scenarios_valid(name):
    scenario = load_scenario(name)
    assert scenario.nodes


def test_unknown_bundled_name_rejected():
    with pytest.raises(ScenarioError, match="no bundled scenario"):
        load_scenario("nope")


def test_duplicate_node_id_names_the_id():
    doc = variant()
    doc["nodes"].append({"id": "a", "pos": [50, 0]})
    with pytest.raises(ScenarioError, match="duplicate node id 'a'"):
        load_scenario(doc)


def test_traffic_referencing_unknown_node_rejected():
    doc = variant(traffic=[{"at_ms": 100, "src": "a", "dst": "ghost",
                            "payload_bits": 10}])
    with pytest.raises(ScenarioError, match="ghost"):
        load_scenario(doc)


def test_unknown_field_rejected_in_strict_mode():
    doc = variant()
    doc["nodes"][0]["frequency"] = 5
    with pytest.raises(ScenarioError, match="frequency"):
        load_scenario(doc)


def test_directive_time_outside_duration_rejected():
    doc = variant(script=[{"at_ms": 99999, "action": "connect",
                           "from": "a", "to": "b"}])
    with pytest.raises(ScenarioError, match="duration"):
        load_scenario(doc)


def test_bad_action_and_bad_class_rejected():
    with pytest.raises(ScenarioError, match="action"):
        load_scenario(variant(script=[{"at_ms": 0, "action": "teleport",
                                       "from": "a", "to": "b"}]))
    with pytest.raises(ScenarioError, match="class"):
        load_scenario(variant(traffic=[{"at_ms": 0, "src": "a", "dst": "b",
                                        "payload_bits": 1,
                                        "class": "STREAMING"}]))


def test_auto_chain_needs_even_count_and_distinct_intents():
    doc = variant(script=[], auto_chain=True)
    doc["nodes"] = doc["nodes"][:1]
    with pytest.raises(ScenarioError, match="even number"):
        load_scenario(doc)
    doc = variant(script=[], auto_chain=True)
    doc["nodes"][1]["go_intent"] = doc["nodes"][0]["go_intent"]
    with pytest.raises(ScenarioError, match="distinct go_intent"):
        load_scenario(doc)


def test_intent_out_of_range_rejected():
    doc = variant()
    doc["nodes"][0]["go_intent"] = 16
    with pytest.raises(ScenarioError, match="0..15"):
        load_scenario(doc)


def _set(doc, path, value):
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("path, value, message", [
    (("sim", "wps_ms"), INF, "sim: wps_ms must be a number of milliseconds"),
    (("sim", "wps_ms"), NAN, "sim: wps_ms must be a number of milliseconds"),
    (("sim", "duration_ms"), 1e306,  # finite, but not in microseconds
     "sim: duration_ms must be a number of milliseconds"),
    (("sim", "keepalive_ms"), True,
     "sim: keepalive_ms must be a number of milliseconds"),
    (("nodes", 0, "pos"), [INF, 0], "nodes[0]: pos must be finite"),
    (("nodes", 0, "pos"), [0, NAN], "nodes[0]: pos must be finite"),
    (("nodes", 0, "mac_latency_ms"), -INF,
     "nodes[0]: mac_latency_ms must be a number of milliseconds"),
    (("nodes", 0, "go_intent"), True,
     "nodes[0]: go_intent must be an integer in 0..15"),
    (("nodes", 1, "data_rate_bps"), True,
     "nodes[1]: data_rate_bps must be a positive integer"),
    (("nodes", 1, "range_m"), True, "nodes[1]: range_m must be positive"),
    (("nodes", 1, "energy_cost"), True,
     "nodes[1]: energy_cost must be non-negative"),
    (("nodes", 1, "channel"), True, "nodes[1]: channel must be one of"),
    (("script", 0, "at_ms"), NAN,
     "script[0]: at_ms must be a number of milliseconds"),
    (("mobility",), [{"at_ms": 10, "node": "a", "pos": [INF, INF]}],
     "mobility[0]: pos must be finite"),
    (("sim", 7), 1, "unknown field(s) in sim: 7"),
    # a zero period reschedules itself forever at one virtual time
    (("sim", "advert_period_ms"), 0, "sim: advert_period_ms must be positive"),
    (("sim", "keepalive_ms"), 0, "sim: keepalive_ms must be positive"),
    (("sim",), {"find_min_ms": 0, "find_max_ms": 0},
     "sim: find_max_ms must be positive"),
    (("sim", "keepalive_ms"), 0.0004,  # rounds to 0 µs
     "sim: keepalive_ms must be positive"),
])
def test_non_finite_and_boolean_inputs_rejected(path, value, message):
    doc = _set(variant(), path, value)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(doc)


@pytest.mark.parametrize("sim, node, message", [
    ("{wps_ms: .inf}", "{}", "sim: wps_ms must be a number of milliseconds"),
    ("{wps_ms: .nan}", "{}", "sim: wps_ms must be a number of milliseconds"),
    ("{}", "{pos: [.inf, 0]}", "nodes[1]: pos must be finite"),
    ("{}", "{go_intent: true}",
     "nodes[1]: go_intent must be an integer in 0..15"),
    ("{}", "{range_m: true}", "nodes[1]: range_m must be positive"),
    ("{}", "{data_rate_bps: true}",
     "nodes[1]: data_rate_bps must be a positive integer"),
    ("{advert_period_ms: 0}", "{}", "sim: advert_period_ms must be positive"),
    ("{keepalive_ms: 0.0004}", "{}", "sim: keepalive_ms must be positive"),
    ("{find_min_ms: 0, find_max_ms: 0}", "{}",
     "sim: find_max_ms must be positive"),
])
def test_cli_validate_rejects_bad_numbers_with_one_error_line(
        tmp_path, sim, node, message):
    bad = tmp_path / "bad.yaml"
    node_b = {"id": "b", "pos": [1, 0], **yaml.safe_load(node)}
    bad.write_text(f"sim: {sim}\nnodes:\n  - {{id: a, pos: [0, 0]}}\n"
                   f"  - {yaml.safe_dump(node_b, default_flow_style=True)}")
    result = subprocess.run(
        [sys.executable, "-m", "wfdsim.cli", "validate", str(bad)],
        capture_output=True, text=True, timeout=120)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stderr) == (1, f"error: {message}\n")


def test_bridging_policy_parsed():
    doc = variant()
    doc["sim"]["bridging"] = "NONE"
    scenario = load_scenario(doc)
    from wfdsim.linklayer import BridgingPolicy
    assert scenario.sim.link.bridging is BridgingPolicy.NONE


# ----------------------------------------------------------------------
# running scenarios

def test_run_chain4_delivers_one_flow():
    summary = Simulation.from_source("chain4").run()
    assert len(summary.flows) == 1
    flow = summary.flows[0]
    assert flow.outcome == "DELIVERED"
    assert flow.path == ["A", "B", "C", "D"]


def test_same_seed_runs_are_byte_identical():
    hashes = set()
    for _ in range(2):
        sim = Simulation.from_source("chain4")
        sim.run()
        hashes.add(sim.trace.sha256())
    assert len(hashes) == 1


def test_traffic_before_convergence_reports_no_route():
    doc = yaml.safe_load(
        __import__("wfdsim.scenario", fromlist=["bundled_scenario_path"])
        .bundled_scenario_path("chain4").read_text())
    doc["traffic"] = [{"at_ms": 2000, "src": "A", "dst": "D",
                       "payload_bits": 8000, "class": "REAL_TIME"}]
    summary = Simulation(load_scenario(doc)).run()
    assert summary.flows[0].outcome == "NO_ROUTE"


def test_duration_before_traffic_sends_nothing():
    scenario = load_scenario("chain4")
    scenario.sim.duration_us = 4 * SECOND
    summary = Simulation(scenario).run()
    assert summary.flows == []


def test_interleaved_simulations_share_no_state():
    # two instances stepped in lockstep must byte-match two isolated runs
    isolated = []
    for name in ("chain4", "gc_pair"):
        sim = Simulation.from_source(name)
        sim.run()
        isolated.append(sim.trace.sha256())
    a = Simulation.from_source("chain4")
    b = Simulation.from_source("gc_pair")
    for t in range(1, 16):
        a.run_until(min(t * SECOND, a.scenario.sim.duration_us))
        b.run_until(min(t * SECOND, b.scenario.sim.duration_us))
    assert [a.trace.sha256(), b.trace.sha256()] == isolated


def test_summary_recomputable_from_trace_file(tmp_path):
    sim = Simulation.from_source("gc_pair")
    run_summary = sim.run()
    trace_path = tmp_path / "gc_pair.trace"
    sim.trace.write(trace_path)
    with open(trace_path) as fh:
        replayed = build_summary(fh)
    assert replayed == run_summary


# ----------------------------------------------------------------------
# CLI

def test_cli_run_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    summary = tmp_path / "s.txt"
    code = main(["run", "chain4", "--trace", str(trace),
                 "--summary", str(summary)])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome=DELIVERED" in out
    assert trace.exists() and summary.exists()
    assert summary.read_text() == out


def test_cli_run_seed_override_changes_trace(tmp_path):
    t1, t2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "chain4", "--trace", str(t1)]) == 0
    assert main(["run", "chain4", "--seed", "2", "--trace", str(t2)]) == 0
    assert t1.read_text() != t2.read_text()


def test_cli_until_override(capsys):
    code = main(["run", "chain4", "--until", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flows=0" in out


def test_cli_replay_matches_run(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    main(["run", "chain4", "--trace", str(trace)])
    run_out = capsys.readouterr().out
    assert main(["replay", str(trace)]) == 0
    assert capsys.readouterr().out == run_out


def test_cli_validate_ok_and_failure(tmp_path, capsys):
    assert main(["validate", "chain4"]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.yaml"
    bad.write_text("nodes:\n  - {id: a, pos: [0, 0]}\n  - {id: a, pos: [1, 1]}\n")
    assert main(["validate", str(bad)]) == 1
    assert "duplicate node id" in capsys.readouterr().err


def test_cli_missing_scenario_file_fails_cleanly(capsys):
    assert main(["run", "./does-not-exist.yaml"]) == 1
    assert "not found" in capsys.readouterr().err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "wfdsim.cli", "run", "gc_pair"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "outcome=DELIVERED" in result.stdout


# ----------------------------------------------------------------------
# every setting reaches the layer that reads it

def test_every_setting_reaches_its_layer():
    from wfdsim.engine import EventClass
    from wfdsim.linklayer import BridgingPolicy, LinkConfig
    from wfdsim.routing import RoutingConfig
    from wfdsim.summary import parse_trace_line
    from wfdsim.topology import RadioProfile

    # each value differs from its default and from every other value
    doc = variant(sim={
        "seed": 5, "duration_ms": 7000, "advert_period_ms": 700,
        "full_dump_every": 4, "ttl": 9, "scan_ms": 450, "find_min_ms": 110,
        "find_max_ms": 290, "discovery_timeout_ms": 9000, "wps_ms": 180,
        "keepalive_ms": 1100, "keepalive_miss_limit": 5,
        "overlap_min_ms": 25, "bridging": "NONE"})
    doc["nodes"][1].update(range_m=210.5, data_rate_bps=125_000_000,
                           mac_latency_ms=3)
    sim = Simulation(load_scenario(doc))

    assert sim.engine.rng.seed == 5
    assert sim.linklayer.config == LinkConfig(
        scan_us=450_000, find_min_us=110_000, find_max_us=290_000,
        discovery_timeout_us=9_000_000, overlap_min_us=25_000,
        wps_us=180_000, keepalive_us=1_100_000, keepalive_miss_limit=5,
        bridging=BridgingPolicy.NONE)
    for node in ("a", "b"):
        assert sim.agent(node).config == RoutingConfig(
            advert_period_us=700_000, full_dump_every=4, default_ttl=9)
    assert sim.topology.profile("a") == RadioProfile()
    assert sim.topology.profile("b") == RadioProfile(
        range_m=210.5, data_rate_bps=125_000_000,
        per_hop_mac_latency_us=3_000)

    sim.run()
    assert sim.engine.now() == 7_000_000
    adverts = [p for p in map(parse_trace_line, sim.trace.lines())
               if p.event_class == EventClass.ADVERT.value
               and p.details["action"] == "tx"]
    assert adverts, "the pair must advertise once its group is up"
    assert all(p.time_us % 700_000 == 0 for p in adverts)
    assert all(p.time_us % (4 * 700_000) == 0 for p in adverts
               if p.details["full"] == "1")


def test_readme_scenario_example_loads_and_builds():
    # the documented file format must stay loadable as written
    import pathlib
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md")
    blocks = re.findall(r"```yaml\n(.*?)```", readme.read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    scenario = load_scenario(yaml.safe_load(blocks[0]))
    assert scenario.node_ids() == ["A", "B"]
    sim = Simulation(scenario)
    assert sim.topology.profile("B").data_rate_bps == 250_000_000
