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

from conftest import trace_records


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
    assert [n.id for n in scenario.nodes] == ["A", "B", "C", "D"]
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


def test_a_mapping_runs_without_importing_the_yaml_parser(tmp_path):
    # only text goes through the parser: a mapping is loaded, run and
    # summarised without it, and a file and a bundled name still parse
    doc = variant(traffic=[{"at_ms": 4000, "src": "a", "dst": "b",
                            "payload_bits": 8000}])
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    program = f"""
import sys
import wfdsim
scenario = wfdsim.load_scenario({doc!r})
summary = wfdsim.Simulation(scenario).run()
assert [f.outcome for f in summary.flows] == ["DELIVERED"], summary.flows
assert "yaml" not in sys.modules, "loading a mapping imported yaml"
assert wfdsim.load_scenario({str(path)!r}) == scenario
assert [n.id for n in wfdsim.load_scenario("chain4").nodes] == list("ABCD")
assert "yaml" in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", program],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_a_run_imports_no_dataclasses_module():
    # wfdsim's records are plain classes, so neither the import nor a run
    # from a mapping nor its summary loads dataclasses or what it imports
    doc = variant(traffic=[{"at_ms": 4000, "src": "a", "dst": "b",
                            "payload_bits": 8000}])
    program = f"""
import sys
import wfdsim
scenario = wfdsim.load_scenario({doc!r})
sim = wfdsim.Simulation(scenario)
sim.run_until(scenario.sim.duration_us)
summary = wfdsim.build_summary(sim.trace.lines())
assert summary == sim.summary()
assert [f.outcome for f in summary.flows] == ["DELIVERED"], summary.flows
loaded = [m for m in ("dataclasses", "inspect", "ast") if m in sys.modules]
assert not loaded, loaded
"""
    result = subprocess.run([sys.executable, "-c", program],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_a_run_from_a_mapping_imports_no_importlib_resources():
    # only a bundled scenario name needs importlib.resources; -S keeps
    # site's .pth hooks, which may import it themselves, out of the check
    doc = variant(traffic=[{"at_ms": 4000, "src": "a", "dst": "b",
                            "payload_bits": 8000}])
    program = f"""
import sys
import wfdsim
summary = wfdsim.Simulation(wfdsim.load_scenario({doc!r})).run()
assert [f.outcome for f in summary.flows] == ["DELIVERED"], summary.flows
assert "importlib.resources" not in sys.modules
"""
    result = subprocess.run([sys.executable, "-S", "-c", program],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


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
    (("auto_chain",), True, "unknown field(s) in scenario: auto_chain"),
    # "$" also matches before a final newline, which would split trace lines
    (("nodes", 1, "id"), "b\n", r"nodes[1]: id must match ^[A-Za-z0-9_\-]+$"),
    # a node reference that is no string, and unhashable
    (("script", 0, "from"), ["a"],
     "script[0]: from references unknown node ['a']"),
    (("mobility",), [{"at_ms": 10, "node": ["a"], "pos": [0, 0]}],
     "mobility[0]: node references unknown node ['a']"),
    (("traffic",), [{"at_ms": 10, "src": ["a"], "dst": "b"}],
     "traffic[0]: src references unknown node ['a']"),
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


@pytest.mark.parametrize("doc, message", [
    (["a"], "scenario document must be a mapping"),
    (None, "scenario document must be a mapping"),  # an empty file
    (variant(sim=[1]), "sim section must be a mapping"),
    (variant(sim={"bridging": "SOMETIMES"}),
     "sim: bridging must be one of ['GO_AS_LEGACY_CLIENT', 'NONE']"),
    (variant(nodes=[]), "scenario needs a non-empty nodes list"),
    (variant(nodes={"id": "a", "pos": [0, 0]}),
     "scenario needs a non-empty nodes list"),
    (variant(nodes=["a"]), "nodes[0] must be a mapping"),
    (variant(script={"at_ms": 0}), "script section must be a list"),
    (variant(script=[["connect", "a", "b"]]), "script[0] must be a mapping"),
    (variant(mobility={"at_ms": 0}), "mobility section must be a list"),
    (variant(mobility=[None]), "mobility[0] must be a mapping"),
    (variant(traffic="a to b"), "traffic section must be a list"),
    (variant(traffic=[{"at_ms": 0, "src": "a", "dst": "b"}, 7]),
     "traffic[1] must be a mapping"),
])
def test_a_misshapen_document_or_section_is_named(tmp_path, doc, message):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioError) as raised:
        load_scenario(path)
    assert str(raised.value) == message


# a file the YAML parser rejects, or that is not UTF-8
@pytest.mark.parametrize("text, problem", [
    (b"nodes: [", "line 1, column 9: expected the node content, but found "
                  "'<stream end>'"),
    (b"? [a, b]\n: 1\n", "line 1, column 3: found unhashable key"),
    (b"nodes: \xff\n", "'utf-8' codec can't decode byte 0xff in position 7: "
                        "invalid start byte"),
    # the parser recurses once per level, past the interpreter's limit
    pytest.param(b"a: " + b"[" * 5000 + b"]" * 5000 + b"\n",
                 "nested too deeply", id="5000-deep-flow-list"),
    pytest.param(yaml.safe_dump({"sim": BASE["sim"], "nodes": BASE["nodes"]})
                 .encode() + b"script: " + b"[" * 3000 + b"]" * 3000 + b"\n",
                 "nested too deeply", id="3000-deep-script"),
])
def test_cli_validate_rejects_a_malformed_file_with_one_error_line(
        tmp_path, text, problem):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(text)
    with pytest.raises(ScenarioError) as raised:
        load_scenario(bad)
    assert str(raised.value) == f"{bad}: {problem}"
    result = subprocess.run(
        [sys.executable, "-m", "wfdsim.cli", "validate", str(bad)],
        capture_output=True, text=True, timeout=120)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", f"error: {bad}: {problem}\n")


# not finite, negative, zero, or under 1 µs once rounded
@pytest.mark.parametrize("until", ["-1", "nan", "inf", "1e308", "0", "4e-7"])
def test_cli_run_rejects_bad_until_with_one_error_line(until):
    result = subprocess.run(
        [sys.executable, "-m", "wfdsim.cli", "run", "chain4",
         f"--until={until}"],
        capture_output=True, text=True, timeout=120)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: --until must be finite and at least 1 µs\n")


@pytest.mark.parametrize("text, where", [
    (b"garbage\n", "line 1: fewer than three fields: 'garbage'"),
    (b"5 n1 DELIVER src=n1 app_seq=0\n\n10 n1 FORWARD src=n1\n",
     "line 3: no 'app_seq' field: '10 n1 FORWARD src=n1'"),
    # a byte that is not UTF-8 is named by its line and its position in it
    (b"5 n1 DELIVER src=n1 app_seq=0\n\xff\n",
     "line 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid "
     "start byte"),
    # ... also past the first 8 KB of the file
    pytest.param(b"".join(b"%d n1 DELIVER src=n1 app_seq=%d\n" % (i, i)
                          for i in range(3000)) + b"9 n1 \xff\n",
                 "line 3001: 'utf-8' codec can't decode byte 0xff in "
                 "position 5: invalid start byte", id="0xff-on-line-3001"),
])
def test_cli_replay_rejects_a_malformed_trace_with_one_error_line(
        tmp_path, text, where):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(text)
    result = subprocess.run(
        [sys.executable, "-m", "wfdsim.cli", "replay", str(bad)],
        capture_output=True, text=True, timeout=120)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", f"error: {bad}: {where}\n")


# (path of an entry, the entry with several faults, then each fault in the
# order it is reported: (key, the value that mends it or None to delete
# the key, the error it raises while it is the first fault left))
FAULTY_ENTRIES = {
    "sim": (("sim",), {
        "zz": 1, "yy": 2, "mm": 3, "aa": 4, "seed": 1.5, "duration_ms": 0,
        "wps_ms": -1, "find_min_ms": 300, "find_max_ms": 200}, [
        ("zz", None, "unknown field(s) in sim: aa, mm, yy, zz"),
        ("yy", None, "unknown field(s) in sim: aa, mm, yy"),
        ("mm", None, "unknown field(s) in sim: aa, mm"),
        ("aa", None, "unknown field(s) in sim: aa"),
        ("seed", 1, "sim: seed must be an integer"),
        ("wps_ms", 200, "sim: wps_ms must be non-negative"),
        ("find_min_ms", 100, "sim: find_min_ms must not exceed find_max_ms"),
        ("duration_ms", 5000, "sim: duration_ms must be positive"),
    ]),
    "node": (("nodes", 1), {
        "id": "b b", "pos": [INF, 0], "range_m": 0, "data_rate_bps": 0,
        "mac_latency_ms": -1, "go_intent": 16, "energy_cost": -1,
        "channel": 2, "zz": 1}, [
        ("zz", None, "unknown field(s) in nodes[1]: zz"),
        ("id", "a", r"nodes[1]: id must match ^[A-Za-z0-9_\-]+$"),
        ("id", "b", "duplicate node id 'a'"),
        ("pos", [100, 0], "nodes[1]: pos must be finite"),
        ("range_m", 150, "nodes[1]: range_m must be positive"),
        ("data_rate_bps", 10,
         "nodes[1]: data_rate_bps must be a positive integer"),
        ("mac_latency_ms", 1, "nodes[1]: mac_latency_ms must be non-negative"),
        ("go_intent", 1, "nodes[1]: go_intent must be an integer in 0..15"),
        ("energy_cost", 1, "nodes[1]: energy_cost must be non-negative"),
        ("channel", 6, "nodes[1]: channel must be one of (1, 6, 11)"),
    ]),
    "script": (("script", 0), {
        "at_ms": 10 ** 9, "action": "jump", "from": "ghost", "to": "ghost",
        "zz": 1}, [
        ("zz", None, "unknown field(s) in script[0]: zz"),
        ("action", "connect",
         "script[0]: action must be one of ('connect', 'join', 'bridge')"),
        ("from", "a", "script[0]: from references unknown node 'ghost'"),
        ("to", "a", "script[0]: to references unknown node 'ghost'"),
        ("to", "b", "script[0]: from and to must differ"),
        ("at_ms", 0,
         "script[0]: at_ms must lie within the simulation duration"),
    ]),
    "mobility": (("mobility",), [{
        "at_ms": -1, "node": "ghost", "pos": "x", "zz": 1}], [
        ("zz", None, "unknown field(s) in mobility[0]: zz"),
        ("node", "a", "mobility[0]: node references unknown node 'ghost'"),
        ("at_ms", 10, "mobility[0]: at_ms must be non-negative"),
        ("pos", [1, 0], "mobility[0]: pos must be [x, y] in meters"),
    ]),
    "traffic": (("traffic",), [{
        "at_ms": "soon", "src": "ghost", "dst": "nobody",
        "payload_bits": -1, "class": "FAST", "zz": 1}], [
        ("zz", None, "unknown field(s) in traffic[0]: zz"),
        ("src", "a", "traffic[0]: src references unknown node 'ghost'"),
        ("dst", "b", "traffic[0]: dst references unknown node 'nobody'"),
        ("payload_bits", 8, "traffic[0]: payload_bits must be >= 0"),
        ("class", "BULK",
         "traffic[0]: class must be one of ['REAL_TIME', 'BULK']"),
        ("at_ms", 10,
         "traffic[0]: at_ms must be a number of milliseconds"),
    ]),
}


@pytest.mark.parametrize("section", FAULTY_ENTRIES)
def test_an_entry_with_several_faults_reports_them_in_order(section):
    path, entry, faults = FAULTY_ENTRIES[section]
    doc = _set(variant(), path, copy.deepcopy(entry))
    target = doc
    for step in path:
        target = target[step]
    if isinstance(target, list):
        target = target[0]
    for key, mend, message in faults:
        with pytest.raises(ScenarioError) as raised:
            load_scenario(doc)
        assert str(raised.value) == message
        if mend is None:
            del target[key]
        else:
            target[key] = mend
    load_scenario(doc)


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


def test_cli_reads_an_extensionless_file_before_a_bundled_name(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "myscn").write_text(yaml.safe_dump(BASE))
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "myscn"]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["validate", "chain4"]) == 0  # no such file: bundled


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
    adverts = trace_records(sim.trace, EventClass.ADVERT, "tx")
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
    assert [n.id for n in scenario.nodes] == ["A", "B"]
    sim = Simulation(scenario)
    assert sim.topology.profile("B").data_rate_bps == 250_000_000


def test_readme_library_example_runs(capsys):
    # the documented Python use must run as written
    import pathlib
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md")
    blocks = re.findall(r"```python\n(.*?)```",
                        readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    out = capsys.readouterr().out.splitlines(keepends=True)
    # A's table at 7 s: destination -> (next hop, hops, sequence number)
    assert out[0] == "{'B': ('B', 1, 4), 'C': ('B', 2, 4), 'D': ('B', 3, 4)}\n"
    assert out[1] == "['A', 'B', 'C', 'D']\n"
    assert "".join(out[2:]) == namespace["summary"].to_text() + "\n"
    assert "flow app_seq=0 src=A dst=D class=BULK outcome=DELIVERED " \
        "latency_us=6096 path=A,B,C,D\n" in out
