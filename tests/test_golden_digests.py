"""Golden trace digests: the bundled scenarios and the benchmark's generated
workloads must keep producing the exact same trace bytes.  A refactor that
is meant to keep behaviour unchanged shows it here; a deliberate behaviour
change updates these digests and says why."""

import hashlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from wfdsim.routing import INFINITE_HOPS
from wfdsim.scenario import load_scenario
from wfdsim.simulation import Simulation
from wfdsim.summary import build_summary

from conftest import RouteView, connect_ends, load_bench_module
from test_transfer import slow_link_scenario

GOLDEN = {
    "chain4":
        "b56d8cba657286a7a92b96fe7e05268ed98916dcba1af1967f2e904d2335c991",
    "gc_pair":
        "df3f142ff7b25c671edeb33561ee567e0417c16e7562b5ba186eabb79347d5bf",
    "two_groups_bridge":
        "a2c159034f0bfeb744bc9866d256a69561a72264fbc0a512782cc6fffe563617",
    "mobility_break":
        "66a9476663806874ac98211e0cb418a45b612ce7f51d9dffc55912a1e902d811",
}


def routes(sim):
    """(node, the views of one destination's routes) over every table."""
    return [(node, [RouteView(*r) for r in slots])
            for node, agent in sorted(sim.agents.items())
            for slots in agent.table.entries.values()]


def assert_valid_iff_even_seq(sim):
    """A valid route carries an even sequence number (its origin's own, or
    one copied from a valid route), an invalidated one an odd one (a valid
    route's plus one, or one copied from an invalidated route);
    `merge_advert` relies on it when it decides a candidate of the held
    sequence: both are valid or both invalid."""
    wrong = [(node, e.destination, e.seq_no, e.hop_count)
             for node, slots in routes(sim) for e in slots
             if e.valid != (e.seq_no % 2 == 0)]
    assert wrong == []


def assert_invalid_routes_carry_no_cost(sim):
    """An invalidated route holds zero latency and energy, so it is
    advertised as it is held."""
    wrong = [(node, e.destination, e.hop_count, e.latency_us, e.energy_cost)
             for node, slots in routes(sim) for e in slots
             if e.hop_count >= INFINITE_HOPS
             and (e.latency_us, e.energy_cost) != (0, 0.0)]
    assert wrong == []


def assert_alternates_have_equal_hops(sim):
    """An alternate has its primary's sequence and hop count, via another
    neighbor: every candidate is then as close to the destination, which
    is what keeps per-hop class selection loop-free."""
    wrong = [(node, first.destination, [(e.next_hop, e.seq_no, e.hop_count)
                                        for e in slots])
             for node, (first, *alternates) in routes(sim)
             for alt in alternates
             if (alt.seq_no, alt.hop_count) != (first.seq_no, first.hop_count)
             or alt.next_hop == first.next_hop]
    assert wrong == []


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_trace_digest_is_pinned(name):
    sim = Simulation.from_source(name)
    sim.run()
    assert sim.trace.sha256() == GOLDEN[name]
    # every connect the scenario requests ends once, and nothing else ends
    assert connect_ends(sim.trace)[1:] == (0, [])
    assert_valid_iff_even_seq(sim)
    assert_invalid_routes_carry_no_cost(sim)
    assert_alternates_have_equal_hops(sim)


def test_summary_mid_run_keeps_later_records_in_the_trace():
    # summary() formats the trace so far; records emitted after it must
    # still reach lines(), dump() and sha256()
    sim = Simulation.from_source("chain4")
    sim.run_until(sim.scenario.sim.duration_us // 2)
    early = sim.summary()
    seen = len(sim.trace.lines())
    sim.run()
    lines = sim.trace.lines()
    assert len(lines) > seen
    one_go = Simulation.from_source("chain4")
    one_go.run()
    assert lines == one_go.trace.lines()
    assert sim.trace.dump() == "".join(line + "\n" for line in lines)
    assert sim.trace.sha256() == GOLDEN["chain4"]
    assert sim.summary() != early


# seed-1 digests of bench/workloads.py; chain_long is the only scenario
# whose full dumps carry 128 entries, so it pins the routing merge rules
# at a size the bundled scenarios never reach
WORKLOAD_GOLDEN = {
    "chain_long":
        "c4681c98b72e3977f3249281d0eba7b7da56f3067b47be599446f14fb69e9c98",
    "flows_many":
        "48e4cbd97b6347d8bac97e6d33b14beed0adbe569e4905f8329d08b4c1cff3e0",
    "churn_grid":
        "4adfa26f9b1ea1f0d09b9032fb6a4378175ab8e3b80efbc687671c6090424484",
}

# seed-1 events each workload runs: the count `events_per_s` divides by,
# and a refactor that keeps the trace must keep it too
WORKLOAD_STEPS = {"chain_long": 32_685, "flows_many": 7_880,
                  "churn_grid": 18_322}

# seed-1 ends of each workload's connects: every `request` is ended by
# exactly one `up` or `failed` of its pair, and no end is without one
WORKLOAD_CONNECT_ENDS = {"chain_long": ({"up": 127}, 0, []),
                         "flows_many": ({"up": 15}, 0, []),
                         "churn_grid": ({"up": 77, "failed": 5}, 0, [])}


def _bench_workloads():
    return load_bench_module("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOAD_GOLDEN))
def test_bench_workload_trace_digest_is_pinned(name):
    scenario = load_scenario(_bench_workloads().generate(name, 1))
    sim = Simulation(scenario)
    sim.run_until(scenario.sim.duration_us)
    assert sim.trace.sha256() == WORKLOAD_GOLDEN[name]
    assert sim.engine.steps == WORKLOAD_STEPS[name]
    assert connect_ends(sim.trace) == WORKLOAD_CONNECT_ENDS[name]
    assert_valid_iff_even_seq(sim)
    assert_invalid_routes_carry_no_cost(sim)
    assert_alternates_have_equal_hops(sim)


CHILD = pathlib.Path(__file__).resolve().parent.parent / "bench" / "child.py"

# bench/child.py's output check on whole runs, in a child process (-B
# writes no bytecode next to bench/); prints name -> [problems, failed
# sends, sends]
_CHECK_OUTPUTS = """
import json, runpy, sys
from wfdsim.simulation import Simulation
child = runpy.run_path(sys.argv[1])
sources = {"slow_link_in_flight": json.loads(sys.argv[2])}
for name in sys.argv[3:]:
    sources[name] = child["workloads"].generate(name, 1)
out = {}
for name, source in sources.items():
    sim = Simulation.from_source(source)
    summary = sim.run()
    problems, failed = child["_check_outputs"](sim.scenario, sim, summary,
                                               sim.trace.dump())
    out[name] = [problems, failed, len(sim.scenario.traffic)]
print(json.dumps(out))
"""

# what the check returns on each run: a flow still in flight at the end is
# counted as failed but is no problem, and the seed-1 workloads fail a
# fixed number of sends per run, which the benchmark's `failed` sums
BENCH_CHECKS = {"slow_link_in_flight": [[], 1, 1],
                "chain_long": [[], 0, 24],
                "flows_many": [[], 0, 1000],
                "churn_grid": [[], 0, 150]}


def test_bench_output_check_is_pinned():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHECK_OUTPUTS, str(CHILD),
         json.dumps(slow_link_scenario(duration_ms=20_000)),
         *sorted(WORKLOAD_GOLDEN)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == BENCH_CHECKS


# sha256 of `summary().to_text()` for each pinned trace: the trace digests
# pin the formatter, these pin the parser that reads the trace back
SUMMARY_GOLDEN = {
    "chain4":
        "9e03b6a6ed3f7a181dd53db2324799b2b360bbbfa8dcb694233e7a32c2b612b6",
    "gc_pair":
        "0931d23df3cdab6ab15a528a516efd3c224d0dc5ce8aa8ed68a8c02be5e74da0",
    "two_groups_bridge":
        "58e6375ee28df2d3f4aa19235ca26099009e7af97cde8574b4edf00704bc1cca",
    "mobility_break":
        "1e7587f7bf0162acbbf380ee25c0ba8d565db8b7ce5bb01b0f1228637dfc3553",
    "chain_long":
        "8f9106e868e187730d4f1bb7cf97535e1834d623745c5c12493c2d00e6507955",
    "flows_many":
        "b59a8fccf04fe8461f9a2de518eef2cb6eeb60ff4d8039fc4dfea490b54a3421",
    "churn_grid":
        "50ea6576b5b05fdbd4d97d5ad8cfa1dc900c7a3a497754537e041645e23b35bb",
}


@pytest.mark.parametrize("name", sorted(SUMMARY_GOLDEN))
def test_summary_digest_is_pinned_for_run_and_replay(name):
    if name in WORKLOAD_GOLDEN:
        sim = Simulation(load_scenario(_bench_workloads().generate(name, 1)))
    else:
        sim = Simulation.from_source(name)
    text = sim.run().to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        SUMMARY_GOLDEN[name]
    # `replay` reads the written trace back one "\n"-ended line at a time
    assert build_summary(io.StringIO(sim.trace.dump())).to_text() == text
