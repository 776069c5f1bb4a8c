"""Golden trace digests: the bundled scenarios and the benchmark's generated
workloads must keep producing the exact same trace bytes.  A refactor that
is meant to keep behaviour unchanged shows it here; a deliberate behaviour
change updates these digests and says why."""

import hashlib
import io

import pytest

from wfdsim.scenario import load_scenario
from wfdsim.simulation import Simulation
from wfdsim.summary import build_summary

from conftest import load_bench_module

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_trace_digest_is_pinned(name):
    sim = Simulation.from_source(name)
    sim.run()
    assert sim.trace.sha256() == GOLDEN[name]


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
        "7c8bc150b7c5e32f37dcb72a1dc770851c570d576a28254db57a81dba57d43c9",
}

# seed-1 events each workload runs: the count `events_per_s` divides by,
# and a refactor that keeps the trace must keep it too
WORKLOAD_STEPS = {"chain_long": 32_685, "flows_many": 7_880,
                  "churn_grid": 19_529}


def _bench_workloads():
    return load_bench_module("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOAD_GOLDEN))
def test_bench_workload_trace_digest_is_pinned(name):
    scenario = load_scenario(_bench_workloads().generate(name, 1))
    sim = Simulation(scenario)
    sim.run_until(scenario.sim.duration_us)
    assert sim.trace.sha256() == WORKLOAD_GOLDEN[name]
    assert sim.engine.steps == WORKLOAD_STEPS[name]


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
        "0946c45256c537b4d350e5fcefef600db01e4685a68fc34c12f07a3f6787988f",
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
