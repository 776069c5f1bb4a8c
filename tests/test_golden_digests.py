"""Golden trace digests: the bundled scenarios and the benchmark's generated
workloads must keep producing the exact same trace bytes.  A refactor that
is meant to keep behaviour unchanged shows it here; a deliberate behaviour
change updates these digests and says why."""

import pytest

from wfdsim.scenario import load_scenario
from wfdsim.simulation import Simulation

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
