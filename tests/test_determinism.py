"""Determinism guards against the environment: a run's trace may depend
only on its scenario and seed, not on the hash seed of the interpreter
(set iteration over string ids), on where the layout sits in the plane, nor
on a node out of everyone's range.

The hash-seed and shift guard runs in child processes, so `PYTHONHASHSEED`
takes effect; -B writes no bytecode next to bench/."""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from wfdsim.scenario import NodeSpec, load_scenario
from wfdsim.simulation import Simulation
from wfdsim.topology import Position

from conftest import load_bench_module
from test_golden_digests import GOLDEN, WORKLOAD_GOLDEN

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / \
    "workloads.py"
SHIFT = (1000.0, -700.0)

# the bundled scenarios and flows_many seed 1, each as given and with every
# position and mobility target shifted by SHIFT; prints name -> digest
_DIGESTS = """
import copy, json, sys, types
from wfdsim.scenario import load_scenario
from wfdsim.simulation import Simulation
from wfdsim.topology import Position
workloads = types.ModuleType("workloads")
exec(compile(open(sys.argv[1], encoding="utf-8").read(), sys.argv[1],
             "exec"), workloads.__dict__)
dx, dy = float(sys.argv[2]), float(sys.argv[3])
scenarios = {name: load_scenario(name) for name in sys.argv[4:]}
scenarios["flows_many"] = load_scenario(workloads.generate("flows_many", 1))

def moved(record):
    # a copy of a node or a mobility step, its position shifted
    record = copy.copy(record)
    record.pos = Position(record.pos.x + dx, record.pos.y + dy)
    return record

def shifted(scenario):
    scenario = copy.copy(scenario)
    scenario.nodes = [moved(n) for n in scenario.nodes]
    scenario.mobility = [moved(s) for s in scenario.mobility]
    return scenario

def digest(scenario):
    sim = Simulation(scenario)
    sim.run_until(scenario.sim.duration_us)
    return sim.trace.sha256()

print(json.dumps({f"{name}{tag}": digest(make(scenario))
                  for name, scenario in scenarios.items()
                  for tag, make in (("", lambda s: s),
                                    ("@shifted", shifted))}))
"""


def _digests(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _DIGESTS, str(WORKLOADS),
         *map(str, SHIFT), *sorted(GOLDEN)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traces_ignore_the_hash_seed_and_a_shift_of_the_layout():
    pinned = {**GOLDEN, "flows_many": WORKLOAD_GOLDEN["flows_many"]}
    expected = {**pinned, **{f"{n}@shifted": d for n, d in pinned.items()}}
    assert _digests("0") == expected
    assert _digests("12345") == expected


FAR = NodeSpec("far", Position(1e7, 1e7))


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "flows_many"])
def test_an_unscripted_node_out_of_range_changes_no_record(name):
    # the far node hears nobody and nobody hears it, so every other node's
    # records stay as pinned and it writes none of its own
    if name == "flows_many":
        scenario = load_scenario(
            load_bench_module("workloads").generate(name, 1))
        pinned = WORKLOAD_GOLDEN[name]
    else:
        scenario = load_scenario(name)
        pinned = GOLDEN[name]
    far_added = copy.copy(scenario)
    far_added.nodes = [*scenario.nodes, FAR]
    sim = Simulation(far_added)
    sim.run_until(scenario.sim.duration_us)
    assert sim.trace.sha256() == pinned
