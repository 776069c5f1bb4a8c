"""The traced benchmark run wraps named wfdsim entry points from outside
(`bench/spans.py`).  A rename or removal in `src/` would otherwise break
the per-layer split only when that run is made."""

import json
import pathlib
import subprocess
import sys

from wfdsim import (engine, linklayer, routing, scenario, simulation,
                    topology, transfer)

from conftest import load_bench_module

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# bench/spans.py compiled in memory and installed over the wfdsim modules
# before any Simulation is built, as the traced benchmark run does
_TRACED_RUN = """
import json, sys, types
from wfdsim import (engine, linklayer, routing, scenario, simulation,
                    topology, transfer)
spans = types.ModuleType("spans")
exec(compile(open(sys.argv[1], encoding="utf-8").read(), sys.argv[1],
             "exec"), spans.__dict__)
tracer = spans.Tracer()
tracer.install((engine, topology, linklayer, routing, transfer, simulation,
                scenario))
digests = {}
for name in sys.argv[2:]:
    sim = simulation.Simulation.from_source(name)
    sim.run()
    digests[name] = sim.trace.sha256()
print(json.dumps({"digests": digests, "merge_entries": tracer.merge_entries}))
"""


def test_every_span_target_resolves_to_a_callable():
    spans = load_bench_module("spans")
    table = spans._wrap_table((engine, topology, linklayer, routing,
                               transfer, simulation, scenario))
    assert table
    missing = [(name, attr) for name, owner, attr, _ in table
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_runs_keep_the_untraced_digests():
    # the wrappers call through positionally, so a changed signature shows
    # only when wrapped code runs; a child process keeps them out of the
    # other tests, and -B writes no bytecode next to bench/
    names = ["chain4", "mobility_break"]
    untraced = {}
    for name in names:
        sim = simulation.Simulation.from_source(name)
        sim.run()
        untraced[name] = sim.trace.sha256()
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN, str(SPANS), *names],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["digests"] == untraced
    assert out["merge_entries"] > 0
