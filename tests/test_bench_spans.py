"""The traced benchmark run wraps named wfdsim entry points from outside
(`bench/spans.py`).  A rename or removal in `src/` would otherwise break
the per-layer split only when that run is made."""

from wfdsim import (engine, linklayer, routing, scenario, simulation,
                    topology, transfer)

from conftest import load_bench_module


def test_every_span_target_resolves_to_a_callable():
    spans = load_bench_module("spans")
    table = spans._wrap_table((engine, topology, linklayer, routing,
                               transfer, simulation, scenario))
    assert table
    missing = [(name, attr) for name, owner, attr, _ in table
               if not callable(getattr(owner, attr, None))]
    assert missing == []
