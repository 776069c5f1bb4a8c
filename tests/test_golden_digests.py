"""Golden trace digests: the bundled scenarios must keep producing the exact
same trace bytes.  A refactor that is meant to keep behaviour unchanged
shows it here; a deliberate behaviour change updates these digests and
says why."""

import pytest

from wfdsim.simulation import Simulation

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
