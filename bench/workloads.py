"""Range-aware scenario generators for the benchmark workloads.

Each generator takes the workload seed and returns a scenario as a plain
dict in the shape `wfdsim.load_scenario` accepts, so the scenario loader's
validation runs on every generated input.  The generators place nodes so
that every scripted pair is within radio range (the default 200 m disc)
and write explicit `script` directives instead of relying on
`auto_chain`, whose 150 m pairing only connects end to end at 4 nodes.

Traffic is an open loop in simulated time: every send is a timed entry in
the scenario's `traffic` section and fires at its scheduled time whatever
the simulator is doing.  Sends start once the routing tables have
converged.

This module imports nothing from wfdsim: generation is excluded from the
set-up time the benchmark measures.
"""

from __future__ import annotations

import math
import random

RANGE_M = 200.0
PAYLOADS = (512, 8000, 64000)
CLASSES = ("REAL_TIME", "BULK")
# bridges start once every group has formed, so their order and timing do
# not depend on how long the seeded discovery took
BRIDGE_MS = 6000


def _line(rng: random.Random, groups: int) -> tuple[list, list, list]:
    """2-node groups on a line at 60 m spacing: client `c<k>` at 120k m,
    owner `o<k>` 60 m to its right, so consecutive owners are 120 m apart
    and owners two groups apart (240 m) cannot hear each other.  Returns
    (nodes, owners, clients)."""
    nodes, owners, clients = [], [], []
    for k in range(groups):
        client = {"id": f"c{k}", "pos": [120 * k, 0],
                  "go_intent": rng.randrange(0, 7),
                  "energy_cost": rng.choice((0.5, 1.0, 1.5, 2.0))}
        owner = {"id": f"o{k}", "pos": [120 * k + 60, 0],
                 "go_intent": rng.randrange(8, 15),
                 "energy_cost": rng.choice((0.5, 1.0, 1.5, 2.0))}
        nodes += [client, owner]
        clients.append(client["id"])
        owners.append(owner["id"])
    return nodes, owners, clients


def _connects(rng: random.Random, clients: list, owners: list) -> list:
    # staggered within the first half second so discovery legs interleave
    return [{"at_ms": rng.randrange(0, 500), "action": "connect",
             "from": c, "to": o} for c, o in zip(clients, owners)]


def _bridge(at_ms: int, frm: str, to: str) -> dict:
    # a bridge retries every 500 ms until both ends own a group
    return {"at_ms": at_ms, "action": "bridge", "from": frm, "to": to}


def _flow(rng: random.Random, at_ms: int, src: str, dst: str) -> dict:
    return {"at_ms": at_ms, "src": src, "dst": dst,
            "payload_bits": rng.choice(PAYLOADS), "class": rng.choice(CLASSES)}


def _pairs(rng: random.Random, nodes: list, count: int) -> list:
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


def chain_long(seed: int) -> dict:
    """128 nodes as 64 two-node groups on a line, consecutive owners
    bridged, and 24 flows between the first and the last quarter of the
    line once the tables have converged.  Full dumps every 10th tick make
    advert work O(n^2) per period."""
    rng = random.Random(seed)
    nodes, owners, clients = _line(rng, 64)
    script = _connects(rng, clients, owners)
    script += [_bridge(BRIDGE_MS, a, b) for a, b in zip(owners, owners[1:])]
    traffic = []
    for i in range(24):
        src, dst = rng.choice(clients[:16]), rng.choice(clients[-16:])
        if i % 2:
            src, dst = dst, src
        traffic.append(_flow(rng, 76_000 + 250 * i + rng.randrange(250),
                             src, dst))
    return {"sim": {"seed": seed, "duration_ms": 84_000, "ttl": 96},
            "nodes": nodes, "script": script, "traffic": traffic}


def flows_many(seed: int) -> dict:
    """16 nodes (8 groups on the chain_long line) and 1,000 flows spread
    over the run after convergence, mixing both traffic classes and three
    payload sizes.  Delivery work dominates; routing adverts are small."""
    rng = random.Random(seed)
    nodes, owners, clients = _line(rng, 8)
    script = _connects(rng, clients, owners)
    script += [_bridge(BRIDGE_MS, a, b) for a, b in zip(owners, owners[1:])]
    ids = clients + owners
    start_ms, end_ms, count = 15_000, 55_000, 1000
    traffic = [_flow(rng, start_ms + (end_ms - start_ms) * i // count
                     + rng.randrange(40), src, dst)
               for i, (src, dst) in enumerate(_pairs(rng, ids, count))]
    return {"sim": {"seed": seed, "duration_ms": 60_000},
            "nodes": nodes, "script": script, "traffic": traffic}


ROWS, COLS, SPACING_M = 4, 6, 150
ROAM_COL = 0
DURATION_MS, ROAM_PERIOD_MS, FLOWS = 120_000, 20_000, 150


def churn_grid(seed: int) -> dict:
    """A 4x6 grid of 2-node groups, owners 150 m apart.  Each owner bridges
    to its right and lower neighbour, so equal-hop alternates exist and the
    BULK and REAL_TIME picks differ.  The clients of the left column
    periodically walk out of everyone's range, which gets them evicted;
    `o0_0`, into whose group nobody bridges, then dissolves its group.
    They walk back and reconnect to their owner (for `c0_0` that means
    discovery and negotiation again).  Owners never move: an owner that
    leaves range while its group re-forms makes `negotiate_go` raise out
    of the event loop.  Traffic runs between the nodes that never move."""
    rng = random.Random(seed)
    nodes, owner, client = [], {}, {}
    for r in range(ROWS):
        for c in range(COLS):
            ox, oy = SPACING_M * c, SPACING_M * r
            owner[r, c], client[r, c] = f"o{r}_{c}", f"c{r}_{c}"
            # relay costs follow the grid, not the seed, so that how much
            # routing work the alternates cause does not vary with the seed
            nodes.append({"id": owner[r, c], "pos": [ox, oy],
                          "go_intent": rng.randrange(8, 15),
                          "energy_cost": 0.5 + 0.5 * ((r + 2 * c) % 4)})
            nodes.append({"id": client[r, c], "pos": [ox + 40, oy + 40],
                          "go_intent": rng.randrange(0, 7),
                          "energy_cost": 1.0})
    cells = sorted(owner)
    script = _connects(rng, [client[k] for k in cells],
                       [owner[k] for k in cells])
    for r, c in cells:
        if c + 1 < COLS:
            script.append(_bridge(BRIDGE_MS, owner[r, c], owner[r, c + 1]))
        if r + 1 < ROWS:
            script.append(_bridge(BRIDGE_MS, owner[r, c], owner[r + 1, c]))

    mobility = []
    roamers = [client[r, ROAM_COL] for r in range(ROWS)]
    for r, node in enumerate(roamers):
        home = [SPACING_M * ROAM_COL + 40, SPACING_M * r + 40]
        t = 15_000 + 1000 * r + rng.randrange(0, 500)
        while t + 12_000 <= DURATION_MS:
            mobility.append({"at_ms": t, "node": node,
                             "pos": [-2000 - 300 * r, home[1]]})
            back = t + 6000 + rng.randrange(0, 200)
            mobility.append({"at_ms": back, "node": node, "pos": home})
            script.append({"at_ms": back + 500, "action": "connect",
                           "from": node, "to": owner[r, ROAM_COL]})
            t += ROAM_PERIOD_MS + rng.randrange(0, 500)

    ids = [n["id"] for n in nodes if n["id"] not in roamers]
    start_ms, end_ms = 15_000, DURATION_MS - 5000
    traffic = [_flow(rng, start_ms + (end_ms - start_ms) * i // FLOWS
                     + rng.randrange(100), src, dst)
               for i, (src, dst) in enumerate(_pairs(rng, ids, FLOWS))]
    return {"sim": {"seed": seed, "duration_ms": DURATION_MS},
            "nodes": nodes, "script": script, "mobility": mobility,
            "traffic": traffic}


def check_reach(scenario: dict) -> None:
    """Raise ValueError unless every scripted pair starts within radio
    range at its home position: the generators must be range-aware."""
    pos = {n["id"]: n["pos"] for n in scenario["nodes"]}
    for d in scenario["script"]:
        (ax, ay), (bx, by) = pos[d["from"]], pos[d["to"]]
        if math.hypot(ax - bx, ay - by) > RANGE_M:
            raise ValueError(f"scripted pair {d['from']}-{d['to']} is out "
                             f"of range")


GENERATORS = {"chain_long": chain_long, "flows_many": flows_many,
              "churn_grid": churn_grid}


def generate(name: str, seed: int) -> dict:
    """The scenario dict of one workload; the benchmark passes it through
    `load_scenario`, which validates it before anything runs."""
    scenario = GENERATORS[name](seed)
    check_reach(scenario)
    return scenario
