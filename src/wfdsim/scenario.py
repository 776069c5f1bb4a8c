"""Scenario files: the declarative description of a run.

A scenario is a YAML document with five sections: ``sim`` (seed, duration
and timing knobs), ``nodes`` (positions, radio profile, GO intent, relay
energy cost), ``script`` (timed connect/join/bridge directives), ``mobility``
(timed waypoint moves) and ``traffic`` (timed application sends).  Parsing is
strict: unknown keys anywhere are an error, numbers must be finite and may
not be booleans, the periods ``advert_period_ms``, ``keepalive_ms`` and
``find_max_ms`` must be at least 1 µs, and every cross-reference is
validated with a message naming the offending entry.

Each setting lives in the config object of the layer that reads it, and
that dataclass holds its default: ``LinkConfig`` (discovery, negotiation,
keepalive and bridging), ``RoutingConfig`` (advert period, full dumps, TTL)
and ``RadioProfile`` (range, data rate, MAC latency).  The scenario holds
those objects; ``_SIM_FIELDS`` and ``_NODE_FIELDS`` map each file key to
its object and field.

Times in the file are milliseconds; everything becomes integer microseconds
on load.  ``auto_chain: true`` replaces the script section with generated
directives that pair the nodes in file order into two-node groups and then
bridges consecutive group owners.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources

import yaml

from .engine import MS, SECOND
from .linklayer import SOCIAL_CHANNELS, BridgingPolicy, LinkConfig
from .routing import RoutingConfig, TrafficClass
from .topology import Position, RadioProfile


class ScenarioError(ValueError):
    pass


_ID_RE = re.compile(r"^[A-Za-z0-9_\-]+$")

_SCRIPT_KEYS = {"at_ms", "action", "from", "to"}
_MOBILITY_KEYS = {"at_ms", "node", "pos"}
_TRAFFIC_KEYS = {"at_ms", "src", "dst", "payload_bits", "class"}
_ACTIONS = ("connect", "join", "bridge")


@dataclass
class SimSettings:
    """Run-wide settings: seed and duration, plus the link layer's and the
    routing layer's own config objects, which hold every timing default."""
    seed: int = 1
    duration_us: int = 30 * SECOND
    link: LinkConfig = field(default_factory=LinkConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)


@dataclass
class NodeSpec:
    """One node: where it starts, its radio, and its link and routing
    parameters.  Radio defaults live in ``RadioProfile``."""
    id: str
    pos: Position
    radio: RadioProfile = field(default_factory=RadioProfile)
    go_intent: int = 7
    energy_cost: float = 1.0
    channel: int | None = None


@dataclass
class ScriptDirective:
    at_us: int
    action: str
    initiator: str
    peer: str


@dataclass
class MobilityStep:
    at_us: int
    node: str
    pos: Position


@dataclass
class TrafficSpec:
    at_us: int
    src: str
    dst: str
    payload_bits: int
    traffic_class: TrafficClass


@dataclass
class Scenario:
    sim: SimSettings
    nodes: list[NodeSpec]
    script: list[ScriptDirective] = field(default_factory=list)
    mobility: list[MobilityStep] = field(default_factory=list)
    traffic: list[TrafficSpec] = field(default_factory=list)

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]


def bundled_scenario_path(name: str):
    """Resolve a bundled scenario name (e.g. 'chain4') to its file path."""
    resource = resources.files("wfdsim").joinpath(f"scenarios/{name}.yaml")
    if not resource.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return resource


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a path, a bundled name, or a
    pre-parsed mapping."""
    if isinstance(source, dict):
        raw = source
    else:
        text = _read(source)
        raw = yaml.safe_load(text)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    return _validate(raw)


def _read(source) -> str:
    path = str(source)
    if _ID_RE.match(path) and "." not in path:
        return bundled_scenario_path(path).read_text(encoding="utf-8")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    names = ", ".join(sorted(map(str, unknown)))
    _require(not unknown, f"unknown field(s) in {where}: {names}")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _rule(test, must: str, convert=None):
    """A parser for one file key: the value if test(value) holds, else a
    ScenarioError that names the entry and the key."""
    def parse(value, where: str, key: str):
        _require(test(value), f"{where}: {key} must {must}")
        return value if convert is None else convert(value)
    return parse


def _ms(value, where: str, key: str) -> int:
    """A non-negative number of milliseconds, as integer microseconds."""
    _require(_integer(value) or _number(value) and math.isfinite(value * MS),
             f"{where}: {key} must be a number of milliseconds")
    us = int(round(value * MS))
    _require(us >= 0, f"{where}: {key} must be non-negative")
    return us


def _period_ms(value, where: str, key: str) -> int:
    """A period of at least 1 µs: work that reschedules itself after zero
    time would never let the clock advance."""
    us = _ms(value, where, key)
    _require(us > 0, f"{where}: {key} must be positive")
    return us


def _bridging(value, where: str, key: str) -> BridgingPolicy:
    try:
        return BridgingPolicy(value)
    except ValueError:
        raise ScenarioError(f"{where}: {key} must be one of "
                            f"{[p.value for p in BridgingPolicy]}")


_POSITIVE_INT = _rule(lambda v: _integer(v) and v > 0, "be a positive integer")

# file key -> (object, field, parser).  "sim" is SimSettings itself; keys
# are parsed in this order, so the first of several errors is the one raised.
_SIM_FIELDS = {
    "seed": ("sim", "seed", _rule(_integer, "be an integer")),
    "duration_ms": ("sim", "duration_us", _ms),
    "advert_period_ms": ("routing", "advert_period_us", _period_ms),
    "scan_ms": ("link", "scan_us", _ms),
    "find_min_ms": ("link", "find_min_us", _ms),
    "find_max_ms": ("link", "find_max_us", _period_ms),
    "discovery_timeout_ms": ("link", "discovery_timeout_us", _ms),
    "wps_ms": ("link", "wps_us", _ms),
    "keepalive_ms": ("link", "keepalive_us", _period_ms),
    "overlap_min_ms": ("link", "overlap_min_us", _ms),
    "full_dump_every": ("routing", "full_dump_every", _POSITIVE_INT),
    "ttl": ("routing", "default_ttl", _POSITIVE_INT),
    "keepalive_miss_limit": ("link", "keepalive_miss_limit", _POSITIVE_INT),
    "bridging": ("link", "bridging", _bridging),
}
# "node" is NodeSpec itself; id and pos are parsed first, by hand
_NODE_FIELDS = {
    "range_m": ("radio", "range_m",
                _rule(lambda v: _number(v) and v > 0, "be positive", float)),
    "data_rate_bps": ("radio", "data_rate_bps", _POSITIVE_INT),
    "mac_latency_ms": ("radio", "per_hop_mac_latency_us", _ms),
    "go_intent": ("node", "go_intent",
                  _rule(lambda v: _integer(v) and 0 <= v <= 15,
                        "be an integer in 0..15")),
    "energy_cost": ("node", "energy_cost",
                    _rule(lambda v: _number(v) and v >= 0, "be non-negative",
                          float)),
    "channel": ("node", "channel",
                _rule(lambda v: v is None or not isinstance(v, bool)
                      and v in SOCIAL_CHANNELS,
                      f"be one of {SOCIAL_CHANNELS}")),
}


def _parse_fields(raw: dict, table: dict, where: str) -> dict[str, dict]:
    """{object: {field: parsed value}} for the table's keys present in raw."""
    values: dict[str, dict] = defaultdict(dict)
    for key, (obj, attr, parse) in table.items():
        if key in raw:
            values[obj][attr] = parse(raw[key], where, key)
    return values


def _validate(raw: dict) -> Scenario:
    _check_keys(raw, {"sim", "nodes", "script", "mobility", "traffic",
                      "auto_chain"}, "scenario")
    sim = _validate_sim(raw.get("sim") or {})
    nodes = _validate_nodes(raw.get("nodes"))
    ids = {n.id for n in nodes}

    auto_chain = raw.get("auto_chain", False)
    _require(isinstance(auto_chain, bool), "auto_chain must be a boolean")
    if auto_chain:
        _require(not raw.get("script"),
                 "auto_chain and an explicit script are mutually exclusive")
        script = _generate_chain_script(nodes)
    else:
        script = _validate_script(raw.get("script") or [], ids, sim)

    mobility = _validate_mobility(raw.get("mobility") or [], ids, sim)
    traffic = _validate_traffic(raw.get("traffic") or [], ids, sim)
    return Scenario(sim, nodes, script, mobility, traffic)


def _validate_sim(raw: dict) -> SimSettings:
    _require(isinstance(raw, dict), "sim section must be a mapping")
    _check_keys(raw, _SIM_FIELDS, "sim")
    values = _parse_fields(raw, _SIM_FIELDS, "sim")
    settings = SimSettings(link=LinkConfig(**values["link"]),
                           routing=RoutingConfig(**values["routing"]),
                           **values["sim"])
    _require(settings.link.find_min_us <= settings.link.find_max_us,
             "sim: find_min_ms must not exceed find_max_ms")
    _require(settings.duration_us > 0, "sim: duration_ms must be positive")
    return settings


def _validate_pos(value, where: str) -> Position:
    _require(isinstance(value, (list, tuple)) and len(value) == 2
             and all(_number(c) for c in value),
             f"{where}: pos must be [x, y] in meters")
    try:
        return Position(float(value[0]), float(value[1]))
    except (ValueError, OverflowError):
        raise ScenarioError(f"{where}: pos must be finite")


def _validate_nodes(raw) -> list[NodeSpec]:
    _require(isinstance(raw, list) and raw,
             "scenario needs a non-empty nodes list")
    nodes: list[NodeSpec] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        where = f"nodes[{i}]"
        _require(isinstance(entry, dict), f"{where} must be a mapping")
        _check_keys(entry, {"id", "pos", *_NODE_FIELDS}, where)
        node_id = entry.get("id")
        _require(isinstance(node_id, str) and _ID_RE.match(node_id),
                 f"{where}: id must match {_ID_RE.pattern}")
        _require(node_id not in seen, f"duplicate node id {node_id!r}")
        seen.add(node_id)
        pos = _validate_pos(entry.get("pos"), where)
        values = _parse_fields(entry, _NODE_FIELDS, where)
        nodes.append(NodeSpec(node_id, pos, RadioProfile(**values["radio"]),
                              **values["node"]))
    return nodes


def _validate_at(entry: dict, sim: SimSettings, where: str) -> int:
    at_us = _ms(entry["at_ms"], where, "at_ms") if "at_ms" in entry else -1
    _require(0 <= at_us <= sim.duration_us,
             f"{where}: at_ms must lie within the simulation duration")
    return at_us


def _validate_script(raw, ids: set[str],
                     sim: SimSettings) -> list[ScriptDirective]:
    _require(isinstance(raw, list), "script section must be a list")
    script = []
    for i, entry in enumerate(raw):
        where = f"script[{i}]"
        _require(isinstance(entry, dict), f"{where} must be a mapping")
        _check_keys(entry, _SCRIPT_KEYS, where)
        action = entry.get("action")
        _require(action in _ACTIONS,
                 f"{where}: action must be one of {_ACTIONS}")
        initiator, peer = entry.get("from"), entry.get("to")
        for label, node in (("from", initiator), ("to", peer)):
            _require(node in ids, f"{where}: {label} references unknown "
                                  f"node {node!r}")
        _require(initiator != peer, f"{where}: from and to must differ")
        script.append(ScriptDirective(_validate_at(entry, sim, where),
                                      action, initiator, peer))
    return script


def _validate_mobility(raw, ids: set[str],
                       sim: SimSettings) -> list[MobilityStep]:
    _require(isinstance(raw, list), "mobility section must be a list")
    steps = []
    for i, entry in enumerate(raw):
        where = f"mobility[{i}]"
        _require(isinstance(entry, dict), f"{where} must be a mapping")
        _check_keys(entry, _MOBILITY_KEYS, where)
        node = entry.get("node")
        _require(node in ids, f"{where}: node references unknown node {node!r}")
        steps.append(MobilityStep(_validate_at(entry, sim, where), node,
                                  _validate_pos(entry.get("pos"), where)))
    return steps


def _validate_traffic(raw, ids: set[str],
                      sim: SimSettings) -> list[TrafficSpec]:
    _require(isinstance(raw, list), "traffic section must be a list")
    flows = []
    for i, entry in enumerate(raw):
        where = f"traffic[{i}]"
        _require(isinstance(entry, dict), f"{where} must be a mapping")
        _check_keys(entry, _TRAFFIC_KEYS, where)
        for label in ("src", "dst"):
            _require(entry.get(label) in ids,
                     f"{where}: {label} references unknown node "
                     f"{entry.get(label)!r}")
        bits = entry.get("payload_bits", 0)
        _require(_integer(bits) and bits >= 0,
                 f"{where}: payload_bits must be >= 0")
        cls_name = entry.get("class", "REAL_TIME")
        try:
            cls = TrafficClass(cls_name)
        except ValueError:
            raise ScenarioError(
                f"{where}: class must be one of "
                f"{[c.value for c in TrafficClass]}")
        flows.append(TrafficSpec(_validate_at(entry, sim, where),
                                 entry["src"], entry["dst"], bits, cls))
    return flows


def _generate_chain_script(nodes: list[NodeSpec]) -> list[ScriptDirective]:
    _require(len(nodes) >= 2 and len(nodes) % 2 == 0,
             "auto_chain needs an even number of nodes (pairs become groups)")
    script = []
    owners = []
    for i in range(0, len(nodes), 2):
        a, b = nodes[i], nodes[i + 1]
        _require(a.go_intent != b.go_intent,
                 f"auto_chain: nodes {a.id} and {b.id} need distinct "
                 f"go_intent so the group owner is determined")
        script.append(ScriptDirective(0, "connect", a.id, b.id))
        owners.append(a if a.go_intent > b.go_intent else b)
    for i, (left, right) in enumerate(zip(owners, owners[1:])):
        script.append(ScriptDirective((3 + i) * SECOND, "bridge",
                                      left.id, right.id))
    return script
