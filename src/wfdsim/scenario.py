"""Scenario files: the declarative description of a run.

A scenario is a YAML document with five sections: ``sim`` (seed, duration
and timing knobs), ``nodes`` (positions, radio profile, GO intent, relay
energy cost), ``script`` (timed connect/join/bridge directives), ``mobility``
(timed waypoint moves) and ``traffic`` (timed application sends).  Parsing is
strict: unknown keys anywhere are an error, numbers must be finite and may
not be booleans, the periods ``advert_period_ms``, ``keepalive_ms`` and
``find_max_ms`` must be at least 1 µs, and every cross-reference is
validated with a message naming the offending entry.  One entry loop,
``_entries``, checks the four list sections and their entries' keys.  A
file that is not UTF-8 or not YAML is a one-line ``ScenarioError`` too.
The same rules apply to a mapping passed to ``load_scenario`` in place of
a file; it is validated without importing the YAML parser, so a run built
from a mapping never pays for that import.

Each setting lives in the config object of the layer that reads it, and
that config object holds its default: ``LinkConfig`` (discovery, negotiation,
keepalive and bridging), ``RoutingConfig`` (advert period, full dumps, TTL)
and ``RadioProfile`` (range, data rate, MAC latency).  The scenario holds
those objects; ``_SIM_FIELDS`` and ``_NODE_FIELDS`` map each file key to
its object and field.

Times in the file are milliseconds; everything becomes integer microseconds
on load.
"""

from __future__ import annotations

import math
import os
import re
from collections import defaultdict
from functools import partial

from .engine import MS, SECOND
from .linklayer import SOCIAL_CHANNELS, BridgingPolicy, LinkConfig
from .record import Record
from .routing import RoutingConfig, TrafficClass
from .topology import Position, RadioProfile


class ScenarioError(ValueError):
    pass


_ID_RE = re.compile(r"^[A-Za-z0-9_\-]+$")

_SCRIPT_KEYS = {"at_ms", "action", "from", "to"}
_MOBILITY_KEYS = {"at_ms", "node", "pos"}
_TRAFFIC_KEYS = {"at_ms", "src", "dst", "payload_bits", "class"}
_ACTIONS = ("connect", "join", "bridge")


class SimSettings(Record):
    """Run-wide settings: seed and duration, plus the link layer's and the
    routing layer's own config objects, which hold every timing default."""

    __slots__ = ("seed", "duration_us", "link", "routing")

    def __init__(self, seed: int = 1, duration_us: int = 30 * SECOND,
                 link: LinkConfig | None = None,
                 routing: RoutingConfig | None = None):
        self.seed = seed
        self.duration_us = duration_us
        self.link = LinkConfig() if link is None else link
        self.routing = RoutingConfig() if routing is None else routing


class NodeSpec(Record):
    """One node: where it starts, its radio, and its link and routing
    parameters.  Radio defaults live in ``RadioProfile``."""

    __slots__ = ("id", "pos", "radio", "go_intent", "energy_cost", "channel")

    def __init__(self, id: str, pos: Position,
                 radio: RadioProfile | None = None, go_intent: int = 7,
                 energy_cost: float = 1.0, channel: int | None = None):
        self.id = id
        self.pos = pos
        self.radio = RadioProfile() if radio is None else radio
        self.go_intent = go_intent
        self.energy_cost = energy_cost
        self.channel = channel


class ScriptDirective(Record):
    __slots__ = ("at_us", "action", "initiator", "peer")

    def __init__(self, at_us: int, action: str, initiator: str, peer: str):
        self.at_us = at_us
        self.action = action
        self.initiator = initiator
        self.peer = peer


class MobilityStep(Record):
    __slots__ = ("at_us", "node", "pos")

    def __init__(self, at_us: int, node: str, pos: Position):
        self.at_us = at_us
        self.node = node
        self.pos = pos


class TrafficSpec(Record):
    __slots__ = ("at_us", "src", "dst", "payload_bits", "traffic_class")

    def __init__(self, at_us: int, src: str, dst: str, payload_bits: int,
                 traffic_class: TrafficClass):
        self.at_us = at_us
        self.src = src
        self.dst = dst
        self.payload_bits = payload_bits
        self.traffic_class = traffic_class


class Scenario(Record):
    __slots__ = ("sim", "nodes", "script", "mobility", "traffic")

    def __init__(self, sim: SimSettings, nodes: list[NodeSpec],
                 script: list[ScriptDirective] | None = None,
                 mobility: list[MobilityStep] | None = None,
                 traffic: list[TrafficSpec] | None = None):
        self.sim = sim
        self.nodes = nodes
        self.script = [] if script is None else script
        self.mobility = [] if mobility is None else mobility
        self.traffic = [] if traffic is None else traffic


def bundled_scenario_path(name: str):
    """Resolve a bundled scenario name (e.g. 'chain4') to its file path."""
    from importlib import resources  # only runs from a bundled name need it
    resource = resources.files("wfdsim").joinpath(f"scenarios/{name}.yaml")
    if not resource.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return resource


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a path, a bundled name, or a
    pre-parsed mapping; only text is handed to the YAML parser."""
    if isinstance(source, dict):
        raw = source
    else:
        import yaml
        try:
            raw = yaml.safe_load(_read(source))
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            # one line: where the parser stopped, if it marked it, and why
            mark = getattr(exc, "problem_mark", None)
            at = (f"line {mark.line + 1}, column {mark.column + 1}: "
                  if mark else "")
            problem = str(getattr(exc, "problem", None) or exc).split()
            raise ScenarioError(f"{source}: {at}{' '.join(problem)}") from None
        except RecursionError:  # the parser recurses once per nesting level
            raise ScenarioError(f"{source}: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    return _validate(raw)


def _read(source) -> str:
    """A scenario file's text; a bare name that is no file names a bundled
    scenario."""
    path = str(source)
    if _ID_RE.fullmatch(path) and not os.path.isfile(path):
        return bundled_scenario_path(path).read_text(encoding="utf-8")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")


def _check_keys(mapping: dict, allowed, where: str) -> None:
    """Reject keys not in `allowed`, a set or a dict's keys."""
    if not mapping.keys() <= allowed:
        names = ", ".join(sorted(map(str, mapping.keys() - allowed)))
        raise ScenarioError(f"unknown field(s) in {where}: {names}")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _rule(test, must: str, convert=None):
    """A parser for one file key: the value if test(value) holds, else a
    ScenarioError that names the entry and the key."""
    def parse(value, where: str, key: str):
        if not test(value):
            raise ScenarioError(f"{where}: {key} must {must}")
        return value if convert is None else convert(value)
    return parse


def _ms(value, where: str, key: str) -> int:
    """A non-negative number of milliseconds, as integer microseconds."""
    if not (_integer(value) or _number(value) and math.isfinite(value * MS)):
        raise ScenarioError(f"{where}: {key} must be a number of milliseconds")
    us = int(round(value * MS))
    if us < 0:
        raise ScenarioError(f"{where}: {key} must be non-negative")
    return us


def _period_ms(value, where: str, key: str) -> int:
    """A period of at least 1 µs: work that reschedules itself after zero
    time would never let the clock advance."""
    us = _ms(value, where, key)
    if us <= 0:
        raise ScenarioError(f"{where}: {key} must be positive")
    return us


def _enum(kind, value, where: str, key: str):
    """The member of the Enum `kind` whose value is `value`."""
    try:
        return kind(value)
    except ValueError:
        raise ScenarioError(f"{where}: {key} must be one of "
                            f"{[m.value for m in kind]}")


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
    "bridging": ("link", "bridging", partial(_enum, BridgingPolicy)),
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
_NODE_KEYS = {"id", "pos", *_NODE_FIELDS}
_SCENARIO_KEYS = {"sim", "nodes", "script", "mobility", "traffic"}


def _parse_fields(raw: dict, table: dict, where: str) -> dict[str, dict]:
    """{object: {field: parsed value}} for the table's keys present in raw."""
    values: dict[str, dict] = defaultdict(dict)
    for key, (obj, attr, parse) in table.items():
        if key in raw:
            values[obj][attr] = parse(raw[key], where, key)
    return values


def _validate(raw: dict) -> Scenario:
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    settings = raw.get("sim") or {}
    if not isinstance(settings, dict):
        raise ScenarioError("sim section must be a mapping")
    _check_keys(settings, _SIM_FIELDS.keys(), "sim")
    values = _parse_fields(settings, _SIM_FIELDS, "sim")
    sim = SimSettings(link=LinkConfig(**values["link"]),
                      routing=RoutingConfig(**values["routing"]),
                      **values["sim"])
    if sim.link.find_min_us > sim.link.find_max_us:
        raise ScenarioError("sim: find_min_ms must not exceed find_max_ms")
    if sim.duration_us <= 0:
        raise ScenarioError("sim: duration_ms must be positive")

    if not (isinstance(raw.get("nodes"), list) and raw["nodes"]):
        raise ScenarioError("scenario needs a non-empty nodes list")
    nodes: dict[str, NodeSpec] = {}
    for where, entry in _entries(raw, "nodes", _NODE_KEYS):
        node_id = entry.get("id")
        if not (isinstance(node_id, str) and _ID_RE.fullmatch(node_id)):
            raise ScenarioError(f"{where}: id must match {_ID_RE.pattern}")
        if node_id in nodes:
            raise ScenarioError(f"duplicate node id {node_id!r}")
        pos = _validate_pos(entry.get("pos"), where)
        values = _parse_fields(entry, _NODE_FIELDS, where)
        nodes[node_id] = NodeSpec(node_id, pos,
                                  RadioProfile(**values["radio"]),
                                  **values["node"])

    script = []
    for where, entry in _entries(raw, "script", _SCRIPT_KEYS):
        action = entry.get("action")
        if action not in _ACTIONS:
            raise ScenarioError(f"{where}: action must be one of {_ACTIONS}")
        initiator = _node(entry, "from", nodes, where)
        peer = _node(entry, "to", nodes, where)
        if initiator == peer:
            raise ScenarioError(f"{where}: from and to must differ")
        script.append(ScriptDirective(_validate_at(entry, sim, where),
                                      action, initiator, peer))

    mobility = []
    for where, entry in _entries(raw, "mobility", _MOBILITY_KEYS):
        node = _node(entry, "node", nodes, where)
        mobility.append(MobilityStep(_validate_at(entry, sim, where), node,
                                     _validate_pos(entry.get("pos"), where)))

    traffic = []
    for where, entry in _entries(raw, "traffic", _TRAFFIC_KEYS):
        src = _node(entry, "src", nodes, where)
        dst = _node(entry, "dst", nodes, where)
        bits = entry.get("payload_bits", 0)
        if not (_integer(bits) and bits >= 0):
            raise ScenarioError(f"{where}: payload_bits must be >= 0")
        cls = _enum(TrafficClass, entry.get("class", "REAL_TIME"), where,
                    "class")
        traffic.append(TrafficSpec(_validate_at(entry, sim, where), src, dst,
                                   bits, cls))
    return Scenario(sim, list(nodes.values()), script, mobility, traffic)


def _entries(raw: dict, section: str, keys):
    """(where, entry) for each entry of a list section of the document,
    once the entry is known to be a mapping with no key outside `keys`."""
    entries = raw.get(section) or []
    if not isinstance(entries, list):
        raise ScenarioError(f"{section} section must be a list")
    for i, entry in enumerate(entries):
        where = f"{section}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where} must be a mapping")
        _check_keys(entry, keys, where)
        yield where, entry


def _node(entry: dict, key: str, ids, where: str) -> str:
    """The node id under `key`, which must name a node in `ids`."""
    node = entry.get(key)
    if not (isinstance(node, str) and node in ids):
        raise ScenarioError(f"{where}: {key} references unknown node {node!r}")
    return node


def _validate_pos(value, where: str) -> Position:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_number(c) for c in value)):
        raise ScenarioError(f"{where}: pos must be [x, y] in meters")
    try:
        return Position(float(value[0]), float(value[1]))
    except (ValueError, OverflowError):
        raise ScenarioError(f"{where}: pos must be finite")


def _validate_at(entry: dict, sim: SimSettings, where: str) -> int:
    at_us = _ms(entry["at_ms"], where, "at_ms") if "at_ms" in entry else -1
    if not 0 <= at_us <= sim.duration_us:
        raise ScenarioError(
            f"{where}: at_ms must lie within the simulation duration")
    return at_us
