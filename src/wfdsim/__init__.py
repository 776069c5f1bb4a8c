"""wfdsim: deterministic discrete-event simulation of Wi-Fi Direct group
networking with a multi-hop distance-vector routing layer on top."""

from .engine import (Engine, EventClass, MS, SECOND, RandomSource,
                     Trace, TraceRecord, uniform_duration)
from .linklayer import (BROADCAST, BridgingPolicy, DeviceState, Frame,
                        GoNegotiationParams, Group, LinkConfig, LinkLayer,
                        ForbiddenByRoleError, NotInGroupError,
                        OutOfRangeError, InvalidStateError,
                        BridgingDisabledError)
from .routing import (INFINITE_HOPS, NoLinkError, NoRouteError, Packet,
                      RoutingAgent, RoutingConfig, RoutingEntry, RoutingTable,
                      TableAdvert, TrafficClass, merge_advert, select_route)
from .scenario import (Scenario, ScenarioError, SimSettings, load_scenario)
from .simulation import Simulation
from .summary import Summary, build_summary, parse_trace_line
from .topology import Position, RadioProfile, Topology, UnknownNodeError
from .transfer import (Connection, ConnectionState, DeliveryOutcome,
                       DeliveryReport, RoleConflictError, StubTransport,
                       TransferLayer, TransportId, TransportRegistry,
                       UnsupportedTransportError, WifiDirectSimTransport)

__version__ = "0.1.0"
