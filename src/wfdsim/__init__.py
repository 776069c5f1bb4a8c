"""wfdsim: deterministic discrete-event simulation of Wi-Fi Direct group
networking with a multi-hop distance-vector routing layer on top."""

from .engine import (Engine, EventClass, MS, SECOND, RandomSource,
                     Trace, uniform_duration)
from .linklayer import (BROADCAST, BridgingPolicy, DeviceState, Frame, Group,
                        LinkConfig, LinkLayer, ForbiddenByRoleError,
                        NotInGroupError, OutOfRangeError, InvalidStateError,
                        BridgingDisabledError)
from .routing import (INFINITE_HOPS, NoRouteError, Packet, RoutingAgent,
                      RoutingConfig, RoutingTable, TableAdvert,
                      TrafficClass, merge_advert, select_route)
from .scenario import (Scenario, ScenarioError, SimSettings, load_scenario)
from .simulation import Simulation
from .summary import Summary, build_summary
from .topology import Position, RadioProfile, Topology, UnknownNodeError
from .transfer import (DeliveryOutcome, DeliveryReport, RoleConflictError,
                       TransferLayer)

__version__ = "0.1.0"
