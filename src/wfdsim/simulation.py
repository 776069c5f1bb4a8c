"""Builds a runnable simulation out of a scenario and drives it.

One Simulation owns one Engine and everything scheduled against it; nothing
is global, so independent simulations can run side by side.  Script
directives whose preconditions are not yet met (a bridge before both groups
exist, a join before the owner is up, a connect while an end is busy)
retry every 500 ms until they apply or the run ends.  The transfer layer's
`end_connect` writes the record of a directive that gives up or is refused.
"""

from __future__ import annotations

from .engine import MS, Engine, EventClass, NodeId
from .linklayer import (DeviceState, LinkError, LinkLayer, InvalidStateError)
from .routing import RoutingAgent
from .scenario import Scenario, ScriptDirective, load_scenario
from .summary import Summary, build_summary
from .topology import Topology
from .transfer import TransferLayer

DIRECTIVE_RETRY_US = 500 * MS


class Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        sim = scenario.sim
        self.engine = Engine(sim.seed)
        self.topology = Topology()
        for spec in scenario.nodes:
            self.topology.add_node(spec.id, spec.pos, spec.radio)
        self.linklayer = LinkLayer(self.engine, self.topology, sim.link)
        self.transfer = TransferLayer(self.engine, self.linklayer)
        self.agents = self.transfer.agents
        for spec in scenario.nodes:
            self.linklayer.register_node(spec.id, spec.go_intent, spec.channel)
            self.transfer.attach_agent(RoutingAgent(
                spec.id, self.engine, spec.energy_cost, sim.routing))

        self._advert_period_us = sim.routing.advert_period_us
        call_later = self.engine.call_later
        for node in sorted(self.agents):
            call_later(self._advert_period_us, self._advert_tick, node)
        for directive in scenario.script:
            call_later(directive.at_us, self._run_directive, directive)
        for step in scenario.mobility:
            call_later(step.at_us, self.topology.apply_move, step.node,
                       step.pos)
        for flow in scenario.traffic:
            call_later(flow.at_us, self.transfer.app_send, flow.src, flow.dst,
                       flow.payload_bits, flow.traffic_class)

    @classmethod
    def from_source(cls, source) -> "Simulation":
        return cls(load_scenario(source))

    # ------------------------------------------------------------------
    # scheduled work

    def _advert_tick(self, node: NodeId) -> None:
        self.engine.call_later(self._advert_period_us, self._advert_tick,
                               node)
        self.agents[node].advert_tick()

    def _run_directive(self, directive: ScriptDirective) -> None:
        ll, node, peer = self.linklayer, directive.initiator, directive.peer
        owners = {"join": (peer,), "bridge": (node, peer)}.get(
            directive.action, ())
        try:
            if any(ll.state(n) is not DeviceState.GROUP_OWNER for n in owners):
                raise InvalidStateError(f"{directive.action} waits for owners")
            self.transfer.connect(node, peer)
        except InvalidStateError:
            if self.engine.now() + DIRECTIVE_RETRY_US \
                    <= self.scenario.sim.duration_us:
                self.engine.log(node, EventClass.CONNECT, action="retry",
                                peer=peer, what=directive.action)
                self.engine.call_later(DIRECTIVE_RETRY_US,
                                       self._run_directive, directive)
            else:
                self.transfer.end_connect(node, peer, "not_ready")
        except LinkError as exc:
            self.transfer.end_connect(node, peer, type(exc).__name__)

    # ------------------------------------------------------------------
    # running

    def run_until(self, t_us: int) -> int:
        return self.engine.run_until(t_us)

    def run(self) -> Summary:
        self.run_until(self.scenario.sim.duration_us)
        return self.summary()

    def summary(self) -> Summary:
        return build_summary(self.engine.trace)

    # ------------------------------------------------------------------
    # conveniences for tests and callers

    @property
    def trace(self):
        return self.engine.trace

    def agent(self, node: NodeId) -> RoutingAgent:
        return self.agents[node]

    def table(self, node: NodeId):
        return self.agents[node].table
