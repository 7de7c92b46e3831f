"""Shared scaffolding for baseline membership systems.

Each baseline (SWIM/Memberlist, ZooKeeper, Akka-like, all-to-all gossip FD)
implements :class:`MembershipAgent`: the minimal surface the experiment
harnesses and example applications need — a view of the cluster, a
view-change notification hook, and a per-second view-size report into a
:class:`~repro.sim.trace.ViewTrace`.  :class:`repro.core.membership.RapidNode`
is adapted to the same surface so experiments swap systems freely.
"""

from __future__ import annotations

from repro.runtime.base import Runtime
from repro.sim.trace import ViewTrace

__all__ = ["MembershipAgent", "ViewReporter"]


class MembershipAgent:
    """Minimal interface every membership system under test implements."""

    runtime: Runtime

    def start(self) -> None:
        raise NotImplementedError

    def view(self) -> tuple:
        """The membership set this agent currently believes in."""
        raise NotImplementedError

    @property
    def view_size(self) -> int:
        return len(self.view())


class ViewReporter:
    """Logs an agent's view size once per second into a shared trace.

    Mirrors the paper's experiment methodology: "Every process logs its own
    view of the cluster size every second."
    """

    def __init__(self, agent: MembershipAgent, trace: ViewTrace) -> None:
        self.agent = agent
        self.trace = trace

    def start(self) -> None:
        self.agent.runtime.schedule(1.0, self._tick)

    def _tick(self) -> None:
        size = self.agent.view_size
        if size > 0:
            self.trace.record(self.agent.runtime.addr, self.agent.runtime.now(), size)
        self.agent.runtime.schedule(1.0, self._tick)
