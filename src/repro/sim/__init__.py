"""Deterministic discrete-event simulation substrate."""

from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.network import Network, wire_size
from repro.sim.process import SimRuntime
from repro.sim.trace import ViewChangeEventLog, ViewTrace

__all__ = [
    "endpoint_for",
    "Engine",
    "Network",
    "wire_size",
    "SimRuntime",
    "ViewChangeEventLog",
    "ViewTrace",
]
