"""repro — a reproduction of "Stable and Consistent Membership at Scale
with Rapid" (Suresh et al., USENIX ATC 2018).

Public API
----------
The primary entry points re-exported here:

* :class:`~repro.core.membership.RapidNode` — a decentralized membership
  service node (monitoring overlay + multi-process cut detection +
  leaderless view-change consensus);
* :class:`~repro.core.centralized.EnsembleNode` /
  :class:`~repro.core.centralized.CentralizedClusterNode` — the logically
  centralized ("Rapid-C") deployment mode;
* :class:`~repro.core.settings.RapidSettings` — protocol parameters
  (``K``, ``H``, ``L``, detector knobs, consensus timeouts);
* :class:`~repro.core.node_id.Endpoint` — process addresses;
* :class:`~repro.core.events.ViewChangeEvent` — the view-change callback
  payload.

Simulated deployments of every system are built with
:func:`repro.experiments.harness.harness_for`.

See ``README.md`` for a quickstart and ``DESIGN.md`` for the system map.
"""

from repro.core.configuration import Configuration
from repro.core.events import NodeStatus, ViewChangeEvent
from repro.core.membership import RapidNode
from repro.core.centralized import CentralizedClusterNode, EnsembleNode
from repro.core.node_id import Endpoint, NodeId
from repro.core.settings import BroadcastMode, RapidSettings

__version__ = "1.0.0"

__all__ = [
    "Configuration",
    "NodeStatus",
    "ViewChangeEvent",
    "RapidNode",
    "CentralizedClusterNode",
    "EnsembleNode",
    "Endpoint",
    "NodeId",
    "BroadcastMode",
    "RapidSettings",
    "__version__",
]
