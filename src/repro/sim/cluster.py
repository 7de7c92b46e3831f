"""Deterministic addresses for simulated processes.

The harness that builds and drives simulated deployments is
:class:`repro.experiments.harness.Harness`.
"""

from __future__ import annotations

from repro.core.node_id import Endpoint

__all__ = ["endpoint_for"]


def endpoint_for(index: int, port: int = 5000) -> Endpoint:
    """Deterministic address for the ``index``-th simulated process."""
    return Endpoint(host=f"10.{index >> 16 & 255}.{index >> 8 & 255}.{index & 255}", port=port)
