"""One harness that runs every membership system in the simulator.

:class:`Harness` owns the engine, network, metrics registry, view trace and
(for Rapid) the safety ledger, and builds every node through
:meth:`Harness.add_node`.  What differs between Rapid, Rapid-C,
Memberlist/SWIM, the gossip failure detector, ZooKeeper and Akka is only
how one node is constructed — a :class:`NodeFactory` in :data:`SYSTEMS`.
``bootstrap``, ``run_until_converged``, ``crash``, ``recover`` and
``live_endpoints`` are written once on top of it, so the experiment
scenarios (:mod:`repro.experiments.scenarios`) and the benchmark runner
(:mod:`repro.bench`) run the paper's comparisons with identical drivers.
:class:`repro.experiments.live.LiveHarness` is the same harness over real
UDP sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.baselines.akka import AkkaConfig, AkkaNode
from repro.baselines.common import ViewReporter
from repro.baselines.gossip_fd import GossipFdConfig, GossipFdNode
from repro.baselines.swim import SwimConfig, SwimNode
from repro.baselines.zookeeper import ZkClient, ZkConfig, build_ensemble
from repro.core.centralized import CentralizedClusterNode, EnsembleNode
from repro.core.events import NodeStatus
from repro.core.membership import RapidNode
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.obs.invariants import ViewLedger
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.process import SimRuntime
from repro.sim.trace import ViewChangeEventLog, ViewTrace

__all__ = ["Harness", "NodeFactory", "SYSTEMS", "harness_for"]


@dataclass(frozen=True)
class NodeFactory:
    """How the harness builds the nodes of one membership system."""

    #: Configuration dataclass of the system (``RapidSettings`` for Rapid).
    config_cls: type
    #: ``(harness, runtime, seeds) -> node``; the node is not yet started.
    build: Callable
    #: ``(node, size) -> bool``: whether the node's view holds ``size``.
    at_size: Callable
    #: ``harness -> endpoints``: builds the system's ensemble or server
    #: nodes before any member; their endpoints become ``harness.servers``.
    setup: Optional[Callable] = None
    #: ``None`` when views are opaque (no config ids), so no
    #: :class:`~repro.obs.invariants.ViewLedger` applies; otherwise the
    #: ledger's ``allow_member_gaps`` (Rapid-C's pushes skip views).
    ledger_gaps: Optional[bool] = None


class Harness:
    """A simulated deployment of one membership system."""

    def __init__(
        self,
        system: str,
        seed: int = 0,
        config=None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.factory = factory = SYSTEMS[system]
        self.seed = seed
        self.config = config if config is not None else factory.config_cls()
        self.metrics = MetricsRegistry()
        self.engine, self.network = self._substrate(latency)
        self.trace = ViewTrace()
        #: Safety-invariant monitor fed by every Rapid node's view
        #: installs (see :mod:`repro.obs.invariants`); checks run as the
        #: cluster reconfigures.  Baselines report opaque views: ``None``.
        self.ledger = None
        self.event_log = None
        if factory.ledger_gaps is not None:
            self.ledger = ViewLedger(seed=seed, allow_member_gaps=factory.ledger_gaps)
            self.event_log = ViewChangeEventLog(ledger=self.ledger)
        #: Member nodes by endpoint; ensemble/server nodes are not members.
        self.agents: dict = {}
        #: Runtimes of every node, ensemble/server nodes included.
        self.runtimes: dict = {}
        self.endpoints: list[Endpoint] = []
        self.servers: tuple = factory.setup(self) if factory.setup else ()

    @property
    def cluster(self) -> "Harness":
        # rapidbench/workloads.py calls ``h.cluster.add_node`` and reads
        # ``h.cluster.event_log``; that code changes only together with
        # the benchmark's recorded baselines, so the alias stays until then.
        return self

    # ------------------------------------------------------------- plumbing

    def _substrate(self, latency: Optional[LatencyModel]) -> tuple:
        engine = Engine(metrics=self.metrics)
        return engine, Network(engine, seed=self.seed, latency=latency, metrics=self.metrics)

    def _addresses(self, n: int) -> list:
        return [endpoint_for(i) for i in range(n)]

    def _runtime(self, endpoint: Endpoint):
        runtime = SimRuntime(self.engine, self.network, endpoint, seed=self.seed)
        self.runtimes[endpoint] = runtime
        return runtime

    # ---------------------------------------------------------------- nodes

    def add_node(
        self,
        endpoint: Endpoint,
        seeds: Iterable[Endpoint] = (),
        start_at: Optional[float] = None,
    ):
        """Build a node; it starts immediately or at time ``start_at``.

        Adding a node does not touch :attr:`endpoints` (the bootstrap
        list): callers that join late nodes extend that list themselves.
        """
        node = self.factory.build(self, self._runtime(endpoint), tuple(seeds))
        self.agents[endpoint] = node
        if start_at is None:
            node.start()
        else:
            self.engine.schedule_at(start_at, node.start)
        return node

    def bootstrap(self, n: int, seed_delay: float = 10.0, stagger: float = 0.0) -> list:
        """Start a seed process, then ``n - 1`` joiners after ``seed_delay``.

        Mirrors the paper's bootstrap experiments: "we start each experiment
        with a single seed process, and after ten seconds, spawn a
        subsequent group of N-1 processes".  ``stagger`` spreads the joiner
        start times uniformly over that many seconds, drawn from
        ``network.rng_for("bootstrap", "stagger")``; the live wire derives
        that stream under its own ``live`` scope, so a live run and a sim
        run of one seed draw different offsets.
        """
        self.endpoints = self._addresses(n)
        seeds = tuple(self.endpoints[:1])
        rng = self.network.rng_for("bootstrap", "stagger")
        for i, ep in enumerate(self.endpoints):
            start_at = None
            if i:
                start_at = seed_delay + (rng.random() * stagger if stagger else 0.0)
            self.add_node(ep, seeds=seeds, start_at=start_at)
        return self.endpoints

    # -------------------------------------------------------------- driving

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.engine.run_for(duration)

    def run_until_converged(
        self, size: int, timeout: float = 600.0, check_interval: float = 1.0
    ) -> Optional[float]:
        """Advance time until :meth:`converged`; the time, or None on timeout."""
        deadline = self.engine.now + timeout
        while self.engine.now < deadline:
            self.engine.run(until=min(self.engine.now + check_interval, deadline))
            if self.converged(size):
                return self.engine.now
        return None

    def converged(self, size: int) -> bool:
        """True when every live member's view holds ``size`` members."""
        # Single pass, no intermediate lists: run_until_converged polls
        # this every virtual second, which at n=1000 adds up.
        runtimes = self.runtimes
        at_size = self.factory.at_size
        found = False
        for ep, node in self.agents.items():
            if runtimes[ep].crashed:
                continue
            found = True
            if not at_size(node, size):
                return False
        return found

    # --------------------------------------------------------------- faults

    def crash(self, endpoints: Iterable[Endpoint]) -> None:
        """Fail-stop the given processes immediately."""
        for ep in endpoints:
            self.runtimes[ep].crash()

    def recover(self, endpoints: Iterable[Endpoint]) -> None:
        """Un-crash the given processes (state intact).

        Periodic timers whose reschedule was skipped while crashed stay
        dead, so a fail-stopped Rapid node does not resume protocol
        participation — use network-level crash/recover
        (:meth:`Network.crash`/``recover``) for flip-flopping processes
        that must come back talking.
        """
        for ep in endpoints:
            self.runtimes[ep].recover()

    # -------------------------------------------------------------- queries

    def live_endpoints(self) -> list:
        """Endpoints of members that are not crashed."""
        return [ep for ep in self.agents if not self.runtimes[ep].crashed]

    def distinct_views(self) -> set:
        """Distinct config ids installed across live ACTIVE Rapid members."""
        return {
            node.config.config_id
            for ep, node in self.agents.items()
            if not self.runtimes[ep].crashed
            and node.status == NodeStatus.ACTIVE
            and node.config is not None
        }


# ------------------------------------------------------------ node factories


def _rapid_at_size(node, size: int) -> bool:
    return node.status == NodeStatus.ACTIVE and node.size == size


def _view_at_size(agent, size: int) -> bool:
    return len(agent.view()) == size


def _rapid_node(h: Harness, runtime, seeds: tuple):
    return RapidNode(
        runtime,
        h.config,
        seeds=seeds,
        view_trace=h.trace,
        event_log=h.event_log,
        metrics=h.metrics,
    )


def _rapid_c_ensemble(h: Harness) -> tuple:
    ensemble = tuple(Endpoint(host=f"10.255.255.{i + 1}", port=9000) for i in range(3))
    for ep in ensemble:
        EnsembleNode(h._runtime(ep), ensemble, h.config)
    return ensemble


def _rapid_c_node(h: Harness, runtime, seeds: tuple):
    return CentralizedClusterNode(
        runtime,
        h.servers,
        h.config,
        view_trace=h.trace,
        event_log=h.event_log,
        metrics=h.metrics,
    )


def _reported(h: Harness, agent):
    """Baselines log their view size once per second, as the paper's do."""
    ViewReporter(agent, h.trace).start()
    return agent


def _swim_node(h: Harness, runtime, seeds: tuple):
    others = tuple(s for s in seeds if s != runtime.addr)
    return _reported(h, SwimNode(runtime, seeds=others, config=h.config))


def _akka_node(h: Harness, runtime, seeds: tuple):
    others = tuple(s for s in seeds if s != runtime.addr)
    return _reported(h, AkkaNode(runtime, seeds=others, config=h.config))


def _gossip_fd_node(h: Harness, runtime, seeds: tuple):
    # No join protocol: every agent knows the bootstrap membership from
    # construction, so what the harness measures is view stability.
    return _reported(h, GossipFdNode(runtime, members=h.endpoints, config=h.config))


def _zk_servers(h: Harness) -> tuple:
    servers = tuple(Endpoint(f"10.255.254.{i + 1}", 2181) for i in range(3))
    build_ensemble([h._runtime(ep) for ep in servers], h.config)
    return servers


def _zk_client(h: Harness, runtime, seeds: tuple):
    return _reported(h, ZkClient(runtime, h.servers, h.config))


SYSTEMS = {
    "rapid": NodeFactory(RapidSettings, _rapid_node, _rapid_at_size, ledger_gaps=False),
    "rapid-c": NodeFactory(
        RapidSettings, _rapid_c_node, _rapid_at_size, _rapid_c_ensemble, ledger_gaps=True
    ),
    "memberlist": NodeFactory(SwimConfig, _swim_node, _view_at_size),
    "gossip-fd": NodeFactory(GossipFdConfig, _gossip_fd_node, _view_at_size),
    "zookeeper": NodeFactory(ZkConfig, _zk_client, _view_at_size, _zk_servers),
    "akka": NodeFactory(AkkaConfig, _akka_node, _view_at_size),
}


def harness_for(
    system: str,
    seed: int = 0,
    settings=None,
    config=None,
    latency: Optional[LatencyModel] = None,
) -> Harness:
    """Construct the harness for a system name used in the paper's plots.

    Rapid systems take ``settings``, baselines ``config`` (``SwimConfig``,
    ``GossipFdConfig``, ``ZkConfig``, ``AkkaConfig``).  Either may be a
    plain dict of the dataclass's field overrides — the form benchmark
    specs and grids use, since their params must stay JSON-serializable —
    and is instantiated here.
    """
    try:
        factory = SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; choose from {sorted(SYSTEMS)}")
    if factory.config_cls is RapidSettings:
        if config is not None:
            raise ValueError(
                f"system {system!r} takes no config dict; "
                "pass Rapid overrides via settings={...}"
            )
        config = settings
    elif settings is not None:
        raise ValueError(f"system {system!r} takes no settings; pass config={{...}}")
    if isinstance(config, dict):
        config = factory.config_cls(**config)
    return Harness(system, seed=seed, config=config, latency=latency)
