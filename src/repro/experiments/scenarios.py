"""Experiment scenarios reproducing each table and figure of the paper.

Every function is deterministic given its ``seed`` and returns a plain dict
of results; the benchmark runner (``python -m repro.bench``, see
:mod:`repro.bench`) calls these and renders paper-shaped tables, and the
test suite asserts the qualitative claims (who wins, who is stable, who
flaps).

Cluster sizes default to scaled-down values (the paper ran 1000-2000
processes on 100 VMs; pure-Python simulation of the full size is possible
but slow).  Scale via the ``n`` arguments or the benchmark CLI's
``--scale`` flag.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.stats import summarize
from repro.apps.resilience import ViewWatcher
from repro.apps.service_discovery import (
    Backend,
    LoadBalancer,
    ServiceDiscoveryConfig,
    WorkloadGenerator,
)
from repro.apps.txn_platform import DataServer, TxnClient, TxnPlatformConfig
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.events import NodeStatus
from repro.core.messages import Alert, AlertKind
from repro.core.node_id import Endpoint
from repro.core.ring import KRingTopology
from repro.experiments.harness import harness_for
from repro.experiments.live import live_bootstrap_experiment
from repro.obs.app_scorecard import AppScorecard
from repro.obs.scorecard import StabilityScorecard
from repro.runtime.dispatch import TypeDispatcher
from repro.sim.cluster import endpoint_for
from repro.sim.fault_profiles import compile_profile
from repro.sim.faults import EgressLoss, IngressLoss
from repro.sim.process import SimRuntime
from repro.sim.rng import child_rng

__all__ = [
    "bootstrap_experiment",
    "crash_experiment",
    "join_churn_experiment",
    "packet_loss_experiment",
    "adversary_experiment",
    "partition_heal_experiment",
    "sensitivity_experiment",
    "txn_platform_experiment",
    "service_discovery_experiment",
    "bandwidth_stats",
    "SCENARIO_FUNCTIONS",
]


# ------------------------------------------------------------- Figures 5-7,
# Table 1: bootstrap


def bootstrap_experiment(
    system: str,
    n: int,
    seed: int = 0,
    timeout: float = 600.0,
    seed_delay: float = 10.0,
    stagger: float = 2.0,
    **harness_kwargs,
) -> dict:
    """Bootstrap ``n`` processes and measure convergence.

    Returns convergence time (all processes report ``n``; the paper's
    Figure 5 metric), per-node first-report times (Figure 6 ECDF), the
    distinct cluster sizes reported (Table 1), and the aggregate view
    timeseries (Figure 7).
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=seed_delay, stagger=stagger)
    convergence = harness.run_until_converged(n, timeout=timeout)
    # Let reporting ticks observe the final state.
    harness.run_for(2.0)
    trace = harness.trace
    return {
        "system": system,
        "n": n,
        "convergence_time": convergence,
        "per_node_times": trace.per_node_convergence(endpoints, n),
        "unique_sizes": trace.unique_sizes(endpoints),
        "timeseries": trace.aggregate_series(endpoints, step=5.0),
        "harness": harness,
    }


# ----------------------------------------------------------------- Figure 8,
# Table 2: crash faults


def crash_experiment(
    system: str,
    n: int,
    failures: int = 10,
    seed: int = 0,
    settle_timeout: float = 600.0,
    observe_for: float = 120.0,
    **harness_kwargs,
) -> dict:
    """Bootstrap, then crash ``failures`` processes simultaneously.

    Reports the view-size timeseries around the crash (Figure 8), the time
    for all survivors to converge to ``n - failures``, and the per-process
    bandwidth statistics over the run (Table 2).
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(10.0)  # steady state before the fault
    crash_time = harness.engine.now
    victims = endpoints[n // 2 : n // 2 + failures]
    harness.crash(victims)
    removal_time = harness.run_until_converged(
        n - failures, timeout=observe_for
    )
    harness.run_for(5.0)
    survivors = [ep for ep in endpoints if ep not in set(victims)]
    sizes_during = harness.trace.unique_sizes(survivors)
    return {
        "system": system,
        "n": n,
        "failures": failures,
        "crash_time": crash_time,
        "removal_time": (removal_time - crash_time) if removal_time else None,
        "sizes_reported_by_survivors": sizes_during,
        "intermediate_sizes": sorted(
            s for s in sizes_during if n - failures < s < n
        ),
        "timeseries": harness.trace.aggregate_series(survivors, step=5.0),
        "harness": harness,
    }


# ------------------------------------------------------------- join churn:
# late joins and rejoins against a steady cluster (join-path benchmarks)


def join_churn_experiment(
    system: str,
    n: int,
    joiners: int = 8,
    rejoins: int = 0,
    join_stagger: float = 5.0,
    rejoin_delay: float = 8.0,
    seed: int = 0,
    settle_timeout: float = 600.0,
    churn_timeout: float = 180.0,
    **harness_kwargs,
) -> dict:
    """Bootstrap ``n`` processes, then churn the membership via the join path.

    After the cluster reaches a steady state, ``joiners`` fresh processes
    start staggered over ``join_stagger`` seconds, and ``rejoins`` existing
    members gracefully leave (staggered over the same window) and rejoin
    ``rejoin_delay`` seconds later with fresh logical identities.  This is
    the join-dissemination workload: late joins exercise the full
    view-snapshot responses (deduplicated to the designated observer), and
    rejoins exercise delta-encoded responses against the base configuration
    each leaver still holds — plus the UUID_IN_USE retry when a rejoin
    races its own removal.

    Requires a Rapid harness (node-level ``leave``/``rejoin`` and late
    ``add_node``).  Returns the time for the cluster to re-converge to
    ``n + joiners`` members and the join-path traffic totals
    (message/byte counts of the ``PreJoin*``/``Join*`` classes).
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    if harness.event_log is None:
        raise ValueError(
            f"join_churn requires a Rapid harness, not {system!r} "
            "(needs node-level leave/rejoin and late add_node)"
        )
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(5.0)
    churn_start = harness.engine.now
    rng = harness.network.rng_for("join_churn")
    rejoin_eps = endpoints[1 : 1 + max(0, min(rejoins, n - 1))]
    for ep in rejoin_eps:
        node = harness.agents[ep]
        leave_at = churn_start + rng.random() * join_stagger
        harness.engine.schedule_at(leave_at, node.leave)
        harness.engine.schedule_at(leave_at + rejoin_delay, node.rejoin)
    seed_ep = endpoints[0]
    fresh_eps = [endpoint_for(n + i) for i in range(joiners)]
    for ep in fresh_eps:
        harness.add_node(
            ep,
            seeds=(seed_ep,),
            start_at=churn_start + rng.random() * join_stagger,
        )
    endpoints.extend(fresh_eps)
    converged_at = harness.run_until_converged(n + joiners, timeout=churn_timeout)
    harness.run_for(2.0)
    network = harness.network
    join_messages = sum(
        count
        for key, count in network.class_counts.items()
        if key.startswith(("PreJoin", "Join"))
    )
    join_bytes = sum(
        total
        for key, total in network.class_bytes.items()
        if key.startswith(("PreJoin", "Join"))
    )
    return {
        "system": system,
        "n": n,
        "joiners": joiners,
        "rejoins": rejoins,
        "churn_start": churn_start,
        "churn_convergence": (
            converged_at - churn_start if converged_at is not None else None
        ),
        "join_messages": join_messages,
        "join_bytes": join_bytes,
        "timeseries": harness.trace.aggregate_series(endpoints, step=5.0),
        "harness": harness,
    }


def bandwidth_stats(harness, endpoints: Sequence[Endpoint], start: float = 0.0) -> dict:
    """Table 2: mean/p99/max of per-second KB/s across processes."""
    tx_all: list[float] = []
    rx_all: list[float] = []
    for ep in endpoints:
        tx, rx = harness.network.per_second_rates(ep, start=start)
        tx_all.extend(tx)
        rx_all.extend(rx)
    return {"tx": summarize(tx_all), "rx": summarize(rx_all)}


# ------------------------------------------------------- Figures 1, 9, 10:
# asymmetric and lossy-network faults


def packet_loss_experiment(
    system: str,
    n: int,
    faulty_fraction: float = 0.01,
    loss: float = 0.8,
    direction: str = "egress",
    flip_flop: Optional[tuple] = None,
    seed: int = 0,
    fault_at: float = 30.0,
    observe_for: float = 150.0,
    settle_timeout: float = 600.0,
    **harness_kwargs,
) -> dict:
    """Subject a fraction of processes to packet loss and watch the views.

    * Figure 1:  ``direction="ingress"``, ``loss=0.8`` (80% loss at 1%);
    * Figure 9:  ``direction="ingress"``, ``loss=1.0``,
      ``flip_flop=(20, 20)`` (one-way connectivity flapping);
    * Figure 10: ``direction="egress"``, ``loss=0.8``.

    Returns per-second view statistics for healthy processes, whether the
    faulty set was removed, and a **stability score**: the total number of
    distinct view sizes healthy processes reported after the fault (a stable
    system reports at most two — before and after removal).
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(5.0)
    fault_start = harness.engine.now + fault_at
    faulty_count = max(1, int(n * faulty_fraction))
    faulty = frozenset(endpoints[n // 3 : n // 3 + faulty_count])
    rule_cls = IngressLoss if direction == "ingress" else EgressLoss
    rule_kwargs = dict(nodes=faulty, probability=loss, start=fault_start)
    if flip_flop is not None:
        rule_kwargs.update(period_on=flip_flop[0], period_off=flip_flop[1])
    harness.network.add_rule(rule_cls(**rule_kwargs))
    harness.run_for(fault_at + observe_for)
    healthy = [ep for ep in endpoints if ep not in faulty]
    sizes_after = set()
    for ep in healthy:
        for t, s, _ in harness.trace.samples.get(ep, ()):
            if t >= fault_start:
                sizes_after.add(s)
    final_sizes = set(
        harness.trace.sizes_at(harness.engine.now - 1.0, healthy)
    )
    expected = n - faulty_count
    return {
        "system": system,
        "n": n,
        "faulty": sorted(str(e) for e in faulty),
        "fault_start": fault_start,
        "sizes_after_fault": sorted(sizes_after),
        "stability_score": len(sizes_after),
        "final_sizes": sorted(final_sizes),
        "removed_faulty": final_sizes == {expected},
        "reacted": any(s != n for s in sizes_after),
        "timeseries": harness.trace.aggregate_series(healthy, step=5.0),
        "harness": harness,
    }


# ----------------------------------------------------- Figures 9-12 matrix:
# named fault profiles scored against ground truth


def _view_callable(agent):
    """A zero-argument view accessor for any membership agent.

    Baselines expose ``view()``; Rapid nodes expose the ``membership``
    property (the installed configuration's member tuple).  Both return
    identity-stable tuples on quiet seconds, which the scorecard exploits.
    """
    view = getattr(agent, "view", None)
    if callable(view):
        return view
    return lambda: agent.membership


def _apply_action(harness, action) -> None:
    """Execute one scheduled fault action against a harness."""
    if action.action == "crash":
        harness.crash(action.nodes)
    elif action.action == "netdown":
        for ep in action.nodes:
            harness.network.crash(ep)
    else:  # netup
        for ep in action.nodes:
            harness.network.recover(ep)


def adversary_experiment(
    system: str,
    n: int,
    profile: str = "flip_flop",
    seed: int = 0,
    fault_at: float = 30.0,
    observe_for: float = 120.0,
    settle_timeout: float = 600.0,
    scorecard_interval: float = 1.0,
    profile_overrides: Optional[dict] = None,
    **harness_kwargs,
) -> dict:
    """Run a named fault profile against a system and score stability.

    Bootstraps ``n`` processes, compiles ``profile`` (see
    :mod:`repro.sim.fault_profiles`) against the cluster at
    ``now + fault_at``, installs its rules and schedules its crash/recover
    actions, and samples every healthy process's view through a
    :class:`~repro.obs.scorecard.StabilityScorecard` for ``observe_for``
    seconds.  The returned dict is flat scalars (long-format-CSV friendly) plus
    the usual ``timeseries``/``harness`` keys.
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    settled = harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(5.0)
    fault_start = harness.engine.now + fault_at
    compiled = compile_profile(
        profile, endpoints, seed, fault_start, overrides=profile_overrides
    )
    for rule in compiled.rules:
        harness.network.add_rule(rule)
    for action in compiled.actions:
        harness.engine.schedule_at(action.time, _apply_action, harness, action)
    healthy = [ep for ep in endpoints if ep not in compiled.faulty]
    agents = harness.agents
    scorecard = StabilityScorecard(
        engine=harness.engine,
        views={ep: _view_callable(agents[ep]) for ep in healthy},
        faulty=compiled.faulty,
        fault_start=fault_start,
        interval=scorecard_interval,
        crashed=lambda ep: harness.runtimes[ep].crashed,
    )
    scorecard.start()
    harness.run_for(fault_at + observe_for)
    report = {
        "system": system,
        "n": n,
        "profile": profile,
        "expect_eviction": compiled.expect_eviction,
        "faulty": sorted(str(e) for e in compiled.faulty),
        "settled": settled is not None,
        **scorecard.report(),
        "timeseries": harness.trace.aggregate_series(healthy, step=5.0),
        "harness": harness,
    }
    if harness.event_log is not None:
        report["configs_post_fault"] = len(
            {r.config_id for r in harness.event_log.records if r.time >= fault_start}
        )
    return report


# ------------------------------------------------------- partition and heal:
# no split-brain while split, delta rejoin after


def partition_heal_experiment(
    system: str,
    n: int,
    fraction: float = 0.2,
    partition_for: float = 60.0,
    seed: int = 0,
    fault_at: float = 10.0,
    heal_observe: float = 240.0,
    settle_timeout: float = 600.0,
    rejoin_poll: float = 5.0,
    **harness_kwargs,
) -> dict:
    """Split off a minority slice, hold the partition, heal, and rejoin.

    Compiles the ``partition_heal`` fault profile (a bounded-window
    :class:`~repro.sim.faults.Partition` between a ``fraction`` minority and
    the rest) against a settled cluster and asserts the safety story end to
    end: during the partition the minority — below the classical majority,
    let alone Rapid's fast-path quorum — must make **zero** view progress
    (no split-brain, checked both by counting its view installs and by the
    always-on :class:`~repro.obs.invariants.ViewLedger`), while the majority
    reconfigures it out.  After the window closes, the majority's decision
    gossip tells the stale minority members they were removed; as each one
    reaches ``KICKED`` the experiment calls
    :meth:`~repro.core.membership.RapidNode.rejoin`, exercising the
    delta-encoded rejoin path back to a full ``n``-member view.

    Requires a Rapid harness (node-level status/rejoin and the view event
    log).  Returns flat scalars — minority install count during the
    partition, whether the majority converged while split, rejoin and
    re-convergence progress, and the ledger's check count — plus the usual
    ``timeseries``/``harness`` payloads.
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    if harness.event_log is None:
        raise ValueError(
            f"partition_heal requires a Rapid harness, not {system!r} "
            "(needs node-level status/rejoin and the view event log)"
        )
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    settled = harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(5.0)
    fault_start = harness.engine.now + fault_at
    compiled = compile_profile(
        "partition_heal",
        endpoints,
        seed,
        fault_start,
        overrides={"fraction": fraction, "duration": partition_for},
    )
    for rule in compiled.rules:
        harness.network.add_rule(rule)
    minority = compiled.faulty
    majority = [ep for ep in endpoints if ep not in minority]
    heal_time = fault_start + partition_for
    harness.run_for(fault_at + partition_for)
    minority_installs = sum(
        1
        for record in harness.event_log.records
        if record.endpoint in minority and record.time >= fault_start
    )
    majority_sizes = {len(harness.agents[ep].membership) for ep in majority}
    majority_converged = majority_sizes == {n - len(minority)}
    rejoined: set = set()
    reconverged_at = None
    deadline = harness.engine.now + heal_observe
    while harness.engine.now < deadline:
        harness.run_for(rejoin_poll)
        for ep in minority:
            node = harness.agents[ep]
            if ep not in rejoined and node.status in (
                NodeStatus.KICKED,
                NodeStatus.LEFT,
            ):
                rejoined.add(ep)
                node.rejoin()
        if len(rejoined) == len(minority) and harness.converged(n):
            reconverged_at = harness.engine.now
            break
    harness.run_for(2.0)
    return {
        "system": system,
        "n": n,
        "minority": len(minority),
        "fault_start": fault_start,
        "heal_time": heal_time,
        "settled": settled is not None,
        "minority_installs_during_partition": minority_installs,
        "majority_converged_during_partition": majority_converged,
        "rejoined": len(rejoined),
        "reconverge_time": (
            reconverged_at - heal_time if reconverged_at is not None else None
        ),
        "invariant_checks": harness.ledger.records,
        "timeseries": harness.trace.aggregate_series(list(endpoints), step=5.0),
        "harness": harness,
    }


# ---------------------------------------------------------------- Figure 11:
# K, H, L sensitivity of almost-everywhere agreement


def sensitivity_experiment(
    k: int = 10,
    h_values: Iterable[int] = (6, 7, 8, 9),
    l_values: Iterable[int] = (1, 2, 3, 4),
    f_values: Iterable[int] = (2, 4, 8, 16),
    n: int = 1000,
    repetitions: int = 20,
    observers_sampled: int = 250,
    seed: int = 0,
) -> dict:
    """Figure 11: conflict probability of the CD scheme.

    Follows the paper's methodology directly: pick ``F`` random processes to
    fail, generate the alerts their observers would broadcast, deliver them
    to each (sampled) process in a uniform random order, and count processes
    whose first proposal does not contain the full failed set.

    Returns ``{"k": k, "n": n, "conflict_rates": rates}`` where ``rates``
    maps ``(h, l, f)`` to the conflict rate in percent; combinations
    violating ``1 <= l <= h <= k`` are skipped.
    """
    rng = child_rng(seed, "sensitivity")
    members = [endpoint_for(i) for i in range(n)]
    topology = KRingTopology(members, k)
    results: dict[tuple, float] = {}
    for h in h_values:
        for l in l_values:
            if not (1 <= l <= h <= k):
                continue
            for f in f_values:
                conflicts = 0
                trials = 0
                for rep in range(repetitions):
                    failed = rng.sample(members, f)
                    failed_set = frozenset(failed)
                    alerts = _alerts_for_failures(topology, failed, k)
                    sample = min(observers_sampled, n)
                    for _ in range(sample):
                        order = alerts[:]
                        rng.shuffle(order)
                        detector = MultiNodeCutDetector(k, h, l, topology)
                        first_proposal = None
                        for alert in order:
                            proposal = detector.receive_alert(alert)
                            if proposal and first_proposal is None:
                                first_proposal = proposal
                                break
                        trials += 1
                        if first_proposal is not None:
                            proposed = {c.endpoint for c in first_proposal}
                            if not failed_set <= proposed:
                                conflicts += 1
                results[(h, l, f)] = 100.0 * conflicts / max(trials, 1)
    return {"k": k, "n": n, "conflict_rates": results}


def _alerts_for_failures(
    topology: KRingTopology, failed: Sequence[Endpoint], k: int
) -> list:
    alerts = []
    for subject in failed:
        by_observer: dict[Endpoint, list] = {}
        for ring, observer in enumerate(topology.observers_of(subject)):
            by_observer.setdefault(observer, []).append(ring)
        for observer, rings in by_observer.items():
            alerts.append(
                Alert(
                    observer=observer,
                    subject=subject,
                    kind=AlertKind.REMOVE,
                    config_id=0,
                    ring_numbers=tuple(rings),
                )
            )
    return alerts


# -------------------------------------------------------- Figures 12/13:
# application tier served through churn


def _install_profile(
    harness,
    endpoints: Sequence[Endpoint],
    profile: str,
    seed: int,
    fault_start: float,
    profile_overrides: Optional[dict],
    scorecard_interval: float,
):
    """Compile and install a fault profile; return (compiled, scorecard).

    Shared plumbing between the app experiments and
    :func:`adversary_experiment`-style drivers: network rules installed,
    crash/recover actions scheduled, and a membership
    :class:`~repro.obs.scorecard.StabilityScorecard` started over the
    healthy observers.
    """
    compiled = compile_profile(
        profile, endpoints, seed, fault_start, overrides=profile_overrides
    )
    for rule in compiled.rules:
        harness.network.add_rule(rule)
    for action in compiled.actions:
        harness.engine.schedule_at(action.time, _apply_action, harness, action)
    agents = harness.agents
    healthy = [ep for ep in endpoints if ep not in compiled.faulty]
    scorecard = StabilityScorecard(
        engine=harness.engine,
        views={ep: _view_callable(agents[ep]) for ep in healthy},
        faulty=compiled.faulty,
        fault_start=fault_start,
        interval=scorecard_interval,
        crashed=lambda ep: harness.runtimes[ep].crashed,
    )
    scorecard.start()
    return compiled, scorecard


def _app_report(
    result: dict,
    stats: AppScorecard,
    start: float,
    end: float,
    compiled,
    mem_card,
    harness,
    healthy: Sequence[Endpoint],
) -> dict:
    """Assemble the flat app-experiment result row plus series payloads."""
    result.update(stats.report(start, end))
    result["harness"] = harness
    result["timeseries"] = harness.trace.aggregate_series(list(healthy), step=5.0)
    result["app_latency_series"] = stats.latency_series(start, end)
    result["app_goodput_series"] = stats.goodput_series(start, end)
    if compiled is not None:
        result["expect_eviction"] = compiled.expect_eviction
        result["faulty"] = sorted(str(e) for e in compiled.faulty)
        result.update(
            {f"mem_{key}": value for key, value in mem_card.report().items()}
        )
    return result


def service_discovery_experiment(
    system: str,
    n: int,
    profile: Optional[str] = None,
    seed: int = 0,
    fault_at: float = 10.0,
    observe_for: float = 40.0,
    settle_timeout: float = 600.0,
    scorecard_interval: float = 1.0,
    profile_overrides: Optional[dict] = None,
    app_config=None,
    **harness_kwargs,
) -> dict:
    """Figure 13 end-to-end: LB + backend fleet served through a fault profile.

    The load balancer lives on the first member (co-hosted with its
    membership agent via :meth:`TypeDispatcher.overlay
    <repro.runtime.dispatch.TypeDispatcher.overlay>`), every other member
    is a backend, and an external generator offers open-loop load for
    ``fault_at + observe_for`` seconds.  ``profile`` (any
    :mod:`repro.sim.fault_profiles` name, or ``None`` for a fault-free
    run) strikes ``fault_at`` seconds into the workload.  Works against
    every system in :data:`~repro.experiments.harness.SYSTEMS`, which is
    the paper's comparison: SWIM-style piecemeal updates trigger a reload
    storm, Rapid takes one reload.

    Returns flat scalars from the app SLO scorecard (goodput, retry and
    hedge counts, breaker churn, p50/p99/p999 latency with pre/post-fault
    splits), ``reloads``, membership stability metrics prefixed ``mem_``,
    and the ``app_latency_series``/``app_goodput_series`` payloads behind
    ``repro.bench --timeseries``.
    """
    if isinstance(app_config, dict):
        app_config = ServiceDiscoveryConfig(**app_config)
    config = app_config or ServiceDiscoveryConfig()
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    settled = harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(5.0)
    workload_start = harness.engine.now
    duration = fault_at + observe_for
    fault_start = workload_start + fault_at if profile is not None else None
    stats = AppScorecard(fault_start=fault_start)
    lb_ep = endpoints[0]
    lb = LoadBalancer(
        TypeDispatcher.overlay(harness.runtimes[lb_ep]),
        endpoints[1:],
        stats,
        config,
    )
    for ep in endpoints[1:]:
        Backend(TypeDispatcher.overlay(harness.runtimes[ep]), config)
    watcher = ViewWatcher(
        harness.runtimes[lb_ep],
        _view_callable(harness.agents[lb_ep]),
        lb.on_view_change,
        interval=0.25,
    )
    watcher.start()
    generator = WorkloadGenerator(
        SimRuntime(
            harness.engine, harness.network, Endpoint("10.254.1.2", 9999), seed=seed
        ),
        lb_ep,
        stats,
        config,
    )
    generator.start(duration)
    compiled = mem_card = None
    healthy: Sequence[Endpoint] = endpoints
    if profile is not None:
        compiled, mem_card = _install_profile(
            harness, endpoints, profile, seed, fault_start,
            profile_overrides, scorecard_interval,
        )
        healthy = [ep for ep in endpoints if ep not in compiled.faulty]
    harness.run_for(duration + config.request_deadline + 1.0)
    generator.stop()
    watcher.stop()
    result = {
        "system": system,
        "n": n,
        "profile": profile or "none",
        "settled": settled is not None,
        "reloads": lb.reloads,
    }
    return _app_report(
        result, stats, workload_start, workload_start + duration,
        compiled, mem_card, harness, healthy,
    )


def txn_platform_experiment(
    system: str,
    n: int,
    profile: Optional[str] = None,
    n_clients: int = 2,
    seed: int = 0,
    fault_at: float = 10.0,
    observe_for: float = 40.0,
    settle_timeout: float = 600.0,
    scorecard_interval: float = 1.0,
    profile_overrides: Optional[dict] = None,
    app_config=None,
    **harness_kwargs,
) -> dict:
    """Figure 12 end-to-end: txn platform served through a fault profile.

    Every member is a :class:`~repro.apps.txn_platform.DataServer`
    (co-hosted with its membership agent); ``n_clients`` external clients
    offer open-loop transactions for ``fault_at + observe_for`` seconds.
    ``profile="blackhole"`` defaults its pair to ``"edge"`` — the
    serializer (lowest-addressed member) against the highest-addressed
    one, the paper's Figure 12 fault — unless the caller overrides
    ``pair`` explicitly.

    Returns the app SLO scorecard scalars plus ``failovers`` (the max any
    server observed), membership metrics prefixed ``mem_``, and the
    timeseries payloads behind ``repro.bench --timeseries``.
    """
    if isinstance(app_config, dict):
        app_config = TxnPlatformConfig(**app_config)
    config = app_config or TxnPlatformConfig()
    if profile == "blackhole" and "pair" not in (profile_overrides or {}):
        profile_overrides = {**(profile_overrides or {}), "pair": "edge"}
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    settled = harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(5.0)
    workload_start = harness.engine.now
    duration = fault_at + observe_for
    fault_start = workload_start + fault_at if profile is not None else None
    stats = AppScorecard(fault_start=fault_start)
    servers = []
    watchers = []
    for ep in endpoints:
        server = DataServer(
            TypeDispatcher.overlay(harness.runtimes[ep]),
            endpoints,
            config,
            stats=stats,
        )
        watcher = ViewWatcher(
            harness.runtimes[ep],
            _view_callable(harness.agents[ep]),
            server.on_view_change,
            interval=0.5,
        )
        watcher.start()
        servers.append(server)
        watchers.append(watcher)
    clients = [
        TxnClient(
            SimRuntime(
                harness.engine,
                harness.network,
                Endpoint(f"10.254.0.{i + 1}", 7000),
                seed=seed,
            ),
            endpoints,
            stats,
            config,
        )
        for i in range(n_clients)
    ]
    for client in clients:
        client.start(duration)
    compiled = mem_card = None
    healthy: Sequence[Endpoint] = endpoints
    if profile is not None:
        compiled, mem_card = _install_profile(
            harness, endpoints, profile, seed, fault_start,
            profile_overrides, scorecard_interval,
        )
        healthy = [ep for ep in endpoints if ep not in compiled.faulty]
    harness.run_for(duration + config.txn_deadline + 1.0)
    for client in clients:
        client.stop()
    for watcher in watchers:
        watcher.stop()
    result = {
        "system": system,
        "n": n,
        "profile": profile or "none",
        "settled": settled is not None,
        "failovers": max(s.failovers_observed for s in servers),
    }
    return _app_report(
        result, stats, workload_start, workload_start + duration,
        compiled, mem_card, harness, healthy,
    )


#: Harness-driven scenarios addressable by name — the dispatch table of the
#: benchmark runner (:mod:`repro.bench`), whose suites and grids both run
#: through it.  Every entry takes ``(system, n, seed=..., **params)`` and
#: returns a result dict carrying a ``"harness"`` key; the entries that also
#: take ``profile=`` are the fault-profile-aware ones.
SCENARIO_FUNCTIONS = {
    "bootstrap": bootstrap_experiment,
    "crash": crash_experiment,
    "join_churn": join_churn_experiment,
    "packet_loss": packet_loss_experiment,
    "adversary": adversary_experiment,
    "partition_heal": partition_heal_experiment,
    "service_discovery": service_discovery_experiment,
    "txn_platform": txn_platform_experiment,
    "live_bootstrap": live_bootstrap_experiment,
}
