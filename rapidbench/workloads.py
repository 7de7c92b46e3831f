"""The benchmark's workloads: set-up, measured phase and checks.

Every workload drives the Rapid simulator only through its public entry
points — :func:`repro.experiments.harness.harness_for` and the harness
methods (``cluster.add_node`` for late joiners, as
:func:`repro.experiments.scenarios.join_churn_experiment` uses it) and
:class:`repro.obs.scorecard.StabilityScorecard` — so the program under test
can be rewritten underneath without touching the benchmark.

Each workload is open loop in virtual time: joiners start on a fixed
schedule and crashes fire at fixed virtual times, whatever the progress of
the protocol.  One *operation* is one sampled live node reaching the
workload's expected final view; a run that raises (an invariant violation,
a timeout) fails every operation it attempted.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.experiments.harness import harness_for
from repro.obs.scorecard import StabilityScorecard
from repro.sim.cluster import endpoint_for

__all__ = [
    "WORKLOADS",
    "DELAY_MODEL",
    "SETUP_SEED",
    "Run",
    "PhaseOutcome",
    "params_for",
    "setup",
    "run_phase",
    "digest",
    "percentile",
]

#: The delay model every workload uses: the harness default.
DELAY_MODEL = "LanLatency (lognormal LAN, harness default)"

#: Seed of the set-up bootstrap, the same for every run; the run's own
#: seed draws the phase's inputs.  A bootstrap's cost depends on how the
#: joins batch into add-cuts, which the seed decides (4-7 s on seeds 1-6 at
#: n=500, about 11 s on seed 10, see README.md), so a seed-drawn set-up
#: would make ``setup_s`` follow the seed.  Seed 3 sits in the middle.
SETUP_SEED = 3

#: Workload parameters.  ``n`` is the cluster size; ``seed_delay`` and
#: ``stagger`` shape the set-up bootstrap (the seed starts at 0, joiner
#: ``i`` at ``seed_delay + U(0, stagger)``); ``settle`` is the quiet time
#: after set-up convergence; ``timeout`` bounds every convergence wait in
#: virtual seconds; ``tail`` is the time observed after the phase's
#: convergence.
_SETUP = {"n": 500, "seed_delay": 5.0, "stagger": 1.0, "settle": 5.0, "timeout": 120.0}
WORKLOADS: dict[str, dict] = {
    # A removal cut driven by probe alerts: cut detector and gossip
    # broadcaster dominate, join does nothing.
    "crash": {**_SETUP, "crashed": 8, "tail": 2.0},
    # Add-cuts driven by the join protocol: fresh processes join one at a
    # time, ``gap`` seconds apart (plus ``U(0, jitter)``), each through a
    # member the seed picks.  Join, view transfer, consensus on add-cuts
    # and view install dominate; no probe fails.
    "join": {**_SETUP, "joiners": 3, "gap": 3.0, "jitter": 0.5, "tail": 1.0},
}


#: Virtual seconds between two wall-clock marks of a measured phase.
MARK_EVERY = 0.25
#: Iterations of :func:`reference`, about a millisecond on a 2-vCPU VM.
REFERENCE_LOOPS = 20000


def reference() -> float:
    """Seconds a fixed integer loop takes now: the host's current speed.

    The loop allocates no container, so the collector's counts, and with
    them the timing of the program's own collections, stay the same.
    """
    began = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - began


class SetupFailed(RuntimeError):
    """The set-up cluster did not converge within its timeout."""


@dataclass
class Run:
    """A set-up harness, ready for its measured phase."""

    workload: str
    seed: int
    params: dict
    harness: object
    endpoints: list
    setup_hash: str = ""


@dataclass
class PhaseOutcome:
    """What one measured phase produced.

    ``virtual`` holds the deterministic end-to-end metrics, ``counts`` the
    deterministic work counts, and ``checks`` each named correctness check.
    ``marks`` holds the wall seconds since the phase started at every
    :data:`MARK_EVERY` virtual seconds, so repeats of one phase can be
    compared piece by piece, and ``refs`` the seconds :func:`reference`
    took right after each mark; ``wall_s`` leaves the references out.
    """

    wall_s: float
    attempted: int
    failed: int
    virtual: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    error: Optional[str] = None
    marks: list = field(default_factory=list)
    refs: list = field(default_factory=list)

    @property
    def phase_hash(self) -> str:
        """Digest of every deterministic output of the phase."""
        return digest(
            {"virtual": self.virtual, "counts": self.counts, "checks": self.checks,
             "attempted": self.attempted, "failed": self.failed,
             "error": self.error}
        )


def digest(obj) -> str:
    """Stable content hash of a JSON-serialisable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process alone, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def params_for(workload: str, n: Optional[int] = None) -> dict:
    """The workload's parameters, optionally resized to ``n`` nodes.

    A resized ``crash`` keeps its crashed share (8 of 500, at least one);
    ``join`` keeps its joiners.
    """
    params = dict(WORKLOADS[workload])
    if n is not None:
        if "crashed" in params:
            params["crashed"] = max(1, round(params["crashed"] * n / params["n"]))
        params["n"] = n
    return params


def setup(workload: str, seed: int, params: Optional[dict] = None) -> Run:
    """Build the workload's cluster up to the start of its measured phase.

    The cluster is bootstrapped from :data:`SETUP_SEED`; ``seed`` is kept
    for the phase.
    """
    params = params or params_for(workload)
    harness = harness_for("rapid", seed=SETUP_SEED)
    n = params["n"]
    endpoints = harness.bootstrap(
        n, seed_delay=params["seed_delay"], stagger=params["stagger"]
    )
    if harness.run_until_converged(n, timeout=params["timeout"]) is None:
        raise SetupFailed(f"{workload}: set-up bootstrap of n={n} did not converge")
    harness.run_for(params["settle"])
    run = Run(workload, seed, params, harness, endpoints)
    net = harness.network
    run.setup_hash = digest(
        {
            "now": harness.engine.now,
            "events": harness.engine.events_processed,
            "msgs": net.sent_messages,
            "bytes": net.sent_bytes,
            "views": harness.ledger.report(),
        }
    )
    return run


@dataclass
class _Plan:
    trigger: float
    expected: frozenset
    sample: list
    faulty: frozenset
    #: Joiner -> virtual time it starts; empty when nobody joins.
    joins: dict = field(default_factory=dict)


def _start_phase(run: Run) -> tuple[_Plan, Callable[[], None]]:
    """Draw the phase's inputs from the seed; return the plan and its drive."""
    h, p, eps = run.harness, run.params, run.endpoints
    n = p["n"]
    start = h.engine.now
    if run.workload == "crash":
        rng = random.Random(f"rapidbench-crash-{run.seed}")
        victims = frozenset(rng.sample(eps[1:], p["crashed"]))
        survivors = [ep for ep in eps if ep not in victims]
        plan = _Plan(start, frozenset(survivors), survivors, victims)
        size = n - p["crashed"]

        def drive():
            h.crash(sorted(victims))
            if h.run_until_converged(size, timeout=p["timeout"]) is None:
                raise TimeoutError(f"crash: n-{p['crashed']} not reached in {p['timeout']} s")
            h.run_for(p["tail"])

    else:
        rng = random.Random(f"rapidbench-join-{run.seed}")
        joiners = [endpoint_for(n + i) for i in range(p["joiners"])]
        contacts = [rng.choice(eps) for _ in joiners]
        starts = [start + i * p["gap"] + rng.random() * p["jitter"]
                  for i in range(len(joiners))]
        members = list(eps) + joiners
        plan = _Plan(start, frozenset(members), members, frozenset(),
                     dict(zip(joiners, starts)))
        size = len(members)

        def drive():
            for ep, contact, at in zip(joiners, contacts, starts):
                h.cluster.add_node(ep, seeds=(contact,), start_at=at)
            eps.extend(joiners)
            if h.run_until_converged(size, timeout=p["timeout"]) is None:
                raise TimeoutError(f"join: n+{len(joiners)} not reached in {p['timeout']} s")
            h.run_for(p["tail"])

    return plan, drive


def run_phase(run: Run) -> PhaseOutcome:
    """Run the measured phase once and compute its outcome.

    Only the simulation itself sits inside the timed region; metric and
    check computation happen after it.
    """
    h = run.harness
    net, engine = h.network, h.engine
    log = h.cluster.event_log
    start_v = engine.now
    events0, msgs0, bytes0 = engine.events_processed, net.sent_messages, net.sent_bytes
    dropped0 = net.dropped_messages
    by_class0 = {k: (net.class_counts[k], net.class_bytes[k]) for k in net.class_counts}
    records0 = len(log.records)
    plan, drive = _start_phase(run)
    agents = h.agents
    scorecard = StabilityScorecard(
        engine=engine,
        views={ep: (lambda a=agents[ep]: a.membership) for ep in plan.sample
               if ep in agents},
        faulty=plan.faulty,
        fault_start=plan.trigger,
        crashed=lambda ep: h.runtimes[ep].crashed,
    )
    scorecard.start()
    error = None
    marks: list[float] = []
    refs: list[float] = []

    def mark():
        nonlocal handle
        marks.append(time.perf_counter() - t0 - sum(refs))
        refs.append(reference())
        handle = engine.schedule(MARK_EVERY, mark)

    handle = engine.schedule(MARK_EVERY, mark)
    t0 = time.perf_counter()
    try:
        drive()
    except Exception as exc:  # an InvariantViolation or timeout fails the run
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0 - sum(refs)
    handle.cancel()
    attempted = len(plan.sample)
    if error is not None:
        return PhaseOutcome(wall, attempted, attempted, error=error,
                            checks={"no_exception": False})

    # Per sampled node: first install of the expected view in the phase,
    # and the first install of a view holding each joiner.
    expected_cid = None
    first: dict = {}
    holds: dict = {}
    installs: dict = {}
    sample = set(plan.sample)
    for rec in log.records[records0:]:
        if rec.endpoint not in sample:
            continue
        installs[rec.endpoint] = installs.get(rec.endpoint, 0) + 1
        if expected_cid is None and rec.size == len(plan.expected) and (
            frozenset(rec.members) == plan.expected
        ):
            expected_cid = rec.config_id
        if rec.config_id == expected_cid and rec.endpoint not in first:
            first[rec.endpoint] = rec.time - plan.trigger
        for joiner, at in plan.joins.items():
            if (rec.endpoint, joiner) not in holds and joiner in rec.members:
                holds[rec.endpoint, joiner] = rec.time - at
    on_final = {
        ep for ep in plan.sample
        if agents[ep].config is not None
        and agents[ep].config.config_id == expected_cid
        and not h.runtimes[ep].crashed
    }
    failed = sum(1 for ep in plan.sample if ep not in first or ep not in on_final)
    end_v = engine.now
    elapsed_v = end_v - start_v
    live = len(h.live_endpoints())
    card = scorecard.report()
    ledger = h.ledger.report()
    # A node that never reached the expected view counts at the phase end.
    converge = [first.get(ep, end_v - plan.trigger) for ep in plan.sample]
    if plan.joins:
        # Join latency instead: from each joiner's start until it and every
        # member that was there before the phase hold it in their view.
        converge = [
            holds.get((ep, joiner), end_v - at)
            for joiner, at in plan.joins.items()
            for ep in (*run.endpoints[: run.params["n"]], joiner)
        ]
    virtual = {
        "converge_virtual_s.p50": percentile(converge, 50),
        "converge_virtual_s.p99": percentile(converge, 99),
        "view_changes_per_node": sum(installs.values()) / attempted,
        "healthy_evictions": card["healthy_evicted_nodes"],
        "msgs_per_node_s": (net.sent_messages - msgs0) / (live * elapsed_v),
        "bytes_per_node_s": (net.sent_bytes - bytes0) / (live * elapsed_v),
    }
    by_class = {}
    for key, count in net.class_counts.items():
        c0, b0 = by_class0.get(key, (0, 0))
        if count != c0:
            by_class[key] = [count - c0, net.class_bytes[key] - b0]
    counts = {
        "events": engine.events_processed - events0 - len(marks),
        "msgs_sent": net.sent_messages - msgs0,
        "msgs_dropped": net.dropped_messages - dropped0,
        "bytes_sent": net.sent_bytes - bytes0,
        "by_class": by_class,
        "virtual_s": elapsed_v,
        "ledger": ledger,
        "expected_config": expected_cid,
    }
    checks = {
        "no_exception": True,
        "ledger_clean": bool(ledger["ok"]) and ledger["checked"] > 0,
        "all_on_expected_view": failed == 0,
        "no_healthy_evictions": card["healthy_evicted_nodes"] == 0,
    }
    return PhaseOutcome(wall, attempted, failed, virtual, counts, checks,
                        marks=marks, refs=refs)
