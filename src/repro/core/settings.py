"""Tunable parameters of the Rapid protocol.

Defaults follow the paper's evaluation setup (section 7): ``K=10, H=9, L=3``
for the cut-detection watermarks, an edge failure detector that declares a
subject unreachable when at least 40% of the last 10 probes failed, and a
Fast Paxos quorum of three quarters of the membership.

Every field is a quantity (a count, a period, a threshold), not a switch
between implementations: each protocol policy — the probe wheel, gossip
relay batching, pull gossip, single-responder joins, delta-encoded join
responses — has exactly one code path.  The one remaining mode,
``broadcast_mode``, forces gossip dissemination at any view size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["RapidSettings", "BroadcastMode"]


class BroadcastMode:
    """How alert and vote messages are disseminated cluster-wide.

    ``AUTO`` (the default) picks per view: unicast below
    ``gossip_threshold`` members — one message delay, O(N) messages per
    broadcast — and epidemic gossip at or above it, where the O(N²)
    aggregate message volume of everyone unicasting to everyone would
    dominate the run (the paper's large-scale deployments use the gossip
    counting step for exactly this reason).  ``GOSSIP`` uses epidemic
    gossip at every view size.
    """

    GOSSIP = "gossip"
    AUTO = "auto"


@dataclass
class RapidSettings:
    """Configuration knobs for a Rapid node.

    Attributes
    ----------
    k:
        Number of pseudo-random rings; each process has ``k`` observers and
        ``k`` subjects (paper section 4.1).
    h:
        High watermark: a subject with at least ``h`` distinct observer
        reports is in *stable* report mode.
    l:
        Low watermark: fewer than ``l`` reports is noise; between ``l`` and
        ``h`` is the *unstable* region that blocks proposals.
    probe_interval:
        Seconds between edge-monitoring probes to each subject.  Every
        subject is probed exactly once per interval; *when* within the
        interval is decided by the probe wheel, which divides the
        interval into ``min(2, k)`` sub-intervals (slots).  Each subject
        is assigned to one slot, so probe traffic is strided across the
        interval instead of bursting once; probe expiry and batched acks
        ride the same tick, so no per-probe timeout events are ever
        scheduled.
    probe_timeout:
        Seconds an observer waits before counting a probe as failed.
        Expiry is checked on wheel ticks, so the effective timeout is
        ``probe_timeout`` rounded up to the next wheel sub-interval.
        Must keep ``sub-interval + 2 * RTT < probe_timeout`` or batched
        acks arrive after their probe expired.
    failure_threshold / detector_window:
        The default edge detector marks an edge faulty when
        ``failure_threshold`` of the last ``detector_window`` probes failed
        (40% of 10, per the paper's implementation section).
    probe_bootstrap_budget:
        Consecutive *bootstrapping* probe acks an observer tolerates per
        subject (per view) before treating further ones as probe
        failures — the reference implementation's "has bootstrapped"
        rule.  A live joiner answers bootstrapping acks only for the
        short window between its admission being decided and its view
        install, well under the budget; a process that answers
        bootstrapping indefinitely is a departed member whose graceful
        leave was lost (or a rejoiner's stale incarnation) and must fail
        out of the view rather than linger forever.
    batching_window:
        Alerts are buffered this many seconds and broadcast as one batched
        message, like the reference implementation.
    consensus_fallback_timeout:
        Base seconds to wait for a fast-path decision before falling back to
        classical Paxos.
    consensus_rank_delay:
        Extra per-rank stagger before a node tries to coordinate a classical
        round, so that the lowest-ranked live node usually runs it alone.
    reinforcement_timeout:
        Seconds a subject may linger in the unstable region before its
        observers echo REMOVE alerts (section 4.2, "reinforcements").
    reannounce_interval:
        Seconds without a view change before a node re-broadcasts its
        alerted-but-unremoved subjects.  A minority partition announces
        its unreachable subjects once but can never reach consensus on
        removing them; after the partition heals, the re-broadcast is what
        reaches the majority — whose members have moved past the stranded
        configuration and answer with the cached removal Decision, letting
        the stranded members learn they were kicked and rejoin.
    gossip_interval / gossip_fanout:
        Parameters of the epidemic broadcast used for alert dissemination
        and consensus vote counting when gossip is active (``GOSSIP``
        mode, or ``AUTO`` mode at or above ``gossip_threshold``).
    gossip_threshold:
        Cluster size at which ``AUTO`` switches from unicast broadcast to
        gossip, for both alert dissemination and consensus vote counting.
    gossip_convergence_ticks:
        Consensus vote push gossip stops after this many consecutive
        intervals without learning a new vote bit (the aggregate has
        converged); any later bundle that teaches new bits re-arms it.
        An undecided node then keeps a pull heartbeat every
        ``gossip_interval * gossip_convergence_ticks`` seconds (see
        :mod:`repro.core.fast_paxos`).
    join_timeout:
        Seconds a joiner waits for a join to complete before retrying.
        Retries are jittered by up to ``join_retry_jitter`` of the delay
        so simultaneous rejoiners do not re-stampede the same seed.
    join_retry_jitter:
        Fraction of a join retry delay added as uniform random jitter
        (per-node deterministic in the simulator).  ``0`` disables it.
    view_probe_interval:
        Rapid-C only: how often cluster members poll the ensemble for view
        updates (the paper uses 5 seconds to mirror its ZooKeeper setup).
    """

    k: int = 10
    h: int = 9
    l: int = 3

    probe_interval: float = 1.0
    probe_timeout: float = 1.0
    failure_threshold: float = 0.4
    detector_window: int = 10
    probe_bootstrap_budget: int = 15

    batching_window: float = 0.1

    consensus_fallback_timeout: float = 8.0
    consensus_rank_delay: float = 1.0

    reinforcement_timeout: float = 10.0
    reannounce_interval: float = 30.0

    broadcast_mode: str = BroadcastMode.AUTO
    gossip_interval: float = 0.2
    gossip_fanout: int = 8
    gossip_threshold: int = 128
    gossip_convergence_ticks: int = 5

    join_timeout: float = 5.0
    join_retry_jitter: float = 0.25
    view_probe_interval: float = 5.0

    # View-size sampling period used by experiment traces (the paper's
    # agents log their view once per second).  Sampling rides the probe
    # wheel, so this must be a whole number of wheel sub-intervals.
    report_interval: float = 1.0

    def __post_init__(self) -> None:
        if not (1 <= self.l <= self.h <= self.k):
            raise ValueError(
                f"watermarks must satisfy 1 <= L <= H <= K, "
                f"got K={self.k}, H={self.h}, L={self.l}"
            )
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.broadcast_mode not in (BroadcastMode.GOSSIP, BroadcastMode.AUTO):
            raise ValueError(f"unknown broadcast mode {self.broadcast_mode!r}")
        if self.gossip_threshold < 1:
            raise ValueError("gossip_threshold must be positive")
        if self.gossip_convergence_ticks < 1:
            raise ValueError("gossip_convergence_ticks must be positive")
        if self.probe_bootstrap_budget < 1:
            raise ValueError("probe_bootstrap_budget must be positive")
        if self.join_retry_jitter < 0:
            raise ValueError("join_retry_jitter must be >= 0 (0 = none)")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        # The probe wheel divides probe_interval into min(2, k) slots
        # (RapidNode._wheel_slots); report sampling rides its ticks.
        ratio = self.report_interval / (self.probe_interval / max(1, min(2, self.k)))
        if round(ratio) < 1 or abs(ratio - round(ratio)) >= 1e-9:
            raise ValueError(
                f"report_interval must be a whole number of probe-wheel "
                f"sub-intervals, got {self.report_interval} "
                f"(probe_interval={self.probe_interval}, k={self.k})"
            )

    def send_join_delta(self, delta_entries: int, view_entries: int) -> bool:
        """Whether a delta of ``delta_entries`` beats a full view.

        ``delta_entries`` counts the delta's adds plus removes,
        ``view_entries`` the members of the full snapshot — the byte cost
        of either encoding is proportional to its entry count, so this
        compares entries rather than re-serializing both.
        """
        return delta_entries < view_entries

    def use_gossip(self, n: int) -> bool:
        """Whether a view of ``n`` members disseminates by gossip."""
        return self.broadcast_mode == BroadcastMode.GOSSIP or n >= self.gossip_threshold

    def scaled(self, **overrides) -> "RapidSettings":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)
