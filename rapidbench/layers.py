"""Outside-in tracing: spans and counters around each layer's public calls.

:class:`Tracer` replaces public functions of the simulator's modules with
wrappers defined here, records one span per call — name, start, end and
parent span — in compact in-memory arrays, and restores the originals on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows about it.

Self time is a span's duration minus the durations of its child spans.  The
self times of all spans partition the time covered by top-level spans; the
rest of the traced wall, which no span covers, is charged to
``sim.engine.self_s`` (event dispatch, network delivery bookkeeping, the
benchmark's own scorecard samples).  So the per-layer self times plus
``sim.engine.self_s`` sum to the traced wall by construction, and
:func:`layer_metrics` reports the residual as ``trace.reconcile_error_s``.

View install has no public entry point: the install work that follows a
decision runs inside whichever span delivered the decision, usually
``core.fast_paxos.handle`` or a gossip ``handle``, and is charged there.
"""

from __future__ import annotations

import gc
import re
import sys
import time
import weakref
from array import array
from pathlib import Path

import repro.sim.network as network_module
from repro.core.broadcaster import (
    AdaptiveBroadcaster,
    GossipBroadcaster,
    UnicastBroadcaster,
)
from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.fast_paxos import FastPaxos
from repro.core.join import JoinProtocol
from repro.core.membership import RapidNode
from repro.detectors.adaptive import AdaptiveTimeoutDetector
from repro.detectors.phi_accrual import PhiAccrualDetector
from repro.detectors.ping_timeout import PingTimeoutDetector
from repro.obs.invariants import ViewLedger
from repro.sim.network import Network
from repro.sim.process import SimRuntime

from rapidbench.workloads import percentile

__all__ = [
    "Tracer",
    "bytes_metric",
    "configuration_memory",
    "layer_metrics",
    "write_spans",
]

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def _clean(name: str) -> str:
    return _UNSAFE.sub("_", name)


def bytes_metric(message_class: str) -> str:
    """Metric name of one message class's bytes, e.g. ``GossipEnvelope[X]``."""
    return "sim.network.bytes." + _clean(message_class).strip("_")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.counts: dict[str, int] = {}
        #: Per FastPaxos instance: virtual time of its own vote.
        self._voted_at = weakref.WeakKeyDictionary()
        #: Decisions seen: (virtual decide time, vote-to-decide or None).
        self.decisions: list[tuple] = []
        #: Ids of the join handshakes that called ``begin``.
        self.join_instances: set[int] = set()
        #: False after :meth:`uninstall`: wrapped callbacks still pending
        #: in the engine then run without recording.
        self.active = True

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, name_for=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``name_for(*args)`` may instead pick the span name per call.
        """
        nid = self.name_id(name) if name_for is None else -1
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid if name_for is None else name_for(*args))
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()

        return traced

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_method(self, cls, attr: str, name: str) -> None:
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def install(self, harness=None) -> None:
        """Wrap every layer's public functions.

        Pass an already-built ``harness`` to re-attach its nodes' message
        handlers, which were bound before the wrappers existed.
        """
        self._span_method(Network, "send", "sim.network.send")
        self._span_method(Network, "broadcast", "sim.network.broadcast")
        self._patch(
            network_module, "wire_size",
            self.wrap("sim.network.wire_size", network_module.wire_size),
        )

        by_type: dict[type, int] = {}

        def message_name(node, src, msg):
            nid = by_type.get(type(msg))
            if nid is None:
                nid = by_type[type(msg)] = self.name_id(
                    f"core.membership.on_message.{type(msg).__name__}"
                )
            return nid

        self._patch(
            RapidNode, "on_message",
            self.wrap("", RapidNode.__dict__["on_message"], name_for=message_name),
        )
        self._patch_schedule()
        self._patch_detectors()

        receive = MultiNodeCutDetector.__dict__["receive_alert"]
        traced_receive = self.wrap("core.cut_detector.receive_alert", receive)

        def receive_alert(detector, alert, now=0.0):
            proposal = traced_receive(detector, alert, now)
            if proposal is not None:
                self.count("core.cut_detector.proposals")
            return proposal

        self._patch(MultiNodeCutDetector, "receive_alert", receive_alert)
        self._patch_consensus()
        for cls in (UnicastBroadcaster, GossipBroadcaster, AdaptiveBroadcaster):
            for attr in ("broadcast", "handle", "set_membership"):
                self._span_method(cls, attr, f"core.broadcaster.{cls.__name__}.{attr}")

        begin = self.wrap("core.join.begin", JoinProtocol.__dict__["begin"])

        def join_begin(protocol):
            self.join_instances.add(id(protocol))
            return begin(protocol)

        self._patch(JoinProtocol, "begin", join_begin)
        for attr in ("on_pre_join_response", "on_join_response"):
            self._span_method(JoinProtocol, attr, f"core.join.{attr}")
        for attr in ("apply", "apply_delta", "view_snapshot"):
            self._span_method(Configuration, attr, f"core.configuration.{attr}")
        self._span_method(ViewLedger, "observe", "obs.invariants.observe")

        if harness is not None:
            for ep, node in harness.agents.items():
                harness.runtimes[ep].attach(node.on_message)

    def _patch_schedule(self) -> None:
        schedule = SimRuntime.__dict__["schedule"]
        timer_ids: dict[str, str] = {}

        def traced_schedule(runtime, delay, fn, *args):
            qual = getattr(fn, "__qualname__", type(fn).__name__)
            name = timer_ids.get(qual)
            if name is None:
                name = timer_ids[qual] = _clean(f"core.membership.timer.{qual}")
            inner = fn
            owner = getattr(fn, "__self__", None)
            if isinstance(owner, FastPaxos):
                inner = self._watch_decision(owner, fn)
            return schedule(runtime, delay, self.wrap(name, inner), *args)

        self._patch(SimRuntime, "schedule", traced_schedule)

    def _patch_detectors(self) -> None:
        for cls in (PingTimeoutDetector, PhiAccrualDetector, AdaptiveTimeoutDetector):
            success = cls.__dict__["on_probe_success"]
            failure = cls.__dict__["on_probe_failure"]

            def on_success(det, now, rtt, _fn=success):
                self.count("detectors.probe_success")
                return _fn(det, now, rtt)

            def on_failure(det, now, _fn=failure):
                self.count("detectors.probe_failure")
                return _fn(det, now)

            self._patch(cls, "on_probe_success", on_success)
            self._patch(cls, "on_probe_failure", on_failure)

    def _after_consensus(self, instance: FastPaxos, voted: bool, decided: bool) -> None:
        """Record a vote or a decision the call just made on ``instance``."""
        now = instance.runtime.now()
        if not voted and instance.my_vote is not None:
            self._voted_at[instance] = now
        if not decided and instance.decided:
            vote = self._voted_at.get(instance)
            self.decisions.append((now, None if vote is None else now - vote))

    def _watch_decision(self, instance: FastPaxos, fn):
        def watched(*args):
            voted, decided = instance.my_vote is not None, instance.decided
            try:
                return fn(*args)
            finally:
                self._after_consensus(instance, voted, decided)

        return watched

    def _patch_consensus(self) -> None:
        for attr in ("handle", "propose"):
            traced = self.wrap(f"core.fast_paxos.{attr}", FastPaxos.__dict__[attr])

            def method(instance, *args, _traced=traced):
                voted, decided = instance.my_vote is not None, instance.decided
                try:
                    return _traced(instance, *args)
                finally:
                    self._after_consensus(instance, voted, decided)

            self._patch(FastPaxos, attr, method)

    def uninstall(self, harness=None) -> None:
        """Restore every patched function and stop recording.

        Pass the ``harness`` to re-attach its nodes' original handlers.
        """
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if harness is not None:
            for ep, node in harness.agents.items():
                harness.runtimes[ep].attach(node.on_message)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> tuple[dict, dict, float]:
        """Per span name: (calls, self seconds), plus top-level covered time."""
        n = len(self.name_of)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        covered = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            else:
                covered += dur
        calls: dict[str, int] = {}
        selfs: dict[str, float] = {}
        names = self.names
        for i, nid in enumerate(self.name_of):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
        return calls, selfs, covered


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the span arrays: ``<path>.names`` (one name per line) plus
    ``<path>`` holding int32 name ids, int32 parents, float64 starts and
    float64 ends, one block after the other."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.with_suffix(path.suffix + ".names").write_text("\n".join(tracer.names) + "\n")
    with open(path, "wb") as fh:
        for arr in (tracer.name_of, tracer.parent, tracer.start, tracer.end):
            arr.tofile(fh)


def configuration_memory() -> dict:
    """Memory held by the live :class:`Configuration` objects.

    ``live_mb`` counts each live configuration, its attribute dict and
    every value stored in it (the members and uuids tuples, the cached
    index dict, frozenset and join snapshot) once, by ``sys.getsizeof``.
    ``objects_per_config_id`` is live configurations per distinct view:
    1 when processes share one object per view, n when each of n
    processes holds a private copy.
    """
    configs = [obj for obj in gc.get_objects() if type(obj) is Configuration]
    seen: set[int] = set()
    total = 0
    for config in configs:
        for obj in (config, config.__dict__, *config.__dict__.values()):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += sys.getsizeof(obj)
    distinct = len({config.config_id for config in configs})
    return {
        "core.configuration.live_mb": total / 2**20,
        "core.configuration.objects_per_config_id": len(configs) / max(distinct, 1),
    }


def layer_metrics(tracer: Tracer, traced_wall: float, events: int, consensus: dict) -> dict:
    """Per-layer metrics of one traced phase.

    ``consensus`` carries the phase's fast-path and fallback decision
    counts from the harness metrics registry.
    """
    calls, selfs, covered = tracer.self_times()
    out: dict = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = selfs[name]
    engine_self = traced_wall - covered
    out["sim.engine.events"] = events
    out["sim.engine.self_s"] = engine_self
    out["trace.wall_s"] = traced_wall
    out["trace.reconcile_error_s"] = abs(sum(selfs.values()) + engine_self - traced_wall)
    counts = tracer.counts
    ok = counts.get("detectors.probe_success", 0)
    bad = counts.get("detectors.probe_failure", 0)
    out["detectors.probe_success"] = ok
    out["detectors.probe_failure"] = bad
    out["detectors.failure_ratio"] = bad / (ok + bad) if ok + bad else 0.0
    alerts = calls.get("core.cut_detector.receive_alert", 0)
    out["core.cut_detector.proposals_per_alert"] = (
        counts.get("core.cut_detector.proposals", 0) / alerts if alerts else 0.0
    )
    fast, fallback = consensus["fast_path"], consensus["fallback"]
    out["core.fast_paxos.decisions"] = fast + fallback
    out["core.fast_paxos.fast_path_share"] = fast / (fast + fallback) if fast + fallback else 0.0
    latencies = [lat for _, lat in tracer.decisions if lat is not None]
    out["core.fast_paxos.decide_virtual_s.p50"] = percentile(latencies, 50) if latencies else 0.0
    out["core.fast_paxos.decide_virtual_s.p99"] = percentile(latencies, 99) if latencies else 0.0
    joins = len(tracer.join_instances)
    out["core.join.attempts_per_join"] = calls.get("core.join.begin", 0) / joins if joins else 0.0
    return out
