"""Join-path edge cases: delta encoding, responder dedup, retry identity.

Pins the properties of the join/bootstrap dissemination overhaul:

* ``Configuration.apply_delta`` reconstructs the responder's view
  bit-identically (same ``config_id``) from a :class:`ViewDelta`, for
  plain diffs, uuid re-keys (rejoins), and composed multi-hop deltas;
* a joiner and a rejoiner install the same view whether they were
  answered with a full snapshot or a delta (fallback equivalence);
* ``UUID_IN_USE`` makes a rejoiner mint a fresh logical identity and
  still complete the join;
* exactly one SAFE_TO_JOIN responder answers each admitted joiner when
  ``join_single_responder`` is on, deterministically across seeds;
* join retry timeouts are jittered and clear the in-flight config id.
"""

import pytest

from repro.core.configuration import Configuration
from repro.core.events import NodeStatus
from repro.core.messages import JoinResponse, JoinStatus, ViewDelta
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.experiments.harness import Harness, harness_for
from repro.sim.cluster import endpoint_for
from repro.sim.network import Network, wire_size


def settings_for_tests(**overrides) -> RapidSettings:
    defaults = dict(k=4, h=3, l=1, join_timeout=2.0)
    defaults.update(overrides)
    return RapidSettings(**defaults)


def converged_cluster(n: int, seed: int = 1, **setting_overrides) -> Harness:
    cluster = harness_for(
        "rapid", seed=seed, settings=settings_for_tests(**setting_overrides)
    )
    cluster.bootstrap(n, seed_delay=2.0, stagger=1.0)
    assert cluster.run_until_converged(n, timeout=120.0) is not None
    return cluster


class RecordingNetwork:
    """Wraps a cluster's network send/broadcast to log JoinResponses."""

    def __init__(self, cluster: Harness) -> None:
        self.responses: list = []  # (sender, dst, status, seq, kind)
        network = cluster.network
        orig_send, orig_broadcast = network.send, network.broadcast

        def record(src, dst, msg):
            if isinstance(msg, JoinResponse):
                kind = "delta" if msg.delta is not None else (
                    "view" if msg.view is not None else "bare"
                )
                # Keyed by view *seq*, not config_id: logical uuids come
                # from a process-wide counter, so config ids are not
                # stable across two runs in one process (seqs are).
                if msg.delta is not None:
                    seq = msg.delta.seq
                elif msg.view is not None:
                    seq = msg.view.seq
                else:
                    seq = -1
                self.responses.append((src, dst, msg.status, seq, kind))

        def send(src, dst, msg):
            record(src, dst, msg)
            orig_send(src, dst, msg)

        def broadcast(src, dsts, msg):
            for dst in dsts:
                record(src, dst, msg)
            orig_broadcast(src, dsts, msg)

        network.send = send
        network.broadcast = broadcast

    def safe_to_join(self) -> list:
        return [r for r in self.responses if r[2] == JoinStatus.SAFE_TO_JOIN]


class TestDeltaRoundTrip:
    def _config(self, indices, seq=0):
        members = tuple(sorted(endpoint_for(i) for i in indices))
        return Configuration(
            members=members,
            uuids=tuple(100 + i for i, _ in enumerate(members)),
            seq=seq,
        )

    def test_delta_reconstructs_bit_identical_view(self):
        base = self._config(range(8))
        # Drop two members, add one, keep aligned uuids for sorted order.
        uuid_map = dict(zip(base.members, base.uuids))
        uuid_map.pop(base.members[6]), uuid_map.pop(base.members[7])
        uuid_map[endpoint_for(20)] = 999
        ordered = tuple(sorted(uuid_map))
        new = Configuration(
            members=ordered, uuids=tuple(uuid_map[m] for m in ordered), seq=3
        )
        delta = ViewDelta(
            base_config_id=base.config_id,
            seq=3,
            adds=((endpoint_for(20), 999),),
            removes=(base.members[6], base.members[7]),
        )
        rebuilt = base.apply_delta(delta)
        assert rebuilt == new
        assert rebuilt.config_id == new.config_id

    def test_delta_applies_uuid_rekey_as_add(self):
        # A rejoined endpoint travels as an add with its fresh uuid; the
        # apply must replace the old incarnation in place.
        base = self._config(range(4))
        uuid_map = dict(zip(base.members, base.uuids))
        uuid_map[base.members[0]] = 777  # same endpoint, fresh incarnation
        ordered = tuple(sorted(uuid_map))
        new = Configuration(
            members=ordered, uuids=tuple(uuid_map[m] for m in ordered), seq=1
        )
        delta = ViewDelta(
            base_config_id=base.config_id,
            seq=1,
            adds=((base.members[0], 777),),
        )
        assert base.apply_delta(delta).config_id == new.config_id

    def test_transient_member_remove_is_skipped(self):
        # A composed delta can remove an endpoint the base never saw.
        base = self._config(range(4))
        delta = ViewDelta(
            base_config_id=base.config_id,
            seq=1,
            adds=(),
            removes=(endpoint_for(99),),
        )
        rebuilt = base.apply_delta(delta)
        assert rebuilt.members == base.members

    def test_base_mismatch_raises(self):
        base = self._config(range(4))
        delta = ViewDelta(base_config_id=base.config_id ^ 1, seq=1)
        with pytest.raises(ValueError):
            base.apply_delta(delta)

    def test_join_delta_mode_validated(self):
        with pytest.raises(ValueError):
            RapidSettings(join_delta_mode="sometimes")
        with pytest.raises(ValueError):
            RapidSettings(join_retry_jitter=-0.1)

    def test_send_join_delta_modes(self):
        auto = RapidSettings(join_delta_mode="auto")
        assert auto.send_join_delta(3, 100)
        assert not auto.send_join_delta(100, 100)
        assert RapidSettings(join_delta_mode="on").send_join_delta(100, 1)
        assert not RapidSettings(join_delta_mode="off").send_join_delta(1, 100)


class TestRejoinPaths:
    def _leave_and_rejoin(self, mode: str, rejoin_after: float = 8.0):
        cluster = harness_for(
            "rapid", seed=3, settings=settings_for_tests(join_delta_mode=mode)
        )
        recorder = RecordingNetwork(cluster)
        cluster.bootstrap(10, seed_delay=2.0, stagger=1.0)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        victim = endpoint_for(4)
        node = cluster.agents[victim]
        recorder.responses.clear()
        node.leave()
        cluster.engine.schedule(rejoin_after, node.rejoin)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        return cluster, node, recorder

    def test_rejoin_via_delta_installs_cluster_view(self):
        # The wire path: the readmission answer must actually be a
        # ViewDelta, and the rejoiner must complete from it (a failed
        # apply would fall back to a full-snapshot retry, which would
        # show up as a second, "view"-kind response here).
        cluster, node, recorder = self._leave_and_rejoin("on")
        assert node.status == NodeStatus.ACTIVE
        assert cluster.distinct_views() == {node.config.config_id}
        kinds = [r[4] for r in recorder.safe_to_join() if r[1] == node.addr]
        assert kinds == ["delta"]

    def test_delta_and_snapshot_paths_install_identical_views(self):
        # Fallback equivalence: the same churn, answered with deltas
        # enabled and disabled, must converge on the same installed
        # configuration id for the rejoiner as for everyone else.
        for mode in ("auto", "off"):
            cluster, node, _ = self._leave_and_rejoin(mode)
            views = cluster.distinct_views()
            assert views == {node.config.config_id}, mode
            assert node.config.size == 10

    def test_uuid_in_use_mints_fresh_identity(self):
        # Rejoin immediately: the old incarnation is still in everyone's
        # view, so the seed answers UUID_IN_USE until the removal lands.
        cluster = converged_cluster(8, seed=2)
        victim = endpoint_for(3)
        node = cluster.agents[victim]
        node.leave()
        original_uuid = node.node_id.uuid
        node.rejoin()
        rejoin_uuid = node.node_id.uuid
        assert rejoin_uuid != original_uuid
        assert cluster.run_until_converged(8, timeout=120.0) is not None
        assert node.status == NodeStatus.ACTIVE
        # UUID_IN_USE forced at least one further fresh identity.
        assert node.node_id.uuid != original_uuid
        assert cluster.distinct_views() == {node.config.config_id}

    def test_silent_leaver_fails_out_via_bootstrap_budget(self):
        # A leaver whose LeaveNotification is lost (here: suppressed
        # entirely) keeps answering probes with bootstrapping acks; past
        # probe_bootstrap_budget those count as failures, so the departed
        # member is removed instead of lingering in the view forever.
        cluster = converged_cluster(10, seed=6, probe_bootstrap_budget=5)
        victim = endpoint_for(4)
        node = cluster.agents[victim]
        node.status = NodeStatus.LEFT  # silent leave: no notification
        survivors = [n for ep, n in cluster.agents.items() if ep != victim]
        deadline = cluster.engine.now + 60.0
        while cluster.engine.now < deadline:
            cluster.run_for(1.0)
            if all(n.size == 9 for n in survivors):
                break
        assert all(n.size == 9 for n in survivors)

    def test_zombie_rejoin_eventually_completes(self):
        # Same silent leave, followed by a rejoin: the stale incarnation
        # must fail out of the view (the rejoiner's own bootstrapping
        # acks are budget-limited) and the rejoin must then complete.
        cluster = converged_cluster(10, seed=7, probe_bootstrap_budget=5)
        victim = endpoint_for(4)
        node = cluster.agents[victim]
        node.status = NodeStatus.LEFT
        cluster.engine.schedule(2.0, node.rejoin)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        assert node.status == NodeStatus.ACTIVE
        assert cluster.distinct_views() == {node.config.config_id}

    def test_config_changed_restart_still_completes(self):
        # Two staggered joiners: the second's first attempt can be
        # superseded by the view change admitting the first; the
        # CONFIG_CHANGED restart must still complete both joins.
        cluster = converged_cluster(8, seed=4)
        seed_ep = endpoint_for(0)
        cluster.add_node(endpoint_for(50), seeds=(seed_ep,), start_at=cluster.engine.now + 0.1)
        cluster.add_node(endpoint_for(51), seeds=(seed_ep,), start_at=cluster.engine.now + 0.6)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        assert len(cluster.distinct_views()) == 1


class TestSingleResponder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exactly_one_safe_to_join_per_admission(self, seed):
        cluster = harness_for("rapid", seed=seed, settings=settings_for_tests())
        recorder = RecordingNetwork(cluster)
        cluster.bootstrap(12, seed_delay=2.0, stagger=1.0)
        assert cluster.run_until_converged(12, timeout=120.0) is not None
        per_admission: dict = {}
        for sender, dst, _, seq, _ in recorder.safe_to_join():
            per_admission.setdefault((dst, seq), []).append(sender)
        assert per_admission, "no joins observed"
        for key, senders in per_admission.items():
            assert len(senders) == 1, (key, senders)

    def test_replay_assigns_identical_responders(self):
        def responder_map(seed):
            cluster = harness_for("rapid", seed=seed, settings=settings_for_tests())
            recorder = RecordingNetwork(cluster)
            cluster.bootstrap(12, seed_delay=2.0, stagger=1.0)
            assert cluster.run_until_converged(12, timeout=120.0) is not None
            return {
                (dst, seq): sender
                for sender, dst, _, seq, _ in recorder.safe_to_join()
            }

        assert responder_map(5) == responder_map(5)

    def test_disabled_dedup_restores_k_responders(self):
        cluster = harness_for(
            "rapid", seed=1, settings=settings_for_tests(join_single_responder=False)
        )
        recorder = RecordingNetwork(cluster)
        cluster.bootstrap(12, seed_delay=2.0, stagger=1.0)
        assert cluster.run_until_converged(12, timeout=120.0) is not None
        multi = [
            senders
            for (dst, seq), senders in _group(recorder.safe_to_join()).items()
            if len(senders) > 1
        ]
        assert multi, "expected some admissions answered by several observers"


def _group(responses):
    grouped: dict = {}
    for sender, dst, _, seq, _ in responses:
        grouped.setdefault((dst, seq), []).append(sender)
    return grouped


class _FakeJoiner:
    """Just enough of a RapidNode for JoinProtocol unit tests."""

    def __init__(self, runtime):
        from repro.core.node_id import NodeId

        self.runtime = runtime
        self.addr = runtime.addr
        self.node_id = NodeId.fresh(self.addr)
        self.settings = RapidSettings()
        self.seeds = (endpoint_for(99),)
        self._delta_base = None

    def metadata_tuple(self):
        return ()


class TestRetryBehavior:
    def test_retry_jitter_spreads_timeouts(self):
        # Two nodes arming the same nominal delay must not collide on the
        # same instant (their per-process RNG streams differ).
        from repro.core.join import JoinProtocol
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        network = Network(engine, seed=1)
        fire_times = []
        for i in range(4):
            runtime = SimRuntime(engine, network, endpoint_for(i), seed=1)
            protocol = JoinProtocol(_FakeJoiner(runtime))
            protocol.begin()
            fire_times.append(protocol._timeout_handle._event.time)
        assert len(set(fire_times)) == len(fire_times)

    def test_restart_clears_inflight_config_id(self):
        from repro.core.join import JoinProtocol
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        network = Network(engine, seed=1)
        runtime = SimRuntime(engine, network, endpoint_for(0), seed=1)
        protocol = JoinProtocol(_FakeJoiner(runtime))
        protocol.begin()
        protocol._config_id = 1234
        protocol.on_join_response(
            JoinResponse(
                sender=endpoint_for(99),
                status=JoinStatus.CONFIG_CHANGED,
                config_id=5678,
            )
        )
        assert protocol._config_id is None


class TestDuplicateIdempotency:
    """Regression tests for join-path bugs shaken out by the message
    adversary: network-level duplicates must not amplify join traffic."""

    def test_duplicate_join_request_enqueues_one_alert(self):
        from repro.core.messages import JoinRequest

        cluster = converged_cluster(6)
        joiner = endpoint_for(77)
        # Pick a member that actually observes the joiner in the current
        # topology (others answer CONFIG_CHANGED and never alert).
        node = next(
            n
            for n in cluster.agents.values()
            if tuple(n.topology.observer_rings(n.addr, joiner))
        )
        msg = JoinRequest(
            sender=joiner,
            uuid=123456,
            config_id=node.config.config_id,
            metadata=(),
            base_config_id=0,
        )
        node._on_join_request(joiner, msg)
        batched = len(node._alert_batch)
        assert batched >= 1
        node._on_join_request(joiner, msg)  # network duplicate
        assert len(node._alert_batch) == batched
        assert node._pending_joiners[joiner] == (123456, 0)
        # A genuinely new incarnation (fresh uuid) must still re-alert.
        fresh = JoinRequest(
            sender=joiner,
            uuid=999999,
            config_id=node.config.config_id,
            metadata=(),
            base_config_id=0,
        )
        node._on_join_request(joiner, fresh)
        assert len(node._alert_batch) == batched + 1
        assert node._pending_joiners[joiner] == (999999, 0)

    def test_duplicate_safe_to_join_fans_requests_once(self):
        from repro.core.join import JoinProtocol
        from repro.core.messages import PreJoinResponse
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        network = Network(engine, seed=1)
        sent = []
        orig_send = network.send

        def send(src, dst, msg):
            sent.append(type(msg).__name__)
            orig_send(src, dst, msg)

        network.send = send
        runtime = SimRuntime(engine, network, endpoint_for(0), seed=1)
        protocol = JoinProtocol(_FakeJoiner(runtime))
        protocol.begin()
        msg = PreJoinResponse(
            sender=endpoint_for(99),
            status=JoinStatus.SAFE_TO_JOIN,
            config_id=42,
            observers=tuple(endpoint_for(i) for i in (10, 11, 12)),
        )
        protocol.on_pre_join_response(msg)
        assert sent.count("JoinRequest") == 3
        deadline = protocol._timeout_handle._event.time
        protocol.on_pre_join_response(msg)  # network duplicate
        assert sent.count("JoinRequest") == 3  # not re-fanned
        assert protocol._timeout_handle._event.time == deadline  # not re-armed
        # A later attempt (the in-flight id was cleared by a restart)
        # fans out again.
        protocol._config_id = None
        protocol.on_pre_join_response(msg)
        assert sent.count("JoinRequest") == 6


class TestSnapshotSizing:
    def test_view_snapshot_size_is_memoized(self):
        from repro.core.messages import ViewSnapshot

        snapshot = ViewSnapshot(
            members=tuple(endpoint_for(i) for i in range(64)),
            uuids=tuple(range(64)),
            seq=7,
        )
        first = wire_size(snapshot)
        assert snapshot.__dict__.get("_wire_size") is not None
        assert wire_size(snapshot) == first
        # A response embedding the interned snapshot reuses the memo.
        response = JoinResponse(
            sender=endpoint_for(0),
            status=JoinStatus.SAFE_TO_JOIN,
            config_id=1,
            view=snapshot,
        )
        assert wire_size(response) > first
