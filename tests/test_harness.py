"""The one harness: every system is built and driven through the same code.

Each entry of :data:`repro.experiments.harness.SYSTEMS` is bootstrapped,
settled, loses one process, and must converge on the survivors with the
crashed process out of ``live_endpoints``.  A late joiner added the way
the repository benchmark adds one (``h.cluster.add_node`` plus extending
the list ``bootstrap`` returned) must be counted exactly once.
"""

import pytest

from repro.experiments.harness import SYSTEMS, Harness, harness_for
from repro.experiments.scenarios import join_churn_experiment
from repro.sim.cluster import endpoint_for


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_bootstrap_crash_and_converge(system, n):
    h = harness_for(system, seed=1)
    eps = h.bootstrap(n, seed_delay=2.0, stagger=1.0)
    assert h.run_until_converged(n, timeout=120.0) is not None
    assert h.converged(n)
    assert len(h.live_endpoints()) == n
    # Settle first: failure detectors need a heartbeat history to suspect.
    h.run_for(10.0)
    h.crash([eps[-1]])
    assert len(h.live_endpoints()) == n - 1
    assert eps[-1] not in h.live_endpoints()
    assert h.run_until_converged(n - 1, timeout=120.0) is not None
    assert h.converged(n - 1)


def test_late_joiner_is_counted_once():
    n = 5
    h = harness_for("rapid", seed=1)
    eps = h.bootstrap(n, seed_delay=2.0, stagger=1.0)
    assert h.run_until_converged(n, timeout=120.0) is not None
    joiner = endpoint_for(n)
    h.cluster.add_node(joiner, seeds=(eps[0],), start_at=h.engine.now + 1.0)
    eps.extend([joiner])
    assert len(h.live_endpoints()) == n + 1
    assert h.run_until_converged(n + 1, timeout=120.0) is not None


def test_join_churn_rejects_a_baseline_before_bootstrapping(monkeypatch):
    def bootstrap(self, *args, **kwargs):
        raise AssertionError("bootstrapped before rejecting the system")

    monkeypatch.setattr(Harness, "bootstrap", bootstrap)
    with pytest.raises(ValueError, match="join_churn requires a Rapid harness"):
        join_churn_experiment("memberlist", 8)
