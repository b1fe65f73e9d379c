"""Fault-context gating: a faulted cluster must never read or populate
the healthy-run iteration memo."""

import numpy as np
import pytest

from repro.dfg import translate
from repro.dsl import parse
from repro.perf.cache import get_cache
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    FaultSpec,
    FaultTimeline,
    FaultToleranceConfig,
    HeartbeatConfig,
    NodeCrash,
    RetryPolicy,
    apply_faults,
    chaos_train,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    get_cache().clear()
    yield
    get_cache().clear()


def make_sim(faults=None, nodes=8, groups=2):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: 1e-3,
        update_bytes=100_000,
        faults=faults,
    )


def iteration_keys():
    return [k for (k, _) in get_cache()._memory if k == "iteration"]


class TestFaultContextGating:
    def test_faulted_sim_bypasses_memo_and_schedule_cache(self):
        sim = make_sim(faults=FaultSpec(straggler={1: 2.0}))
        cache = get_cache()
        first = sim.iteration(8_000)
        second = sim.iteration(8_000)
        assert first == second  # still deterministic, just uncached
        assert cache.stats.lookups == 0
        assert len(cache) == 0

    def test_cached_healthy_trace_not_replayed_for_faulted_cluster(self):
        """The dangerous ordering: a healthy run populates the memo
        first, then a faulted clone of the *same* topology runs. The
        faulted run must be timed afresh, not served the healthy entry."""
        healthy = make_sim()
        fast = healthy.iteration(8_000)
        assert len(iteration_keys()) == 1  # the healthy entry is there
        lookups = get_cache().stats.lookups
        faulted = apply_faults(
            healthy, FaultSpec(straggler={1: 3.0}, link_quality={2: 0.5})
        )
        slow = faulted.iteration(8_000)
        assert slow.total_s > fast.total_s
        assert get_cache().stats.lookups == lookups

    def test_apply_faults_sets_fault_context(self):
        spec = FaultSpec(straggler={1: 2.0})
        faulted = apply_faults(make_sim(), spec)
        assert faulted.faults is spec
        assert make_sim().faults is None

    def test_with_topology_preserves_fault_context(self):
        spec = FaultSpec(straggler={1: 2.0})
        sim = make_sim(faults=spec)
        clone = sim.with_topology(sim.topology)
        assert clone.faults is spec


LINREG = """
mu = 0.05;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


class TestChaosTrainInterplay:
    def _run(self, timeline):
        nodes, n, N = 4, 4, 64
        rng = np.random.default_rng(3)
        w = rng.normal(size=n)
        X = rng.normal(size=(N, n))
        spec = ClusterSpec(nodes=nodes, groups=2)
        def compute(nid, s):
            return 2e-3
        # Fixed fault-tolerance clocks (roughly one iteration ~ 5 ms);
        # deriving them from a healthy simulation here would itself put
        # an entry in the memo these tests inspect.
        it_s = 5e-3
        config = FaultToleranceConfig(
            heartbeat=HeartbeatConfig(period_s=it_s / 2, timeout_s=2 * it_s),
            retry=RetryPolicy(timeout_s=it_s / 2, max_retries=1),
            checkpoint_every=3,
        )
        return chaos_train(
            translate(parse(LINREG), {"n": n}),
            {"x": X, "y": X @ w},
            spec,
            compute,
            10_000,
            timeline=timeline,
            config=config,
            epochs=1,
            minibatch_per_worker=4,
            seed=7,
        )

    def test_faulted_chaos_run_bypasses_memo(self):
        get_cache().clear()
        timeline = FaultTimeline(crashes=(NodeCrash(node_id=3, at_s=0.01),))
        result = self._run(timeline)
        assert result.iterations > 0
        assert iteration_keys() == []

    def test_healthy_chaos_run_may_replay(self, monkeypatch):
        """An empty timeline is no fault context; the healthy chaos run
        goes through the iteration memo, and its misses through the
        timing engine."""
        import repro.runtime.schedule as schedule_mod

        calls = []
        real = schedule_mod.replay_iteration
        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        get_cache().clear()
        result = self._run(FaultTimeline())
        assert result.iterations > 0
        assert len(iteration_keys()) >= 1
        assert len(calls) == len(iteration_keys())
