"""Property suite for the timing engine's quorum windows.

With a :class:`QuorumConfig`, the engine closes each window on the
booked arrivals and, when a window drops a partial, books that phase
again without the dropped sends. The contracts under test, every
:class:`IterationTiming` field (``contributors`` and ``dropped``
included) compared with ``==``:

* the engine reproduces the quorum timings the per-chunk event-driven
  simulator produced, as captured in
  ``tests/runtime/golden_iterations.json``;
* the public, memoized path agrees with calling the engine directly.

The edge cases the window rule can hit are pinned deterministically:
drop-none (``fraction=1.0`` degenerates to the barrier),
drop-all-but-K (a tiny deadline), and a deadline landing exactly on an
arrival.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.cluster as cluster_mod
from repro.perf.cache import get_cache
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    QuorumConfig,
    record_schedule,
    replay_iteration,
)
from tests.properties.test_schedule_replay import (
    assert_bit_identical,
    clusters,
    replay_golden_case,
)
from tests.runtime.test_golden_iterations import CASES, timing_reprs

# Fractions cross the K=1, intermediate-K, and K=N regimes; deadlines
# range from certainly-dropping (0.1 ms) to certainly-waiting (50 ms,
# above the largest compute spread the cluster strategy can draw).
quorum_rules = st.builds(
    QuorumConfig,
    fraction=st.sampled_from([0.3, 0.5, 0.75, 0.9, 1.0]),
    deadline_s=st.sampled_from([1e-4, 1e-3, 5e-3, 5e-2]),
)


def straggler_sim(nodes=8, groups=2, slow=(3, 6), factor=30.0):
    """Deterministic heterogeneous cluster: ``slow`` nodes compute
    ``factor``x slower than the 1 ms baseline."""
    compute = [1e-3 * (factor if n in slow else 1.0) for n in range(nodes)]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute[node_id],
        update_bytes=100_000,
    )
    return sim, compute


def plan_of(sim):
    return record_schedule(sim.topology, sim.update_bytes)


class TestQuorumReplayDifferential:
    def test_replay_bit_identical_to_event_driven(self):
        """Every quorum golden case (captured from the per-chunk
        event-driven simulator) is reproduced by the module API."""
        windowed = [label for label, case in CASES.items() if case[2]]
        assert windowed
        for label in windowed:
            timing, golden = replay_golden_case(label)
            assert timing_reprs(timing) == golden, label

    @given(
        clusters(),
        quorum_rules,
        st.integers(min_value=1, max_value=50_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_public_iteration_agrees_with_replay(self, cluster, rule, batch):
        """End-to-end: ``iteration(quorum=...)``, on a memo miss and on
        the hit after it, returns exactly what the engine returns when
        called directly."""
        sim, compute = cluster
        direct = replay_iteration(
            plan_of(sim), sim.spec, list(compute), quorum=rule
        )
        get_cache().clear()
        try:
            missed = sim.iteration(batch, quorum=rule)
            hit = sim.iteration(batch, quorum=rule)
        finally:
            get_cache().clear()
        assert_bit_identical(direct, missed, "iteration() miss vs engine")
        assert_bit_identical(direct, hit, "iteration() hit vs engine")
        assert sorted(missed.contributors + missed.dropped) == list(
            range(sim.topology.nodes)
        )


class TestQuorumWindowEdges:
    def test_fraction_one_degenerates_to_barrier(self):
        """K=N closes the window at the last arrival regardless of the
        deadline — bit-identical to no quorum at all, nobody dropped."""
        sim, compute = straggler_sim()
        plan = plan_of(sim)
        barrier = replay_iteration(plan, sim.spec, list(compute))
        for deadline in (1e-6, 10.0):
            rule = QuorumConfig(fraction=1.0, deadline_s=deadline)
            windowed = replay_iteration(
                plan, sim.spec, list(compute), quorum=rule
            )
            assert_bit_identical(barrier, windowed, f"deadline={deadline}")
            assert windowed.dropped == []

    def test_tiny_deadline_drops_all_but_quorum(self):
        """drop-all-but-K: with K=1 per window and a deadline far under
        the straggler gap, only the window openers survive."""
        slow = (1, 2, 3, 5, 6, 7)
        sim, compute = straggler_sim(slow=slow, factor=100.0)
        rule = QuorumConfig(fraction=0.2, deadline_s=1e-4)
        windowed = replay_iteration(
            plan_of(sim), sim.spec, list(compute), quorum=rule
        )
        barrier = replay_iteration(plan_of(sim), sim.spec, list(compute))
        assert len(windowed.dropped) > 0
        assert windowed.total_s < barrier.total_s
        # The master opens its own window, so it always survives; a slow
        # delta can only be dropped, never promoted.
        master = sim.topology.master.node_id
        assert master in windowed.contributors
        assert master not in slow

    def test_deadline_landing_exactly_on_an_arrival(self, monkeypatch):
        """The tie case: a deadline that expires at the very instant a
        partial finishes. The window rule includes ties (``<= close``).

        The exact arrival times are recovered from a capture run through
        ``_close_window``, then each observed gap is fed back as
        ``deadline_s`` so the close lands exactly on a later
        contributor's arrival."""
        sim, compute = straggler_sim(slow=(3,), factor=20.0)
        plan = plan_of(sim)
        captured = []
        real = cluster_mod._close_window

        def spy(contributions, quorum):
            captured.append(list(contributions))
            return real(contributions, quorum)

        monkeypatch.setattr(cluster_mod, "_close_window", spy)
        replay_iteration(
            plan,
            sim.spec,
            list(compute),
            quorum=QuorumConfig(fraction=1.0, deadline_s=10.0),
        )
        monkeypatch.setattr(cluster_mod, "_close_window", real)

        window = max(captured, key=len)
        times = sorted(t for _, t in window)
        gaps = [t - times[0] for t in times[1:] if t > times[0]]
        assert gaps, "degenerate capture: every contribution tied"

        for gap in gaps:
            rule = QuorumConfig(fraction=0.01, deadline_s=gap)
            windowed = replay_iteration(
                plan, sim.spec, list(compute), quorum=rule
            )
            # the tied arrival itself must be included, not dropped
            tied = [n for n, t in window if t == times[0] + gap]
            assert tied
            assert set(tied) <= set(windowed.contributors)

    def test_memoized_quorum_iterations_stay_distinct(self):
        """The iteration memo key carries the quorum rule: two different
        windows on the same cluster never collide, and a repeat of the
        same window is served from the memo unchanged."""
        sim, _ = straggler_sim()
        get_cache().clear()
        try:
            tight = QuorumConfig(fraction=0.5, deadline_s=1e-4)
            loose = QuorumConfig(fraction=1.0, deadline_s=10.0)
            first = sim.iteration(8_000, quorum=tight)
            again = sim.iteration(8_000, quorum=tight)
            barrier = sim.iteration(8_000, quorum=loose)
            assert get_cache().stats.hits == 1
        finally:
            get_cache().clear()
        assert_bit_identical(first, again, "memo round-trip")
        assert first.total_s < barrier.total_s
        assert first.dropped and not barrier.dropped
