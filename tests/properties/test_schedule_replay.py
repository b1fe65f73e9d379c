"""Property suite for the timing engine's module API, barrier windows.

``record_schedule`` builds a send plan from the topology and
``replay_iteration`` times it; ``ClusterSimulator.iteration`` is the
memoized public path over the same two functions. The contracts under
test, every :class:`IterationTiming` field compared with ``==``:

* the engine reproduces the timings the per-chunk event-driven
  simulator produced, as captured in ``tests/runtime/golden_iterations.json``;
* one plan retimes any compute profile: the plan holds no timing;
* the public path agrees with calling the two functions directly.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.cache import cache_disabled, get_cache
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    IterationTiming,
    NetworkConfig,
    record_schedule,
    replay_iteration,
)
from tests.runtime.test_golden_iterations import CASES, GOLDEN, timing_reprs

# Sampled (not continuous) parameters keep every example on a realistic
# operating point while still crossing the interesting structural
# boundaries: multi-chunk vs single-chunk messages, zero vs non-zero
# latency/overheads, exact chunk-boundary payloads.
network_configs = st.builds(
    NetworkConfig,
    bandwidth_bps=st.sampled_from([1e8, 1e9, 1e10]),
    latency_s=st.sampled_from([0.0, 5e-6, 50e-6]),
    per_message_overhead_s=st.sampled_from([0.0, 37e-6, 200e-6]),
    per_chunk_overhead_s=st.sampled_from([0.0, 5e-6]),
    chunk_bytes=st.sampled_from([4096, 65536, 100_000]),
)

update_sizes = st.sampled_from([7, 4_096, 65_536, 100_000, 333_333])


@st.composite
def clusters(draw):
    """A ClusterSimulator plus heterogeneous per-node compute times."""
    nodes = draw(st.integers(min_value=1, max_value=12))
    groups = draw(st.integers(min_value=1, max_value=nodes))
    spec = ClusterSpec(
        nodes=nodes, groups=groups, network=draw(network_configs)
    )
    compute = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.05),
            min_size=nodes,
            max_size=nodes,
        )
    )
    sim = ClusterSimulator(
        spec,
        lambda node_id, samples: compute[node_id],
        update_bytes=draw(update_sizes),
    )
    return sim, compute


def assert_bit_identical(a: IterationTiming, b: IterationTiming, label: str):
    for f in dataclasses.fields(IterationTiming):
        left, right = getattr(a, f.name), getattr(b, f.name)
        assert left == right, (
            f"{label}: IterationTiming.{f.name} diverged: "
            f"{left!r} != {right!r}"
        )


def replay_golden_case(label):
    """Time a golden case through the module API, bypassing the
    simulator; returns the timing and the case's golden field reprs."""
    factory, batch, rule = CASES[label]
    sim = factory()
    quorum = rule(sim) if rule is not None else None
    per_node = max(1, batch // sim.topology.nodes)
    compute = [
        sim._compute_seconds(role.node_id, per_node)
        for role in sim.topology.roles
    ]
    plan = record_schedule(sim.topology, sim.update_bytes)
    timing = replay_iteration(plan, sim.spec, compute, quorum=quorum)
    return timing, json.loads(GOLDEN.read_text())[label]


def sim_with(sim, compute):
    """``sim``'s cluster with a different compute profile."""
    return ClusterSimulator(
        sim.spec,
        lambda node_id, samples: compute[node_id],
        update_bytes=sim.update_bytes,
    )


class TestReplayDifferential:
    def test_replay_bit_identical_to_event_driven(self):
        """Every barrier golden case (captured from the per-chunk
        event-driven simulator) is reproduced by the module API."""
        barrier = [label for label, case in CASES.items() if case[2] is None]
        assert barrier
        for label in barrier:
            timing, golden = replay_golden_case(label)
            assert timing_reprs(timing) == golden, label

    @given(clusters())
    @settings(max_examples=10, deadline=None)
    def test_one_trace_retimes_any_compute_profile(self, cluster):
        """The plan is canonical: built once, it times compute profiles
        it never saw exactly as a simulator built for each would."""
        sim, compute = cluster
        plan = record_schedule(sim.topology, sim.update_bytes)
        for scale in (0.0, 1.0, 3.5):
            times = [t * scale for t in compute]
            other = sim_with(sim, times)
            assert record_schedule(other.topology, other.update_bytes) == plan
            with cache_disabled():
                fresh = other.iteration(1_000)
            replayed = replay_iteration(plan, sim.spec, list(times))
            assert_bit_identical(fresh, replayed, f"scale={scale}")

    @given(clusters(), st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=10, deadline=None)
    def test_public_iteration_agrees_with_replay(self, cluster, batch):
        """End-to-end: ``iteration()``, on a memo miss and on the hit
        after it, returns exactly what the engine returns when called
        directly."""
        sim, compute = cluster
        plan = record_schedule(sim.topology, sim.update_bytes)
        direct = replay_iteration(plan, sim.spec, list(compute))
        get_cache().clear()
        try:
            missed = sim.iteration(batch)
            hit = sim.iteration(batch)
        finally:
            get_cache().clear()
        assert_bit_identical(direct, missed, "iteration() miss vs engine")
        assert_bit_identical(direct, hit, "iteration() hit vs engine")
