"""The send plan and how ``ClusterSimulator.iteration`` reaches the
timing engine."""

import math

import pytest

import repro.runtime.schedule as schedule_mod
from repro.perf.cache import get_cache
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    QuorumConfig,
    rebuild_topology,
    record_schedule,
    replay_iteration,
)
from repro.runtime.network import Network
from repro.runtime.schedule import replay_enabled
from repro.runtime.threads import SigmaPipeline


@pytest.fixture(autouse=True)
def fresh_cache():
    get_cache().clear()
    yield
    get_cache().clear()


def make_sim(nodes=8, groups=2, update_bytes=100_000, compute=1e-3):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: compute,
        update_bytes=update_bytes,
    )


def varied_sim(nodes=8, groups=2, update_bytes=200_000):
    """Compute times with ties and out-of-id-order finishes."""
    times = [1e-3 * (1 + (3 * n) % 4) for n in range(nodes)]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups),
        lambda node_id, samples: times[node_id],
        update_bytes=update_bytes,
    )
    return sim, times


def capture_engine(monkeypatch):
    """Record every NIC booking ``(src, dst, nbytes, start, arrivals)``
    and every chunk batch ``(arrivals, sizes)`` fed to a Sigma."""
    bookings, batches = [], []
    book, on_chunks = Network.book, SigmaPipeline.on_chunks

    def spy_book(self, src, dst, nbytes, start):
        arrivals = book(self, src, dst, nbytes, start)
        bookings.append((src, dst, nbytes, start, list(arrivals)))
        return arrivals

    def spy_on_chunks(self, arrivals, sizes):
        batches.append((list(arrivals), list(sizes)))
        return on_chunks(self, arrivals, sizes)

    monkeypatch.setattr(Network, "book", spy_book)
    monkeypatch.setattr(SigmaPipeline, "on_chunks", spy_on_chunks)
    return bookings, batches


def iteration_keys():
    return [k for (k, _) in get_cache()._memory if k == "iteration"]


class TestRecording:
    def test_trace_structure_matches_topology(self):
        sim = make_sim(nodes=9, groups=3, update_bytes=12_345)
        plan = record_schedule(sim.topology, sim.update_bytes)
        topo = sim.topology
        assert plan.update_bytes == 12_345
        assert plan.node_ids == tuple(r.node_id for r in topo.roles)
        assert plan.master == topo.master.node_id
        assert plan.sigmas == tuple(s.node_id for s in topo.sigmas())
        for sigma, deltas in zip(plan.sigmas, plan.deltas):
            assert deltas == tuple(r.node_id for r in topo.deltas_of(sigma))

    def test_single_node_trace_is_empty(self):
        plan = record_schedule(make_sim(nodes=1, groups=1).topology, 10)
        assert plan.sigmas == (0,)
        assert plan.deltas == ((),)

    def test_plan_follows_a_reformed_hierarchy(self):
        """After failover the master need not be the first Sigma, and
        Deltas report to promoted Sigmas."""
        base = make_sim(nodes=16, groups=4).topology
        alive = [n for n in range(16) if n not in (0, 4)]
        topo = rebuild_topology(base, alive, prefer_master=8)
        plan = record_schedule(topo, 100)
        assert plan.master == topo.master.node_id
        assert plan.master != plan.sigmas[0]
        for sigma, deltas in zip(plan.sigmas, plan.deltas):
            assert deltas == tuple(r.node_id for r in topo.deltas_of(sigma))

    def test_replay_enabled_is_constant(self):
        assert replay_enabled() is True

    def test_arrival_points_cover_every_aggregation_point(self):
        """Every Sigma is an aggregation point fed by the rest of its
        group, and the master's reduce point by every other Sigma."""
        sim = make_sim(nodes=9, groups=3, update_bytes=200_000)
        plan = record_schedule(sim.topology, sim.update_bytes)
        topo = sim.topology
        assert set(plan.sigmas) == {s.node_id for s in topo.sigmas()}
        for sigma, deltas in zip(plan.sigmas, plan.deltas):
            group = next(r.group for r in topo.sigmas() if r.node_id == sigma)
            assert set(deltas) == {
                r.node_id
                for r in topo.roles
                if r.group == group and r.node_id != sigma
            }
        senders = [d for deltas in plan.deltas for d in deltas]
        assert sorted(senders + list(plan.sigmas)) == list(range(9))
        assert plan.master in plan.sigmas

    def test_arrival_point_chunks_match_recorded_bookings(self, monkeypatch):
        """Each Sigma's chunk batch is exactly the chunks booked to it,
        chunked at ``chunk_bytes``, in (arrival, booking) order."""
        sim, compute = varied_sim(nodes=6, groups=2)
        plan = record_schedule(sim.topology, sim.update_bytes)
        bookings, batches = capture_engine(monkeypatch)
        replay_iteration(plan, sim.spec, compute)
        chunk_bytes = sim.spec.network.chunk_bytes
        expected = {}
        # Gather bookings, then reduce bookings, then the broadcast. The
        # master aggregates twice, so a batch is keyed by phase too.
        gathered = sum(len(d) for d in plan.deltas)
        aggregated = gathered + len(plan.sigmas) - 1
        for i, (src, dst, nbytes, _, arrivals) in enumerate(
            bookings[:aggregated]
        ):
            assert len(arrivals) == math.ceil(nbytes / chunk_bytes)
            assert arrivals == sorted(arrivals)
            sizes = [chunk_bytes] * (len(arrivals) - 1)
            sizes.append(nbytes - sum(sizes))
            key = (i < gathered, dst)
            expected.setdefault(key, []).extend(zip(arrivals, sizes))
        want = sorted(
            ([a for a, _ in chunks], [n for _, n in chunks])
            for chunks in (
                sorted(chunks, key=lambda c: c[0])
                for chunks in expected.values()
            )
        )
        assert sorted(batches) == want

    def test_arrival_point_senders_ordered_by_completion(self, monkeypatch):
        """Partials are booked in the order their senders finish
        computing (node id breaks ties), so the NICs serve them
        first-come-first-served; chunks then reach each Sigma in arrival
        order."""
        sim, compute = varied_sim(nodes=8, groups=2)
        plan = record_schedule(sim.topology, sim.update_bytes)
        bookings, batches = capture_engine(monkeypatch)
        replay_iteration(plan, sim.spec, compute)
        gather = bookings[: sum(len(d) for d in plan.deltas)]
        order = [(start, src) for src, _, _, start, _ in gather]
        assert order == sorted(order)
        assert len({start for start, _ in order}) < len(order)  # ties
        for arrivals, _ in batches:
            assert arrivals == sorted(arrivals)

    def test_cache_key_tracks_schedule_inputs(self):
        """The iteration memo keys on the schedule inputs: a different
        hierarchy or update size is a miss, the same ones a hit."""
        make_sim(nodes=8, groups=2).iteration(8_000)
        make_sim(nodes=8, groups=4).iteration(8_000)
        make_sim(nodes=8, groups=2, update_bytes=200_000).iteration(8_000)
        assert get_cache().stats.hits == 0
        make_sim(nodes=8, groups=2).iteration(8_000)
        assert get_cache().stats.hits == 1
        assert len(iteration_keys()) == 3


class TestTraceCaching:
    def test_trace_recorded_once_across_minibatches(self, monkeypatch):
        """A simulator builds its send plan once: later minibatches miss
        the iteration memo (their compute times differ) but reuse the
        plan. A re-formed hierarchy gets its own plan."""
        recordings = []
        real = schedule_mod.record_schedule
        monkeypatch.setattr(
            schedule_mod,
            "record_schedule",
            lambda *a, **k: recordings.append(1) or real(*a, **k),
        )
        sim = ClusterSimulator(
            ClusterSpec(nodes=8, groups=2),
            lambda node_id, samples: samples * 1e-7,
            update_bytes=100_000,
        )
        sim.iteration(8_000)
        sim.iteration(16_000)
        sim.iteration(24_000)
        assert len(recordings) == 1
        assert len(iteration_keys()) == 3
        alive = [n for n in range(8) if n != 0]
        sim.with_topology(rebuild_topology(sim.topology, alive)).iteration(
            8_000
        )
        assert len(recordings) == 2


class TestReplayGating:
    def test_quorum_iterations_replay(self, monkeypatch):
        """A quorum iteration goes through the engine, which receives the
        quorum rule."""
        calls = []
        real = schedule_mod.replay_iteration
        monkeypatch.setattr(
            schedule_mod,
            "replay_iteration",
            lambda *a, **k: calls.append(k.get("quorum")) or real(*a, **k),
        )
        rule = QuorumConfig(fraction=0.5)
        timing = make_sim().iteration(8_000, quorum=rule)
        assert timing.total_s > 0
        assert calls == [rule]


class TestReplayValidation:
    def test_compute_times_length_checked(self):
        sim = make_sim(nodes=4, groups=2)
        plan = record_schedule(sim.topology, sim.update_bytes)
        with pytest.raises(ValueError, match="compute times"):
            replay_iteration(plan, sim.spec, [1e-3] * 3)


class TestEndToEnd:
    def test_replay_used_on_the_cached_path(self, monkeypatch):
        """``iteration`` looks both engine functions up on the module at
        call time, so wrappers installed there see every memo miss."""
        calls = []
        for name in ("record_schedule", "replay_iteration"):
            real = getattr(schedule_mod, name)
            monkeypatch.setattr(
                schedule_mod,
                name,
                lambda *a, _real=real, _name=name, **k: (
                    calls.append(_name) or _real(*a, **k)
                ),
            )
        sim = make_sim()
        sim.iteration(8_000)
        sim.iteration(8_000)  # a memo hit
        assert calls == ["record_schedule", "replay_iteration"]
