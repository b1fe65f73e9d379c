"""Artifact cache: fingerprint stability, tiering, persistence."""

import dataclasses

import pytest

from repro.dfg.translate import translate
from repro.dsl import parse
from repro.hw.spec import PASIC_F, XILINX_VU9P
from repro.ml.benchmarks import benchmark
from repro.perf.cache import (
    ArtifactCache,
    cache_disabled,
    cached_translate,
    dfg_fingerprint,
    fingerprint,
    get_cache,
    plan_from_dict,
    plan_to_dict,
)
from repro.planner import Planner
from repro.planner.estimator import CostParams


@pytest.fixture(autouse=True)
def fresh_cache():
    get_cache().clear()
    yield
    get_cache().clear()


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint("a", 1, 2.5) == fingerprint("a", 1, 2.5)

    def test_order_sensitive_for_sequences(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_mapping_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_type_distinguished(self):
        # 1 and 1.0 hash Python-equal as dict keys but are different
        # artifacts' inputs; the float path reprs them apart.
        assert fingerprint(1) != fingerprint(1.0)

    def test_dataclasses_fingerprint_by_content(self):
        assert fingerprint(CostParams()) == fingerprint(CostParams())
        tweaked = dataclasses.replace(CostParams(), bus_hop_cycles=99)
        assert fingerprint(CostParams()) != fingerprint(tweaked)

    def test_chip_specs_distinguished(self):
        assert fingerprint(XILINX_VU9P) != fingerprint(PASIC_F)

    def test_unhashable_types_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_dfg_fingerprint_tracks_content(self):
        lin = "model w; model_input x; gradient g; g = w * x;"
        other = "model w; model_input x; gradient g; g = w + x;"
        a = translate(parse(lin), {})
        b = translate(parse(lin), {})
        c = translate(parse(other), {})
        assert dfg_fingerprint(a.dfg) == dfg_fingerprint(b.dfg)
        assert dfg_fingerprint(a.dfg) != dfg_fingerprint(c.dfg)

    def test_dfg_fingerprint_memoized(self):
        dfg = translate(
            parse("model w; model_input x; gradient g; g = w * x;"), {}
        ).dfg
        first = dfg_fingerprint(dfg)
        assert dfg._perf_fingerprint == first
        assert dfg_fingerprint(dfg) == first


class TestArtifactCache:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        calls = []
        def build():
            return calls.append(1) or "artifact"
        assert cache.get_or_compute("plan", "k", build) == "artifact"
        assert cache.get_or_compute("plan", "k", build) == "artifact"
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_kinds_are_separate_namespaces(self):
        cache = ArtifactCache()
        cache.get_or_compute("plan", "k", lambda: "p")
        assert cache.get_or_compute("compile", "k", lambda: "c") == "c"

    def test_disabled_always_computes(self):
        cache = ArtifactCache(enabled=False)
        calls = []
        def build():
            return calls.append(1) or "x"
        cache.get_or_compute("plan", "k", build)
        cache.get_or_compute("plan", "k", build)
        assert len(calls) == 2
        assert len(cache) == 0

    def test_clear_resets(self):
        cache = ArtifactCache()
        cache.get_or_compute("plan", "k", lambda: "x")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_disk_roundtrip(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.get_or_compute("plan", "k", lambda: {"deep": [1, 2]})
        assert (tmp_path / "plan" / "k.pkl").is_file()
        # A second cache instance (fresh process stand-in) hits disk.
        other = ArtifactCache(disk_dir=tmp_path)
        got = other.get_or_compute(
            "plan", "k", lambda: pytest.fail("must hit disk")
        )
        assert got == {"deep": [1, 2]}
        assert other.stats.disk_hits == 1

    def test_translations_stay_memory_only(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.get_or_compute("translate", "k", lambda: "t")
        assert not (tmp_path / "translate").exists()

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        (tmp_path / "plan").mkdir()
        (tmp_path / "plan" / "k.pkl").write_bytes(b"not a pickle")
        assert cache.get_or_compute("plan", "k", lambda: "fresh") == "fresh"

    def test_cache_disabled_context(self):
        cache = get_cache()
        cache.get_or_compute("translate", "k", lambda: "x")
        with cache_disabled():
            assert not cache.enabled
            assert (
                cache.get_or_compute("translate", "k", lambda: "y") == "y"
            )
        assert cache.enabled


class TestCachedEntryPoints:
    def test_cached_translate_returns_same_object(self):
        src = benchmark("stock").source()
        dims = benchmark("stock").dims
        assert cached_translate(src, dims) is cached_translate(src, dims)

    def test_cached_translate_distinguishes_bindings(self):
        src = benchmark("stock").source()
        a = cached_translate(src, {"n": 8})
        b = cached_translate(src, {"n": 16})
        assert a is not b
        assert a.dfg.extents != b.dfg.extents

    def test_planner_memoizes_across_instances(self):
        bench = benchmark("stock")
        dfg = bench.translate().dfg
        first = Planner(XILINX_VU9P).plan(dfg, 10_000, bench.density)
        second = Planner(XILINX_VU9P).plan(dfg, 10_000, bench.density)
        assert first is second

    def test_plan_dict_roundtrip(self):
        bench = benchmark("stock")
        plan = Planner(XILINX_VU9P).plan(
            bench.translate().dfg, 10_000, bench.density
        )
        rebuilt = plan_from_dict(plan_to_dict(plan))
        assert rebuilt == plan
        assert rebuilt.seconds_for(10_000) == plan.seconds_for(10_000)

    def test_cluster_iteration_memoized_and_transparent(self):
        from repro.runtime import ClusterSimulator, ClusterSpec

        sim = ClusterSimulator(
            ClusterSpec(nodes=8, groups=2),
            lambda node_id, samples: 1e-6 * samples,
            update_bytes=100_000,
        )
        cache = get_cache()
        cached = sim.iteration(8_000)
        again = sim.iteration(8_000)
        assert cache.stats.hits >= 1
        with cache_disabled():
            uncached = sim.iteration(8_000)
        assert cached == again == uncached
        # Hits hand out private list fields, not the cached instance's.
        again.contributors.append(-1)
        assert sim.iteration(8_000).contributors == cached.contributors

    def test_stateful_compute_fn_defeats_memo(self):
        from repro.runtime import ClusterSimulator, ClusterSpec

        import itertools

        ticks = itertools.count(1)
        sim = ClusterSimulator(
            ClusterSpec(nodes=4),
            lambda node_id, samples: 1e-3 * next(ticks),
            update_bytes=100_000,
        )
        first = sim.iteration(4_000)
        second = sim.iteration(4_000)
        # Different injected compute times -> different keys -> a fresh
        # simulation, not a stale hit.
        assert first.total_s != second.total_s

    def test_plan_disk_persistence(self, tmp_path):
        cache = get_cache()
        cache.disk_dir = tmp_path
        try:
            bench = benchmark("stock")
            plan = Planner(XILINX_VU9P).plan(
                bench.translate().dfg, 10_000, bench.density
            )
            pickles = list((tmp_path / "plan").glob("*.pkl"))
            sidecars = list((tmp_path / "plan").glob("*.json"))
            assert len(pickles) == 1 and len(sidecars) == 1
            # Fresh memory tier: the plan must come back from disk, equal.
            cache.clear()
            again = Planner(XILINX_VU9P).plan(
                bench.translate().dfg, 10_000, bench.density
            )
            assert again == plan
            assert cache.stats.disk_hits == 1
        finally:
            cache.disk_dir = None
