"""Property-based tests for the perf subsystem's determinism contracts.

Three invariants the perf work rests on:

* caching is invisible — a cached plan/compile equals the uncached one;
* vectorizing is invisible — the closed-form MIMD batch model equals the
  scalar reference cycle-for-cycle;
* batching is invisible — a slice of one batched interpreter call
  equals the call on that slice bit for bit, and so does its mean, so
  the trainer's one-call minibatch step equals one call per shard.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stack import CosmicStack
from repro.dfg import Interpreter, ir
from repro.hw.accelerator import MimdTimingModel
from repro.hw.spec import XILINX_VU9P
from repro.ml.benchmarks import BENCHMARKS, benchmark
from repro.perf.cache import cache_disabled, get_cache
from repro.planner import Planner
from repro.runtime import DistributedTrainer
from tests.dfg.test_golden_interpreter import seeded_feeds

SMALL_BENCHES = ("stock", "tumor", "face")


class TestCacheTransparency:
    @given(
        name=st.sampled_from(SMALL_BENCHES),
        minibatch=st.sampled_from([1_000, 10_000, 100_000]),
    )
    @settings(max_examples=15, deadline=None)
    def test_cached_plan_equals_uncached(self, name, minibatch):
        bench = benchmark(name)
        dfg = bench.translate().dfg
        get_cache().clear()
        cached = Planner(XILINX_VU9P).plan(dfg, minibatch, bench.density)
        with cache_disabled():
            uncached = Planner(XILINX_VU9P).plan(
                dfg, minibatch, bench.density
            )
        assert cached == uncached
        assert cached.seconds_for(minibatch) == uncached.seconds_for(
            minibatch
        )

    @given(name=st.sampled_from(SMALL_BENCHES))
    @settings(max_examples=6, deadline=None)
    def test_cached_compile_equals_uncached(self, name):
        stack = CosmicStack.from_benchmark(benchmark(name))
        get_cache().clear()
        cached = stack.compile(rows=2, columns=4)
        with cache_disabled():
            uncached = CosmicStack.from_benchmark(benchmark(name)).compile(
                rows=2, columns=4
            )
        assert cached.cycles == uncached.cycles
        assert cached.mapping.pe_of_node == uncached.mapping.pe_of_node
        assert cached.cross_pe_operands == uncached.cross_pe_operands


class TestVectorizedMimdModel:
    @given(
        threads=st.integers(1, 64),
        compute=st.integers(1, 5_000),
        sample_words=st.integers(0, 2_000),
        columns=st.integers(1, 32),
        preload=st.integers(0, 10_000),
        drain=st.integers(0, 2_000),
        samples=st.integers(0, 3_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(
        self, threads, compute, sample_words, columns, preload, drain, samples
    ):
        model = MimdTimingModel(
            threads=threads,
            compute_cycles=compute,
            sample_words=sample_words,
            columns=columns,
            preload_words=preload,
            drain_words=drain,
        )
        fast = model.run_batch(samples, vectorized=True)
        slow = model.run_batch(samples, vectorized=False)
        assert fast == slow


@functools.lru_cache(maxsize=None)
def _interpreter(name, scale):
    """One interpreter per benchmark DFG for the whole module."""
    dfg = benchmark(name).translate(scaled=scale == "functional").dfg
    return Interpreter(dfg)


class TestInterpreterBatchSlices:
    #: Paper-scale intermediates reach (B, 784, 784), so keep B small.
    MAX_BATCH = {"functional": 64, "paper": 4}

    @given(
        name=st.sampled_from([b.name for b in BENCHMARKS]),
        scale=st.sampled_from(("functional", "paper")),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_slice_equals_call_on_slice(self, name, scale, seed, data):
        batch = data.draw(st.integers(1, self.MAX_BATCH[scale]))
        lo = data.draw(st.integers(0, batch - 1))
        hi = data.draw(st.integers(lo + 1, batch))
        interp = _interpreter(name, scale)
        data_names = {v.name for v in interp.dfg.inputs_of_category(ir.DATA)}
        feeds = seeded_feeds(interp.dfg, seed, batch)
        part_feeds = {
            k: v[lo:hi] if k in data_names else v for k, v in feeds.items()
        }
        with np.errstate(all="ignore"):
            full = interp.gradients(feeds, batch=True)
            part = interp.gradients(part_feeds, batch=True)
            assert full.keys() == part.keys()
            for key in full:
                sliced = full[key][lo:hi]
                assert sliced.shape == part[key].shape
                assert sliced.tobytes() == part[key].tobytes()
                assert (
                    sliced.mean(axis=0).tobytes()
                    == part[key].mean(axis=0).tobytes()
                )


def _step_per_shard(translation, model, feeds, shards, mu):
    """The reference the batched minibatch step must match: one
    interpreter call per shard, each partial that call's mean."""
    interp = Interpreter(translation.dfg)
    partials = []
    for shard in shards:
        shard_feeds = {k: v[shard] for k, v in feeds.items()}
        grads = interp.gradients({**shard_feeds, **model}, batch=True)
        partials.append({k: v.mean(axis=0) for k, v in grads.items()})
    spec = translation.aggregator
    for target, source in spec.pairs:
        stack = np.stack([p[source] for p in partials])
        agg = stack.mean(axis=0) if spec.kind == "mean" else stack.sum(axis=0)
        model[target] = model[target] - mu * agg


class TestBatchedTrainerStep:
    @given(
        name=st.sampled_from([b.name for b in BENCHMARKS]),
        sizes=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_step_equals_per_shard_loop(self, name, sizes, seed, data):
        drop = data.draw(st.sets(st.integers(0, len(sizes) - 1)))
        bench = benchmark(name)
        translation = bench.translate(scaled=True)
        feeds = bench.make_dataset(64, seed=seed % 1000).feeds
        rng = np.random.default_rng(seed)
        order = rng.permutation(64)
        shards = np.split(order[: sum(sizes)], np.cumsum(sizes)[:-1])
        trainer = DistributedTrainer(translation)
        model = {
            k: rng.normal(scale=0.1, size=v.shape)
            for k, v in trainer.initial_model().items()
        }
        expected = {k: v.copy() for k, v in model.items()}
        survivors = [
            s for i, s in enumerate(shards) if i not in drop and len(s)
        ]
        mu = translation.learning_rate
        assert trainer.step(model, feeds, shards, mu, drop=drop) == bool(
            survivors
        )
        if survivors:
            _step_per_shard(translation, expected, feeds, survivors, mu)
        assert model.keys() == expected.keys()
        for key in model:
            assert model[key].tobytes() == expected[key].tobytes()
