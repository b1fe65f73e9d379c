"""Golden iteration timings: every ``IterationTiming`` field, pinned.

Each case builds a cluster, runs ``ClusterSimulator.iteration`` and
compares the ``repr`` of every field with ``golden_iterations.json``.
The cases cover 1 to 1024 nodes with default and explicit groups,
barrier and quorum windows (``fraction=1.0``, drop-all-but-K, a deadline
that lands exactly on an arrival), seeded straggler profiles, a chunk
size that does not divide the update, single-chunk messages, a Sigma
pipeline whose circular buffer stalls, a post-failover hierarchy and a
faulted simulator.

Each case runs twice: once through the artifact cache and once with it
disabled, so the memo never hides the timing engine.

Regenerate (only when a timing change is intended) with::

    PYTHONPATH=src python tests/runtime/test_golden_iterations.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.cluster as cluster_mod
from repro.perf.cache import cache_disabled, get_cache
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    FaultSpec,
    IterationTiming,
    NetworkConfig,
    PoolConfig,
    QuorumConfig,
    apply_faults,
    rebuild_topology,
)

GOLDEN = Path(__file__).with_name("golden_iterations.json")

UPDATE_BYTES = 100_000


def varied(node_id, samples):
    """Deterministic heterogeneous compute: five speed classes."""
    return samples * 1e-7 * (1.0 + 0.1 * (node_id % 5))


def sim(nodes, groups=None, update_bytes=UPDATE_BYTES, compute=varied,
        **spec):
    return ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=groups, **spec),
        compute,
        update_bytes,
    )


def stragglers(nodes, seed):
    """5% of the nodes, at seeded positions, run 1.5-4x slower."""
    rng = np.random.default_rng(seed)
    profile = np.ones(nodes)
    slow = rng.choice(nodes, size=max(1, nodes // 20), replace=False)
    profile[slow] = rng.permutation(np.linspace(1.5, 4.0, len(slow)))
    profile = profile.tolist()
    return lambda node_id, samples: samples * 1e-7 * profile[node_id]


def fixed(times):
    return lambda node_id, samples: times[node_id]


def slow_nodes(nodes, slow, factor):
    return fixed([1e-3 * (factor if n in slow else 1.0) for n in range(nodes)])


def tie_deadline(simulator, batch):
    """A deadline that closes a window exactly on a later arrival.

    A barrier run is observed through ``_close_window`` (the window rule
    the engine applies); the gap from the largest window's first arrival
    to its second is that deadline.
    """
    captured = []
    real = cluster_mod._close_window

    def spy(contributions, quorum):
        captured.append(list(contributions))
        return real(contributions, quorum)

    cluster_mod._close_window = spy
    try:
        with cache_disabled():
            simulator.iteration(batch, quorum=QuorumConfig(1.0, 10.0))
    finally:
        cluster_mod._close_window = real
    times = sorted(t for _, t in max(captured, key=len))
    return next(t - times[0] for t in times[1:] if t > times[0])


def failover():
    """16 nodes in 4 groups after the master (0) and a Sigma (4) died."""
    base = sim(16, groups=4)
    alive = [n for n in range(16) if n not in (0, 4)]
    return base.with_topology(rebuild_topology(base.topology, alive))


def faulted():
    return apply_faults(
        sim(12, groups=3),
        FaultSpec(straggler={1: 3.0, 7: 2.0}, link_quality={2: 0.5}),
    )


def stalling():
    """Fast links feeding slow pools: 1 MB partials arrive far faster
    than they aggregate, so the 4 MB circular buffer fills and stalls."""
    return sim(
        9,
        groups=1,
        update_bytes=1_000_000,
        network=NetworkConfig(bandwidth_bps=1e11),
        pools=PoolConfig(copy_bytes_per_s=5e9, aggregate_bytes_per_s=5e7),
    )


BATCH = 8_000

#: label -> (simulator factory, global batch, quorum factory or None).
#: Quorum factories take the simulator, so a rule can depend on it.
CASES = {}
for _n in (1, 2, 4, 9, 64, 256, 1024):
    CASES[f"n{_n}"] = (lambda n=_n: sim(n), BATCH * _n, None)
for _n, _g in ((2, 2), (4, 1), (9, 3), (9, 9), (64, 4), (256, 16),
               (1024, 16)):
    CASES[f"n{_n}-g{_g}"] = (lambda n=_n, g=_g: sim(n, g), BATCH * _n, None)
CASES.update({
    "n9-g3-fraction1-deadline1us": (
        lambda: sim(9, 3), BATCH * 9, lambda s: QuorumConfig(1.0, 1e-6),
    ),
    "n9-g3-fraction1-deadline10s": (
        lambda: sim(9, 3), BATCH * 9, lambda s: QuorumConfig(1.0, 10.0),
    ),
    "n8-g2-drop-all-but-k": (
        lambda: sim(8, 2, compute=slow_nodes(8, (1, 2, 3, 5, 6, 7), 100.0)),
        BATCH * 8,
        lambda s: QuorumConfig(0.2, 1e-4),
    ),
    "n8-g2-deadline-on-arrival": (
        lambda: sim(8, 2, compute=slow_nodes(8, (3,), 20.0)),
        BATCH * 8,
        lambda s: QuorumConfig(0.01, tie_deadline(s, BATCH * 8)),
    ),
    "n64-quorum-0.75": (
        lambda: sim(64, compute=stragglers(64, 7)),
        BATCH * 64,
        lambda s: QuorumConfig(0.75, 1e-4),
    ),
    "chunk-not-dividing": (
        lambda: sim(9, 3, update_bytes=333_333,
                    network=NetworkConfig(chunk_bytes=100_000)),
        BATCH * 9,
        None,
    ),
    "single-chunk-tiny-update": (
        lambda: sim(9, 3, update_bytes=7), BATCH * 9, None,
    ),
    "single-chunk-large-chunks": (
        lambda: sim(9, 3, update_bytes=65_536,
                    network=NetworkConfig(chunk_bytes=1 << 20)),
        BATCH * 9,
        None,
    ),
    "buffer-stall": (stalling, BATCH * 9, None),
    "buffer-stall-quorum": (
        stalling, BATCH * 9, lambda s: QuorumConfig(0.5, 1e-3),
    ),
    "failover": (failover, BATCH * 14, None),
    "failover-quorum": (
        failover, BATCH * 14, lambda s: QuorumConfig(0.75, 1e-5),
    ),
    "faulted": (faulted, BATCH * 12, None),
    "faulted-quorum": (
        faulted, BATCH * 12, lambda s: QuorumConfig(0.5, 1e-4),
    ),
})
for _n in (64, 256):
    for _seed in (1, 2):
        _factory = (
            lambda n=_n, seed=_seed: sim(n, compute=stragglers(n, seed))
        )
        CASES[f"n{_n}-stragglers-s{_seed}"] = (_factory, BATCH * _n, None)
        CASES[f"n{_n}-stragglers-s{_seed}-quorum"] = (
            _factory,
            BATCH * _n,
            lambda s: QuorumConfig(0.9, 1e-4),
        )


def timing_reprs(timing: IterationTiming) -> dict:
    return {
        f.name: repr(getattr(timing, f.name))
        for f in dataclasses.fields(IterationTiming)
    }


def run_case(label) -> IterationTiming:
    factory, batch, rule = CASES[label]
    simulator = factory()
    quorum = rule(simulator) if rule is not None else None
    return simulator.iteration(batch, quorum=quorum)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("cached", [True, False], ids=["memo", "nomemo"])
@pytest.mark.parametrize("label", list(CASES))
def test_iteration_matches_golden(label, cached, golden):
    get_cache().clear()
    try:
        if cached:
            timing = run_case(label)
        else:
            with cache_disabled():
                timing = run_case(label)
    finally:
        get_cache().clear()
    assert timing_reprs(timing) == golden[label]


def main() -> int:
    get_cache().clear()
    with cache_disabled():
        data = {label: timing_reprs(run_case(label)) for label in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
