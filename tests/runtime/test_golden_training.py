"""Golden training runs: final models and loss histories, pinned.

Each case trains one Table 1 benchmark's functional DFG
(``translate(scaled=True)``) on a functional dataset seeded by its
Table 1 position, and compares with ``golden_training.json`` a SHA-256
of every final model array's bytes and the ``repr`` of every
loss-history entry. The cases:

* ``train/<bench>`` — ``DistributedTrainer.train`` in minibatch mode,
  3 nodes x 2 threads, two epochs;
* ``steps/<bench>`` — direct ``DistributedTrainer.step`` calls with
  unequal shards (``np.array_split`` remainders), empty shards and
  ``drop`` sets, including one where every shard is dropped, plus one
  ``local_sgd`` step; the model is digested after every step;
* ``chaos/<bench>/sigma-crash-quorum`` — ``chaos_train`` under
  ``sigma-crash`` on 8 nodes x 2 threads with a straggler that a quorum
  window drops, and a failover that leaves 14 shards of 48 samples;
* ``chaos/<bench>/master-failover`` — ``chaos_train`` under
  ``master-crash``: a checkpoint rollback and a re-split of 40 samples
  over 7 survivors.

Regenerate (only when a training change is intended) with::

    PYTHONPATH=src python tests/runtime/test_golden_training.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.chaos import fault_tolerance_config
from repro.ml.benchmarks import BENCHMARKS, benchmark
from repro.runtime import (
    ClusterSimulator,
    ClusterSpec,
    DistributedTrainer,
    QuorumConfig,
    assign_roles,
    chaos_train,
    scenario_timeline,
)
from repro.runtime.faults import FaultSpec, faulty_compute

GOLDEN = Path(__file__).with_name("golden_training.json")

UPDATE_BYTES = 100_000
CHAOS_SPEC = ClusterSpec(nodes=8, groups=2)
CHAOS = ("sigma-crash-quorum", "master-failover")
NAMES = [b.name for b in BENCHMARKS]

#: (samples, shard count, dropped shard indices, mode) per direct step.
#: 23 over 4 leaves a remainder; 3 over 5 leaves two empty shards.
STEPS = (
    (23, 4, (), "minibatch"),
    (23, 4, (1,), "minibatch"),
    (3, 5, (), "minibatch"),
    (3, 5, (0,), "minibatch"),
    (7, 3, (0, 2), "minibatch"),
    (4, 2, (0, 1), "minibatch"),
    (11, 3, (2,), "local_sgd"),
)

CASES = (
    [f"train/{b.name}" for b in BENCHMARKS]
    + [f"steps/{b.name}" for b in BENCHMARKS]
    + [f"chaos/{b.name}/{c}" for b in BENCHMARKS for c in CHAOS]
)


def array_digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("utf-8"))
    h.update(arr.tobytes())
    return h.hexdigest()


def model_digest(model) -> dict:
    return {k: array_digest(v) for k, v in sorted(model.items())}


def _setup(name: str, samples: int):
    bench = benchmark(name)
    translation = bench.translate(scaled=True)
    dataset = bench.make_dataset(samples, seed=NAMES.index(name))
    scale = 0.2 if bench.algorithm == "collaborative_filtering" else 0.0
    init = DistributedTrainer(translation, seed=5).initial_model(scale)
    return translation, dataset, init


def run_train(name: str) -> dict:
    translation, dataset, init = _setup(name, 96)
    trainer = DistributedTrainer(
        translation, nodes=3, threads_per_node=2, seed=11
    )
    result = trainer.train(
        dataset.feeds,
        epochs=2,
        minibatch_per_worker=4,
        loss_fn=dataset.loss,
        model=init,
    )
    return {
        "model": model_digest(result.model),
        "losses": [repr(v) for v in result.loss_history],
        "iterations": result.iterations,
    }


def run_steps(name: str) -> dict:
    translation, dataset, model = _setup(name, 64)
    trainer = DistributedTrainer(translation, seed=11)
    rng = np.random.default_rng(23)
    steps = []
    for samples, count, drop, mode in STEPS:
        idx = rng.permutation(64)[:samples]
        shards = np.array_split(idx, count)
        took = trainer.step(
            model, dataset.feeds, shards, translation.learning_rate,
            mode=mode, drop=drop,
        )
        steps.append({"took": took, "model": model_digest(model)})
    return {"steps": steps}


def run_chaos(name: str, scenario: str) -> dict:
    translation, dataset, init = _setup(name, 192)

    def flat(node_id, samples):
        return 5e-3

    if scenario == "sigma-crash-quorum":
        threads, per_worker, timeline_name = 2, 3, "sigma-crash"
    else:
        threads, per_worker, timeline_name = 1, 5, "master-crash"
    global_batch = CHAOS_SPEC.nodes * threads * per_worker
    iteration_s = (
        ClusterSimulator(CHAOS_SPEC, flat, UPDATE_BYTES)
        .iteration(global_batch)
        .total_s
    )
    compute, quorum = flat, None
    if scenario == "sigma-crash-quorum":
        compute = faulty_compute(flat, FaultSpec.single_straggler(7, 20.0))
        quorum = QuorumConfig(fraction=0.5, deadline_s=2 * iteration_s)
    result = chaos_train(
        translation,
        dataset.feeds,
        CHAOS_SPEC,
        compute,
        UPDATE_BYTES,
        timeline=scenario_timeline(
            timeline_name, assign_roles(CHAOS_SPEC.nodes, 2), iteration_s
        ),
        config=fault_tolerance_config(iteration_s, quorum=quorum),
        epochs=2,
        threads_per_node=threads,
        minibatch_per_worker=per_worker,
        loss_fn=dataset.loss,
        model=init,
        seed=11,
    )
    return {
        "model": model_digest(result.model),
        "losses": [repr(v) for v in result.loss_history],
        "iterations": result.iterations,
        "dropped_partials": result.dropped_partials,
        "events": [e.kind for e in result.events],
        "rollback": sum(e.rollback_iterations for e in result.events),
    }


def run_case(case: str) -> dict:
    kind, name, *rest = case.split("/")
    if kind == "train":
        return run_train(name)
    if kind == "steps":
        return run_steps(name)
    return run_chaos(name, rest[0])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_cases_exercise_drops_and_failover(golden):
    """The pinned runs really take the degraded paths they name."""
    for b in BENCHMARKS:
        quorum = golden[f"chaos/{b.name}/sigma-crash-quorum"]
        assert quorum["dropped_partials"] > 0
        assert "crash" in quorum["events"]
        failover = golden[f"chaos/{b.name}/master-failover"]
        assert failover["rollback"] > 0
        took = [s["took"] for s in golden[f"steps/{b.name}"]["steps"]]
        assert took == [True] * 5 + [False, True]


@pytest.mark.parametrize("case", CASES)
def test_training_matches_golden(case, golden):
    assert run_case(case) == golden[case]


def main() -> int:
    data = {case: run_case(case) for case in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
