"""The benchmark's workloads: ``paper``, ``scale`` and ``stack``.

A workload is built from a seed (its set-up: imports done by the caller,
inputs generated here) and then offers a fixed list of operations. One
repetition runs every operation once, in order, on a cold artifact
cache; :meth:`Workload.check` then judges each output against the
stored golden for this seed, or against invariants on other seeds.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

#: Seeds whose outputs have stored digests in goldens.json.
SHIPPED_SEEDS = tuple(range(24))
#: Never used while tuning this benchmark or an optimisation: run a
#: claimed gain on it last.
HELD_OUT_SEED = 9001


@dataclass
class Op:
    """One operation of a repetition; ``run`` returns its output."""

    label: str
    run: Callable[[], Any]


@dataclass
class Failed:
    """Output slot of an operation that raised."""

    error: str


def digest(payload: Any) -> str:
    """Short content digest; floats go through ``repr`` (exact)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_goldens() -> Dict[str, Dict[str, List[str]]]:
    if not GOLDENS.is_file():
        return {}
    return json.loads(GOLDENS.read_text())


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: List[Op] = []
        self.golden = load_goldens().get(self.name, {}).get(str(seed))

    def work(self) -> float:
        """Work in one repetition, which ``work_per_s`` counts: table
        entries, programs, or (``scale``) simulated node-iterations."""
        return float(len(self.ops))

    def summary(self, output: Any) -> Any:
        """The part of an output its digest covers."""
        raise NotImplementedError

    def invariant(self, index: int, output: Any) -> bool:
        raise NotImplementedError

    def check(self, outputs: List[Any]) -> List[bool]:
        """Per-operation correctness of one repetition's outputs."""
        verdicts = []
        for index, output in enumerate(outputs):
            if isinstance(output, Failed):
                verdicts.append(False)
            elif self.golden is not None:
                verdicts.append(
                    digest(self.summary(output)) == self.golden[index]
                )
            else:
                verdicts.append(self.invariant(index, output))
        return verdicts

    def digests(self, outputs: List[Any]) -> List[str]:
        return [digest(self.summary(output)) for output in outputs]


# ---------------------------------------------------------------------------
# paper: every table, figure and ablation once
# ---------------------------------------------------------------------------


def _normalise(text: str) -> str:
    lines = [line.rstrip() for line in text.strip("\n").splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def golden_tables(path: Path) -> List[str]:
    """``results_full.txt`` split into one block per ``== title ==``."""
    blocks: List[List[str]] = []
    for line in path.read_text().splitlines():
        if line.startswith("== "):
            blocks.append([])
        if blocks:
            blocks[-1].append(line)
    return [_normalise("\n".join(block)) for block in blocks]


class Paper(Workload):
    """Regenerates every ``EXPERIMENTS`` and ``ABLATIONS`` entry.

    The inputs are fixed by the paper; the seed only shuffles the order
    the entries run in, which moves which entry pays for shared cold
    work but not the total.
    """

    name = "paper"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed)
        from repro.bench import ABLATIONS, EXPERIMENTS

        entries = list(EXPERIMENTS.items()) + list(ABLATIONS.items())
        tables = golden_tables(root / "results_full.txt")
        if len(tables) != len(entries):
            raise RuntimeError(
                f"results_full.txt has {len(tables)} tables for "
                f"{len(entries)} experiments and ablations"
            )
        self.expected = dict(zip((name for name, _ in entries), tables))
        random.Random(seed).shuffle(entries)
        self.ops = [
            Op(name, lambda fn=fn: fn().to_table()) for name, fn in entries
        ]

    def check(self, outputs: List[Any]) -> List[bool]:
        return [
            not isinstance(out, Failed)
            and _normalise(out) == self.expected[op.label]
            for op, out in zip(self.ops, outputs)
        ]


# ---------------------------------------------------------------------------
# scale: large-cluster what-if with seeded stragglers
# ---------------------------------------------------------------------------


class Scale(Workload):
    """Straggler profiles on 256-, 1024- and 2048-node clusters.

    Each topology runs ``PROFILES`` iterations, alternating the barrier
    and a quorum window. Every iteration has its own seeded profile: 5%
    of the nodes, at seeded positions, run 1.5-4x slower. The first
    iteration on each topology records its schedule, the rest replay it.
    """

    name = "scale"
    NODES = (256, 1024, 2048)
    PROFILES = 4
    MINIBATCH_PER_NODE = 10_000

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.core import platform_for
        from repro.ml import benchmark
        from repro.runtime import ClusterSimulator, ClusterSpec, QuorumConfig

        bench = benchmark("movielens")
        # Planned once: every node runs the same accelerator design.
        compute = platform_for(bench, "fpga").compute_seconds
        update_bytes = bench.model_bytes()
        base_s = compute(self.MINIBATCH_PER_NODE)
        rng = np.random.default_rng(seed)
        self.nodes: List[int] = []
        for nodes in self.NODES:
            spec = ClusterSpec(nodes=nodes)
            for k in range(self.PROFILES):
                profile = np.ones(nodes)
                slow = rng.choice(nodes, size=nodes // 20, replace=False)
                profile[slow] = rng.permutation(
                    np.linspace(1.5, 4.0, len(slow))
                )
                profile = profile.tolist()
                quorum = (
                    QuorumConfig(fraction=0.9, deadline_s=0.1 * base_s)
                    if k % 2
                    else None
                )
                sim = ClusterSimulator(
                    spec,
                    lambda node, n, p=profile: compute(n) * p[node],
                    update_bytes,
                )
                self.nodes.append(nodes)
                self.ops.append(
                    Op(
                        f"n{nodes}-p{k}",
                        lambda sim=sim, q=quorum, n=nodes: sim.iteration(
                            self.MINIBATCH_PER_NODE * n, quorum=q
                        ),
                    )
                )

    def work(self) -> float:
        return float(sum(self.nodes))

    def summary(self, output: Any) -> Any:
        return dataclasses.asdict(output)

    def invariant(self, index: int, output: Any) -> bool:
        t = output
        nodes = self.nodes[index]
        fields = [
            t.total_s,
            t.compute_s,
            t.compute_max_s,
            t.network_s,
            t.aggregation_busy_s,
            t.broadcast_s,
            t.management_s,
            t.sigma_rx_busy_s,
        ]
        members = set(t.contributors) | set(t.dropped)
        barrier = index % self.PROFILES % 2 == 0
        return (
            all(math.isfinite(v) and v >= 0 for v in fields)
            and t.total_s >= t.compute_max_s >= t.compute_s > 0
            and len(t.contributors) + len(t.dropped) == nodes
            and members == set(range(nodes))
            and (not barrier or not t.dropped)
            and t.wire_bytes > 0
            and t.wire_messages > 0
        )


# ---------------------------------------------------------------------------
# stack: seeded programs through every layer
# ---------------------------------------------------------------------------

ALGORITHMS = (
    "linear_regression",
    "logistic_regression",
    "svm",
    "backpropagation",
    "collaborative_filtering",
)


#: Functional (trained and compiled) shapes, four per algorithm. A seed
#: permutes them over the programs and draws the paper-scale shapes, so
#: the compile and training work per repetition is the same on every
#: seed while every program, and every cache key, is new.
FUNCTIONAL_SHAPES = {
    "linear_regression": [{"n": n} for n in (24, 32, 40, 48)],
    "logistic_regression": [{"n": n} for n in (24, 32, 40, 48)],
    "svm": [{"n": n} for n in (24, 32, 40, 48)],
    "backpropagation": [
        {"n": n, "h": h, "c": c}
        for n, h, c in ((16, 8, 2), (18, 9, 3), (20, 10, 4), (24, 12, 3))
    ],
    "collaborative_filtering": [
        {"e": e, "f": f} for e, f in ((40, 3), (46, 4), (52, 3), (60, 4))
    ],
}


def _program(rng: np.random.Generator, index: int, functional):
    """A Table 1-style benchmark with seeded paper-scale dimensions."""
    from repro.ml.benchmarks import Benchmark

    algorithm = ALGORITHMS[index % len(ALGORITHMS)]

    def draw(low, high):
        return int(rng.integers(low, high))

    density: Dict[str, float] = {}
    if algorithm == "backpropagation":
        dims = {"n": draw(256, 1024), "h": draw(128, 512), "c": draw(8, 32)}
    elif algorithm == "collaborative_filtering":
        dims = {"e": draw(10_000, 50_000), "f": draw(8, 16)}
        density = {"xu": 1.0 / dims["e"], "xi": 1.0 / dims["e"]}
    else:
        dims = {"n": draw(2_000, 20_000)}
    return Benchmark(
        name=f"program{index}",
        algorithm=algorithm,
        domain="seeded",
        description="seeded program",
        features=next(iter(dims.values())),
        topology="x".join(str(v) for v in dims.values()),
        dims=dims,
        input_vectors=100_000,
        data_gb=1.0,
        loc=0,
        functional_dims=functional,
        density=density,
    )


class Stack(Workload):
    """Seeded programs, each taken through translate, optimize, plan
    (FPGA and P-ASIC-F), compile + RTL, training on a small simulated
    cluster, and a ``sigma-crash`` chaos run."""

    name = "stack"
    SAMPLES = 256
    TRAIN_NODES = 4
    CHAOS_NODES = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        order = {
            name: rng.permutation(len(shapes))
            for name, shapes in FUNCTIONAL_SHAPES.items()
        }
        programs = len(ALGORITHMS) * len(FUNCTIONAL_SHAPES[ALGORITHMS[0]])
        for index in range(programs):
            algorithm = ALGORITHMS[index % len(ALGORITHMS)]
            shape = order[algorithm][index // len(ALGORITHMS)]
            functional = FUNCTIONAL_SHAPES[algorithm][shape]
            bench = _program(rng, index, functional)
            dataset = bench.make_dataset(self.SAMPLES, seed=seed + index)
            self.ops.append(
                Op(
                    bench.name,
                    lambda b=bench, d=dataset: self._run_program(b, d),
                )
            )

    def _run_program(self, bench, dataset) -> Dict[str, Any]:
        from repro.bench.chaos import fault_tolerance_config
        from repro.circuit import construct
        from repro.compiler import compile_thread
        from repro.core import CosmicStack
        from repro.dfg.optimize import optimize
        from repro.hw import PASIC_F, XILINX_VU9P
        from repro.runtime import (
            ClusterSimulator,
            ClusterSpec,
            assign_roles,
            chaos_train,
            scenario_timeline,
        )

        stack = CosmicStack.from_benchmark(bench)  # parse + translate
        graph, _ = optimize(stack.functional_translation.dfg)
        fpga = stack.plan(XILINX_VU9P)
        pasic = stack.plan(PASIC_F)
        program = compile_thread(graph, rows=2, columns=4)
        rtl = construct(program, target="fpga")

        update_bytes = stack.translation.dfg.model_words() * 4

        def compute(node, samples):
            return fpga.seconds_for(samples)

        init_scale = 0.2 if bench.algorithm == "collaborative_filtering" else 0
        cluster = ClusterSimulator(
            ClusterSpec(nodes=self.TRAIN_NODES), compute, update_bytes
        )
        trainer = stack.trainer(
            nodes=self.TRAIN_NODES, threads_per_node=2, cluster=cluster,
            seed=self.seed,
        )
        init = trainer.initial_model(scale=init_scale)
        trained = trainer.train(
            dataset.feeds,
            epochs=2,
            minibatch_per_worker=8,
            loss_fn=dataset.loss,
            model={k: v.copy() for k, v in init.items()},
        )

        spec = ClusterSpec(nodes=self.CHAOS_NODES, groups=2)
        chaos_batch = 4
        iteration_s = (
            ClusterSimulator(spec, compute, update_bytes)
            .iteration(chaos_batch * self.CHAOS_NODES)
            .total_s
        )
        chaos = chaos_train(
            stack.functional_translation,
            dataset.feeds,
            spec,
            compute,
            update_bytes,
            timeline=scenario_timeline(
                "sigma-crash",
                assign_roles(self.CHAOS_NODES, 2),
                iteration_s,
            ),
            config=fault_tolerance_config(iteration_s),
            epochs=2,
            minibatch_per_worker=chaos_batch,
            loss_fn=dataset.loss,
            model={k: v.copy() for k, v in init.items()},
            seed=self.seed,
        )
        return {
            "plans": [fpga.design.label(), pasic.design.label()],
            "ops": len(program.schedule.ops),
            "rtl": rtl.verilog,
            "losses": [trained.final_loss, chaos.final_loss],
            "events": len(chaos.events),
        }

    def summary(self, output: Any) -> Any:
        return {k: output[k] for k in ("plans", "ops", "rtl", "losses")}

    def invariant(self, index: int, output: Any) -> bool:
        return (
            all(output["plans"])
            and output["ops"] > 0
            and "module" in output["rtl"]
            and all(math.isfinite(v) for v in output["losses"])
            and output["events"] >= 1
        )


def make(name: str, seed: int, root: Path) -> Workload:
    if name == "paper":
        return Paper(seed, root)
    if name == "scale":
        return Scale(seed)
    if name == "stack":
        return Stack(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper", "scale", "stack")
