"""End-to-end distributed training: functional semantics + simulated time.

The trainer executes the actual mathematics of Eq. 3 — every simulated
worker thread computes its partial update with the DFG interpreter over
its data sub-partition, and the Sigma hierarchy's aggregation operator
(mean or sum, from the DSL's aggregator section) combines them — while a
:class:`repro.runtime.cluster.ClusterSimulator` accounts the wall-clock
each iteration would take on the modelled hardware.

Two worker modes:

* ``"minibatch"`` — each worker's partial is the mean gradient over its
  shard, and the aggregate takes one step (the common distributed
  mini-batch SGD). One batched interpreter call per step evaluates every
  surviving shard's samples, concatenated in shard order; each partial
  is the mean over that shard's contiguous slice. Every DFG op works
  per sample (elementwise, or reducing over the sample's own axes), so a
  slice of the batched call equals a call on that shard alone bit for
  bit, and so does its mean: the result is the per-shard evaluation's.
* ``"local_sgd"`` — each worker runs sequential per-sample SGD over its
  shard and the models are averaged (the literal parallelized SGD of
  Zinkevich et al. that Eq. 3 cites; used by tests for fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from ..dfg import ir
from ..dfg.interpreter import Interpreter
from ..dfg.translate import Translation
from .checkpoint import Checkpoint
from .cluster import ClusterSimulator, IterationTiming

Feeds = Dict[str, np.ndarray]
LossFn = Callable[[Mapping[str, np.ndarray], Feeds], float]


@dataclass
class TrainingResult:
    """Outcome of a simulated distributed training run."""

    model: Dict[str, np.ndarray]
    loss_history: List[float] = field(default_factory=list)
    iterations: int = 0
    simulated_seconds: float = 0.0
    iteration_timing: Optional[IterationTiming] = None

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class DistributedTrainer:
    """Trains one DSL program across simulated nodes and threads."""

    def __init__(
        self,
        translation: Translation,
        nodes: int = 1,
        threads_per_node: int = 1,
        cluster: Optional[ClusterSimulator] = None,
        seed: int = 0,
    ):
        if nodes < 1 or threads_per_node < 1:
            raise ValueError("need at least one node and one thread")
        self._translation = translation
        self._interp = Interpreter(translation.dfg)
        self.nodes = nodes
        self.threads_per_node = threads_per_node
        self.workers = nodes * threads_per_node
        self._cluster = cluster
        self._rng = np.random.default_rng(seed)

    # -- model handling ----------------------------------------------------
    def initial_model(self, scale: float = 0.0) -> Dict[str, np.ndarray]:
        """Zero (or small random) arrays for every MODEL input."""
        model: Dict[str, np.ndarray] = {}
        for value in self._translation.dfg.inputs_of_category(ir.MODEL):
            shape = self._translation.dfg.shape(value)
            if scale:
                model[value.name] = self._rng.normal(scale=scale, size=shape)
            else:
                model[value.name] = np.zeros(shape)
        return model

    # -- training ------------------------------------------------------------
    def train(
        self,
        feeds: Feeds,
        epochs: int = 1,
        minibatch_per_worker: Optional[int] = None,
        loss_fn: Optional[LossFn] = None,
        mode: str = "minibatch",
        model: Optional[Dict[str, np.ndarray]] = None,
        learning_rate: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        on_checkpoint: Optional[Callable[[Checkpoint], None]] = None,
        resume_from: Optional[Checkpoint] = None,
        max_iterations: Optional[int] = None,
    ) -> TrainingResult:
        """Run distributed training over ``feeds``.

        Args:
            feeds: DATA input name -> array with a leading sample axis.
            epochs: passes over the dataset.
            minibatch_per_worker: the paper's ``b`` divided among worker
                threads; defaults to the DSL-declared mini-batch spread
                over the workers.
            loss_fn: optional metric recorded once per iteration.
            mode: ``"minibatch"`` or ``"local_sgd"``.
            model: starting parameters (default: zeros).
            learning_rate: overrides the DSL ``mu``.
            checkpoint_every: auto-checkpoint every N iterations. The
                snapshot carries the RNG state *as of the epoch start*,
                so a restore replays the epoch's shuffle and continues
                bit-identically mid-epoch.
            checkpoint_dir: directory for auto-checkpoints
                (``ckpt_<iterations>.npz``); created if missing.
            on_checkpoint: callback fired with each auto-checkpoint.
            resume_from: continue a run from an auto-checkpoint: the
                model, loss history, iteration counter, and shuffle all
                pick up exactly where the snapshot was taken. ``epochs``
                still counts total epochs from the beginning.
            max_iterations: stop after this many *total* iterations —
                the fault tests use it to cut a run mid-epoch the way a
                crash would.
        """
        if mode not in ("minibatch", "local_sgd"):
            raise ValueError(f"unknown mode {mode!r}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        samples = _sample_count(feeds)
        if minibatch_per_worker is None:
            minibatch_per_worker = max(
                1, self._translation.minibatch // self.workers
            )
        mu = (
            self._translation.learning_rate
            if learning_rate is None
            else learning_rate
        )
        global_batch = minibatch_per_worker * self.workers
        iters_per_epoch = _iterations_per_epoch(samples, global_batch)

        start_epoch = 0
        skip_in_epoch = 0
        if resume_from is not None:
            model = {k: np.array(v) for k, v in resume_from.model.items()}
            if resume_from.rng_state is not None:
                self._rng.bit_generator.state = resume_from.rng_state
            start_epoch = resume_from.epoch
            skip_in_epoch = (
                resume_from.iterations - start_epoch * iters_per_epoch
            )
            if not 0 <= skip_in_epoch <= iters_per_epoch:
                raise ValueError(
                    f"checkpoint at iteration {resume_from.iterations} does "
                    f"not lie in epoch {resume_from.epoch} for this dataset/"
                    f"batch shape ({iters_per_epoch} iterations per epoch)"
                )
            result = TrainingResult(
                model=model,
                loss_history=list(resume_from.loss_history),
                iterations=resume_from.iterations,
            )
        else:
            model = dict(model) if model else self.initial_model()
            result = TrainingResult(model=model)

        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)

        stopped = False
        for epoch in range(start_epoch, epochs):
            # Captured before the shuffle so a mid-epoch checkpoint can
            # replay this epoch's permutation identically on restore.
            epoch_rng_state = self._rng.bit_generator.state
            order = self._rng.permutation(samples)
            starts = range(0, samples - global_batch + 1, global_batch)
            for in_epoch, start in enumerate(starts):
                if epoch == start_epoch and in_epoch < skip_in_epoch:
                    continue
                batch_idx = order[start : start + global_batch]
                shards = np.array_split(batch_idx, self.workers)
                self.step(model, feeds, shards, mu, mode=mode)
                result.iterations += 1
                if loss_fn is not None:
                    result.loss_history.append(loss_fn(model, feeds))
                if (
                    checkpoint_every is not None
                    and result.iterations % checkpoint_every == 0
                ):
                    ckpt = Checkpoint(
                        model={k: np.array(v) for k, v in model.items()},
                        iterations=result.iterations,
                        epoch=epoch,
                        loss_history=list(result.loss_history),
                        rng_state=epoch_rng_state,
                    )
                    if checkpoint_dir is not None:
                        ckpt.save(
                            checkpoint_dir
                            / f"ckpt_{result.iterations:06d}.npz"
                        )
                    if on_checkpoint is not None:
                        on_checkpoint(ckpt)
                if (
                    max_iterations is not None
                    and result.iterations >= max_iterations
                ):
                    stopped = True
                    break
            if stopped:
                break

        if self._cluster is not None and result.iterations:
            timing = self._cluster.iteration(global_batch)
            result.iteration_timing = timing
            result.simulated_seconds = timing.total_s * result.iterations
        result.model = model
        return result

    def step(
        self,
        model: Dict[str, np.ndarray],
        feeds: Feeds,
        shards: List[np.ndarray],
        mu: float,
        mode: str = "minibatch",
        drop: Iterable[int] = (),
    ) -> bool:
        """One synchronous iteration over explicit sample-index shards.

        ``drop`` names shard indices whose partials never reached the
        aggregate — quorum-dropped stragglers or crashed workers. The
        aggregation runs over the survivors only, so degraded-mode
        convergence effects are real rather than modelled. Returns False
        (model untouched) when every shard was dropped or empty.
        """
        if mode not in ("minibatch", "local_sgd"):
            raise ValueError(f"unknown mode {mode!r}")
        dropped = set(drop)
        survivors = [
            shard
            for index, shard in enumerate(shards)
            if index not in dropped and len(shard)
        ]
        if not survivors:
            return False
        if mode == "minibatch":
            self._step_minibatch(model, feeds, survivors, mu)
        else:
            self._step_local_sgd(model, feeds, survivors, mu)
        return True

    # -- worker semantics ---------------------------------------------------
    def _step_minibatch(
        self,
        model: Dict[str, np.ndarray],
        feeds: Feeds,
        shards: List[np.ndarray],
        mu: float,
    ):
        """One batched interpreter call over every (non-empty) shard;
        each shard's partial is the mean over its contiguous slice."""
        spec = self._translation.aggregator
        batch = np.concatenate(shards)
        grads = self._interp.gradients(
            {**{k: v[batch] for k, v in feeds.items()}, **model}, batch=True
        )
        bounds = np.cumsum([0] + [len(shard) for shard in shards])
        slices = list(zip(bounds[:-1], bounds[1:]))
        for target, source in spec.pairs:
            stack = np.stack(
                [grads[source][lo:hi].mean(axis=0) for lo, hi in slices]
            )
            agg = stack.mean(axis=0) if spec.kind == "mean" else stack.sum(axis=0)
            model[target] = model[target] - mu * agg

    def _step_local_sgd(
        self,
        model: Dict[str, np.ndarray],
        feeds: Feeds,
        shards: List[np.ndarray],
        mu: float,
    ):
        """Eq. 3a literally: each worker runs SGD on a model replica.

        Stays one interpreter call per sample: each sample's gradient
        reads the replica its predecessor updated, and batch mode shares
        MODEL inputs across the whole batch.
        """
        spec = self._translation.aggregator
        replicas: List[Dict[str, np.ndarray]] = []
        for shard in shards:
            replica = {k: v.copy() for k, v in model.items()}
            for sample in shard:
                sample_feeds = {k: v[sample] for k, v in feeds.items()}
                grads = self._interp.gradients({**sample_feeds, **replica})
                for target, source in spec.pairs:
                    replica[target] = replica[target] - mu * grads[source]
            replicas.append(replica)
        for name in model:
            stack = np.stack([r[name] for r in replicas])
            if spec.kind == "mean":
                model[name] = stack.mean(axis=0)
            else:
                model[name] = model[name] + (stack - model[name]).sum(axis=0)


def _iterations_per_epoch(samples: int, global_batch: int) -> int:
    if global_batch < 1:
        raise ValueError(
            f"global mini-batch must be at least 1 sample, got {global_batch}"
        )
    iterations = samples // global_batch
    if iterations == 0:
        raise ValueError(
            f"dataset of {samples} samples is smaller than one global "
            f"mini-batch of {global_batch}"
        )
    return iterations


def _sample_count(feeds: Feeds) -> int:
    counts = {np.asarray(v).shape[0] for v in feeds.values()}
    if len(counts) != 1:
        raise ValueError("all feeds must share one leading sample axis")
    return counts.pop()
