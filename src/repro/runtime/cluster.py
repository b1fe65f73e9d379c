"""Whole-cluster timing simulation of one training iteration.

One iteration of the distributed flow (Figure 1):

1. every node's accelerator computes its partial update over its share of
   the mini-batch (Sigma nodes compute too);
2. Delta nodes ship their locally-aggregated partial updates to their
   group Sigma, whose networking/aggregation pools fold chunks into the
   aggregation buffer as they land (overlapped, Figure 2);
3. group Sigmas forward group aggregates to the master Sigma;
4. the master broadcasts the updated model down the hierarchy, and the
   next mini-batch begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from . import schedule
from .director import Topology, assign_roles
from .network import NetworkConfig
from .threads import PoolConfig


@dataclass(frozen=True)
class ClusterSpec:
    """System specification fed to the Director (Figure 3, right)."""

    nodes: int
    groups: Optional[int] = None
    network: NetworkConfig = field(default_factory=NetworkConfig)
    pools: PoolConfig = field(default_factory=PoolConfig)
    #: Per-iteration host-side management: accelerator invocation, PCIe
    #: descriptor setup, epoch bookkeeping. Lean by design (Section 3) —
    #: there is no thread creation or generic scheduling on this path.
    management_overhead_s: float = 0.4e-3


@dataclass(frozen=True)
class QuorumConfig:
    """Graceful degradation: aggregate K-of-N partials after a deadline.

    A Sigma normally blocks until every partial arrives (Eq. 3b is a
    barrier). In quorum mode it closes the aggregation window at the
    later of (a) the K-th partial landing, where K is ``fraction`` of the
    expected contributors, and (b) ``deadline_s`` past the first partial.
    Partials later than the window are *dropped*: the receiver refuses
    them, so they neither enter the aggregate nor occupy the Sigma's NIC
    (the broadcast does not queue behind a straggler's late bytes), and
    the functional trainer excludes the corresponding shards so the
    convergence impact is real.
    """

    fraction: float = 0.75
    deadline_s: float = 50e-3

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"quorum fraction must be in (0, 1], got {self.fraction}"
            )
        if not (math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise ValueError(
                "deadline_s must be positive and finite, got "
                f"{self.deadline_s!r}"
            )

    def quorum(self, contributors: int) -> int:
        """Minimum partials that must be folded out of ``contributors``."""
        return max(1, math.ceil(self.fraction * contributors))

    def cache_token(self) -> Tuple[str, str, str]:
        """Canonical form of the quorum rule for artifact-cache keys.

        ``repr`` round-trips the floats exactly (the same convention
        :func:`repro.perf.cache.fingerprint` applies to bare floats), so
        two configs produce the same token iff they close windows
        identically. The frozen dataclass is also hashable and directly
        fingerprintable; this token exists for callers composing keys by
        hand (and for the JSON sidecars, where a dataclass cannot go).
        """
        return ("quorum", repr(self.fraction), repr(self.deadline_s))


@dataclass
class IterationTiming:
    """Wall-clock breakdown of one mini-batch iteration."""

    total_s: float
    compute_s: float  # mean accelerator busy time across nodes
    compute_max_s: float
    network_s: float  # time from first send to last aggregate landing
    aggregation_busy_s: float  # CPU seconds spent folding partials
    broadcast_s: float
    management_s: float
    #: observability: bytes on the wire and Sigma receive-side pressure
    wire_bytes: int = 0
    wire_messages: int = 0
    sigma_rx_busy_s: float = 0.0
    sigma_count: int = 1
    #: quorum accounting: node ids whose partials entered the aggregate,
    #: and those dropped at a deadline (empty means everyone contributed)
    contributors: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)

    def sigma_rx_utilization(self) -> float:
        """Mean busy fraction of the Sigma NICs' receive sides — the
        pressure hierarchical aggregation exists to relieve."""
        if self.total_s <= 0 or self.sigma_count < 1:
            return 0.0
        return min(
            1.0, self.sigma_rx_busy_s / (self.sigma_count * self.total_s)
        )

    @property
    def communication_s(self) -> float:
        """Everything that is not accelerator compute (Figure 13's split)."""
        return max(0.0, self.total_s - self.compute_s)

    @property
    def compute_fraction(self) -> float:
        return self.compute_s / self.total_s if self.total_s else 0.0


ComputeFn = Callable[[int, int], float]
"""(node_id, samples) -> accelerator seconds for that node's share."""


class ClusterSimulator:
    """Timing model of the CoSMIC system software over one topology."""

    def __init__(
        self,
        spec: ClusterSpec,
        compute_seconds: ComputeFn,
        update_bytes: int,
        topology: Optional[Topology] = None,
        faults=None,
    ):
        """
        Args:
            spec: cluster shape and component parameters.
            compute_seconds: accelerator model for a node's local batch.
            update_bytes: size of one partial model update on the wire
                (the model size — Table 1's "Model Size" column).
            topology: explicit role assignment — the recovery layer passes
                a re-formed hierarchy over surviving node ids here;
                defaults to the Director's assignment for ``spec``.
            faults: fault context (a FaultSpec/FaultTimeline, or any
                truthy marker) under which this simulator runs. Any truthy
                value bypasses the iteration memo, so a faulted run never
                reads or writes a healthy-run artifact.
        """
        if update_bytes <= 0:
            raise ValueError("model update must have positive size")
        self.spec = spec
        self.topology: Topology = (
            topology
            if topology is not None
            else assign_roles(spec.nodes, spec.groups)
        )
        self._compute_seconds = compute_seconds
        self.update_bytes = update_bytes
        self.faults = faults
        # (topology, send plan) of the last memo miss; the plan depends
        # on nothing else, so later minibatches reuse it.
        self._plan = None
        # (topology, fingerprint of its roles) for the memo key, kept the
        # same way: canonicalizing every NodeRole was most of the cost of
        # a large cluster's key when done on each call.
        self._roles_key = None

    def with_topology(self, topology: Topology) -> "ClusterSimulator":
        """The same cluster model over a re-formed hierarchy."""
        return ClusterSimulator(
            self.spec,
            self._compute_seconds,
            self.update_bytes,
            topology,
            faults=self.faults,
        )

    def iteration(
        self,
        batch_samples: int,
        quorum: Optional[QuorumConfig] = None,
    ) -> IterationTiming:
        """Simulate one global mini-batch of ``batch_samples`` vectors.

        With ``quorum`` set, each Sigma (and the master) closes its
        aggregation window per :class:`QuorumConfig` instead of blocking
        on the slowest partial; the timing's ``dropped`` field lists the
        node ids whose partials missed the window.

        The timing (:mod:`repro.runtime.schedule`) is a pure function of
        the cluster spec, topology, update size, quorum rule, and each
        node's compute time, so it is memoized in the artifact cache
        keyed on exactly those inputs. The compute model is still invoked
        once per node per call (it may be stateful, e.g. straggler
        injection), and its *results* are part of the key. A fault
        context on the simulator bypasses the memo: the healthy-run key
        does not describe a faulted cluster.
        """
        from dataclasses import replace

        from ..perf.cache import fingerprint, get_cache

        topo = self.topology
        per_node = max(1, batch_samples // topo.nodes)
        compute_times = [
            self._compute_seconds(role.node_id, per_node)
            for role in topo.roles
        ]
        cache = get_cache()
        if self.faults or not cache.enabled:
            return self._simulate(quorum, compute_times)
        if self._roles_key is None or self._roles_key[0] is not topo:
            self._roles_key = (topo, fingerprint(topo.roles))
        key = fingerprint(
            "iteration",
            self.spec,
            self._roles_key[1],
            self.update_bytes,
            quorum,
            compute_times,
        )
        timing = cache.get_or_compute(
            "iteration",
            key,
            lambda: self._simulate(quorum, compute_times),
        )
        # Hand every caller its own list fields; the cached instance must
        # stay pristine for the next hit.
        return replace(
            timing,
            contributors=list(timing.contributors),
            dropped=list(timing.dropped),
        )

    def _simulate(
        self,
        quorum: Optional[QuorumConfig],
        compute_times: List[float],
    ) -> IterationTiming:
        """Time the send plan of this topology. The plan is built once
        per simulator and topology. Both functions are looked up on the
        module at call time, so wrappers installed there see every call."""
        if self._plan is None or self._plan[0] is not self.topology:
            self._plan = (
                self.topology,
                schedule.record_schedule(self.topology, self.update_bytes),
            )
        return schedule.replay_iteration(
            self._plan[1], self.spec, compute_times, quorum=quorum
        )

    def epoch_seconds(
        self, dataset_samples: int, minibatch_per_node: int
    ) -> float:
        """One pass over the dataset: iterations x per-iteration time.

        ``minibatch_per_node`` is the paper's ``b`` — local samples
        processed before each aggregation (Section 2.2). A trailing
        partial mini-batch still costs one (smaller) iteration.
        """
        batch_global = minibatch_per_node * self.topology.nodes
        full, remainder = divmod(dataset_samples, batch_global)
        seconds = 0.0
        if full:
            seconds += full * self.iteration(batch_global).total_s
        if remainder or not full:
            seconds += self.iteration(max(1, remainder)).total_s
        return seconds


def _close_window(contributions, quorum: Optional[QuorumConfig]):
    """Split ``(node_id, finish_s)`` contributions at the quorum window.

    The window closes at the later of the K-th arrival (the quorum must
    be met even if it means waiting past the deadline) and the straggler
    deadline measured from the first arrival. Returns (included, dropped).
    """
    if quorum is None or len(contributions) <= 1:
        return list(contributions), []
    by_time = sorted(contributions, key=lambda c: (c[1], c[0]))
    k = quorum.quorum(len(by_time))
    close = max(by_time[k - 1][1], by_time[0][1] + quorum.deadline_s)
    included = [c for c in by_time if c[1] <= close + 1e-12]
    dropped = [c for c in by_time if c[1] > close + 1e-12]
    return included, dropped
