"""The cluster timing engine: a send plan, timed on the NIC ledger.

The communication pattern of one CoSMIC iteration is fixed by the
Sigma/Delta hierarchy: every Delta sends its partial update to its group
Sigma, every group Sigma forwards its aggregate to the master Sigma, and
the master broadcasts the model back down. Only the *times* depend on
compute speed, the quorum rule and the link and pool parameters. So an
iteration is timed in two steps:

* :func:`record_schedule` builds the :class:`SendPlan` from the topology
  in one O(N) pass over the roles. Nothing is simulated.
* :func:`replay_iteration` times the plan. Messages are booked on a
  :class:`~repro.runtime.network.Network` ledger at message granularity.
  Each Sigma's chunk arrivals are stable-sorted, which is (arrival,
  booking) order, and fed to its :class:`SigmaPipeline` as one batch.
  Quorum windows close on the booked arrivals; when a window drops a
  partial, that phase is booked again without the dropped sends, so
  refused bytes never occupy a NIC.

The names ``record_schedule`` and ``replay_iteration`` are kept because
the repository benchmark traces them as the ``schedule`` layer.
``docs/simulation_internals.md`` describes the engine in detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import cluster
from .director import ROLE_DELTA, ROLE_MASTER_SIGMA, Topology
from .network import Network
from .threads import SigmaPipeline


def replay_enabled() -> bool:
    """Always ``True``: there is one timing engine and no switch.

    Kept because the repository benchmark records this value in the
    provenance of every run.
    """
    return True


@dataclass(frozen=True)
class SendPlan:
    """Who sends to whom in one iteration, read off the topology.

    ``sigmas`` lists the Sigma node ids (the master included) in role
    order, and ``deltas[i]`` the Deltas reporting to ``sigmas[i]``, also
    in role order. The three phases follow from these: Deltas to their
    Sigma, every other Sigma to the master, and the broadcast, which
    walks the Sigmas in order and sends master -> Sigma, then Sigma ->
    each of its Deltas.
    """

    node_ids: Tuple[int, ...]
    master: int
    sigmas: Tuple[int, ...]
    deltas: Tuple[Tuple[int, ...], ...]
    update_bytes: int


def record_schedule(topology: Topology, update_bytes: int) -> SendPlan:
    """Build the send plan of ``topology`` in one pass over its roles."""
    sigmas: List[int] = []
    master = None
    deltas: Dict[int, List[int]] = {}
    for role in topology.roles:
        if role.role == ROLE_DELTA:
            deltas.setdefault(role.sigma_id, []).append(role.node_id)
        else:
            sigmas.append(role.node_id)
            if role.role == ROLE_MASTER_SIGMA:
                master = role.node_id
    if master is None:
        raise ValueError("topology has no master Sigma")
    return SendPlan(
        node_ids=tuple(role.node_id for role in topology.roles),
        master=master,
        sigmas=tuple(sigmas),
        deltas=tuple(tuple(deltas.get(s, ())) for s in sigmas),
        update_bytes=update_bytes,
    )


def _feed(
    network: Network,
    sends: Sequence[Tuple[float, int, int]],
    pipes: Dict[int, SigmaPipeline],
    nbytes: int,
) -> Dict[int, float]:
    """Book ``(start, src, dst)`` sends in order, then feed each
    receiver's chunks to its pipeline; returns, per sender, the time its
    last chunk was folded into the aggregate.

    Chunks reach a pipeline in (arrival, booking) order: the order a
    discrete-event loop with insertion-order tie-breaking would dispatch
    them. Pipelines do not interact, so each receiver's chunks form one
    independent batch.
    """
    sizes = network.chunk_sizes(nbytes)
    chunks = len(sizes)
    batches: Dict[int, Tuple[list, list, list]] = {}
    done: Dict[int, float] = {}
    for start, src, dst in sends:
        arrivals = network.book(src, dst, nbytes, start)
        batch = batches.get(dst)
        if batch is None:
            batch = batches[dst] = ([], [], [])
        batch[0].extend(arrivals)
        batch[1].extend(sizes)
        batch[2].extend([src] * chunks)
        done[src] = 0.0
    for dst, (arrivals, chunk_sizes, owners) in batches.items():
        order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
        folded = pipes[dst].on_chunks(
            [arrivals[i] for i in order], [chunk_sizes[i] for i in order]
        )
        for i, finish in zip(order, folded):
            if finish > done[owners[i]]:
                done[owners[i]] = finish
    return done


def replay_iteration(
    plan: SendPlan,
    spec: cluster.ClusterSpec,
    compute_times: Sequence[float],
    quorum: Optional[cluster.QuorumConfig] = None,
) -> cluster.IterationTiming:
    """Time one iteration of ``plan``; returns an :class:`IterationTiming`.

    ``compute_times`` holds each node's accelerator seconds, in role
    order. With a :class:`~repro.runtime.cluster.QuorumConfig`, each
    Sigma (and then the master) closes its window on the booked
    arrivals. If anyone missed a window, that phase is booked again from
    the state before it, without the dropped sends, and wire accounting
    covers only what the final bookings carried.
    """
    if len(compute_times) != len(plan.node_ids):
        raise ValueError(
            f"{len(compute_times)} compute times for a "
            f"{len(plan.node_ids)}-node plan"
        )
    close_window = cluster._close_window
    ub = plan.update_bytes
    master = plan.master
    management = spec.management_overhead_s
    compute_done = {
        node: management + seconds
        for node, seconds in zip(plan.node_ids, compute_times)
    }
    first_send = min(compute_done.values())

    # Phase 2: Deltas stream partials to their group Sigma, issued in
    # (start, sender) order so the NICs book first-come-first-served.
    gather = sorted(
        (compute_done[delta], delta, sigma)
        for sigma, deltas in zip(plan.sigmas, plan.deltas)
        for delta in deltas
    )

    def run_gather(skip):
        network = Network(spec.network)
        pipes = {s: SigmaPipeline(spec.pools) for s in plan.sigmas}
        # Each Sigma folds its own accelerator's partial locally.
        own = {
            s: pipes[s].fold_local(compute_done[s], ub) for s in plan.sigmas
        }
        sends = [send for send in gather if send[1] not in skip]
        return network, pipes, own, _feed(network, sends, pipes, ub)

    def close_groups(own, done, skip):
        group_done: Dict[int, float] = {}
        members: Dict[int, List[int]] = {}
        late = set()
        for sigma, deltas in zip(plan.sigmas, plan.deltas):
            contributions = [(sigma, own[sigma])] + [
                (delta, done[delta]) for delta in deltas if delta not in skip
            ]
            included, out = close_window(contributions, quorum)
            group_done[sigma] = max(t for _, t in included)
            members[sigma] = [node for node, _ in included]
            late.update(node for node, _ in out)
        return group_done, members, late

    skip2 = frozenset()
    network, pipes, own, done = run_gather(skip2)
    if quorum is not None:
        late = close_groups(own, done, skip2)[2]
        if late:
            skip2 = frozenset(late)
            network, pipes, own, done = run_gather(skip2)
    group_done, members, _ = close_groups(own, done, skip2)

    # Phase 3: group aggregates converge on the master (same window rule).
    others = [s for s in plan.sigmas if s != master]
    upward = sorted((group_done[s], s, master) for s in others)

    def run_reduce(network, skip):
        pipe = SigmaPipeline(spec.pools)
        own_master = pipe.fold_local(group_done[master], ub)
        sends = [send for send in upward if send[1] not in skip]
        return pipe, own_master, _feed(network, sends, {master: pipe}, ub)

    def close_master(own_master, done, skip):
        contributions = [(master, own_master)] + [
            (s, done[s]) for s in others if s not in skip
        ]
        return close_window(contributions, quorum)

    skip3 = frozenset()
    before = network.clone() if quorum is not None else None
    master_pipe, own_master, done = run_reduce(network, skip3)
    if quorum is not None:
        out = close_master(own_master, done, skip3)[1]
        if out:
            skip3 = frozenset(node for node, _ in out)
            network = before
            master_pipe, own_master, done = run_reduce(network, skip3)
    included, _ = close_master(own_master, done, skip3)
    master_done = max(t for _, t in included)
    contributors = sorted(
        node for sigma, _ in included for node in members[sigma]
    )
    kept = set(contributors)
    dropped = sorted(node for node in plan.node_ids if node not in kept)

    # Phase 4: hierarchical broadcast of the updated model.
    broadcast_done = master_done
    for sigma, deltas in zip(plan.sigmas, plan.deltas):
        received = master_done
        if sigma != master:
            received = network.send(master, sigma, ub, master_done)
        broadcast_done = max(broadcast_done, received)
        for delta in deltas:
            broadcast_done = max(
                broadcast_done, network.send(sigma, delta, ub, received)
            )

    aggregation_busy = (
        sum(p.aggregation.busy_seconds() for p in pipes.values())
        + master_pipe.aggregation.busy_seconds()
    )
    return cluster.IterationTiming(
        total_s=broadcast_done + management,
        compute_s=sum(compute_times) / len(compute_times),
        compute_max_s=max(compute_times),
        network_s=max(0.0, master_done - first_send),
        aggregation_busy_s=aggregation_busy,
        broadcast_s=broadcast_done - master_done,
        management_s=2 * management,
        wire_bytes=network.bytes_sent,
        wire_messages=network.messages_sent,
        sigma_rx_busy_s=sum(network.rx_busy.get(s, 0.0) for s in plan.sigmas),
        sigma_count=len(plan.sigmas),
        contributors=contributors,
        dropped=dropped,
    )
