"""Performance estimation tool (Section 4.4).

"Instead of simulation, which will be intractable, we propose to equip the
Planner with a performance estimation tool. The tool will use the static
schedule of the operations for each design point to estimate its relative
performance." Estimation is viable because the DFG is fixed, there is no
hardware-managed cache, and the architecture does not change during
execution.

The model charges, per macro-operation of the DFG:

* **work** — scalar applications tiled over the thread's PEs
  (``ceil(space / n_pe)`` issue slots, weighted by per-op ALU cycles);
* **communication** — reduction merges across the interconnect
  (logarithmic on CoSMIC's tree bus, linear on a flat shared bus — the
  structural difference behind Figure 17), plus broadcast of scalars
  produced by one PE and consumed by a vector operation.

One-hot / sparse DATA inputs (the collaborative-filtering encodings) can
be annotated with a density in ``[0, 1]``; work gated by a sparse operand
is scaled accordingly, matching how the memory interface only streams the
encoded non-zeros.

Everything the model reads from the DFG is derived once per graph
(:func:`cost_profile`); pricing a design point is one pass over that
profile (:meth:`CostProfile.estimate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..dfg import ir
from ..dfg.ops import op_info

#: CoSMIC's hierarchical tree bus with per-node reduction ALUs (Section 5.1).
TREE = "tree"
#: A single flat shared bus (TABLA's interconnect, for Figure 17).
FLAT = "flat"


@dataclass(frozen=True)
class CostParams:
    """Interconnect/mapping knobs of the cost model.

    ``mapping="data_first"`` is CoSMIC's Algorithm 1 (operands co-located
    with their operations, near-zero shuffle traffic); ``"ops_first"``
    models TABLA's latency-first mapping, which leaves a fraction
    ``shuffle_fraction`` of operand reads crossing the interconnect.
    """

    interconnect: str = TREE
    mapping: str = "data_first"
    bus_hop_cycles: int = 2  # pipelined shared-bus transfer
    neighbor_hop_cycles: int = 1
    shuffle_fraction: float = 0.45  # ops-first operand traffic share
    pipeline_depth: int = 5  # PE pipeline fill (Section 5.1)
    #: The prefetch buffer overlaps streaming with compute (Section 5.1);
    #: architectures without one (TABLA) serialise the two phases.
    overlap_stream: bool = True
    #: Fraction of off-chip bandwidth delivered to PEs. The shifter lets
    #: CoSMIC consume unaligned bursts at full rate; without it, padding
    #: and marshaling waste a share of every burst.
    stream_efficiency: float = 1.0


@dataclass
class ThreadEstimate:
    """Per-sample cycle estimate for one worker thread."""

    work_cycles: float
    comm_cycles: float
    critical_path: float
    per_node: Dict[int, float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return max(self.work_cycles + self.comm_cycles, self.critical_path)


@dataclass(frozen=True)
class NodeCost:
    """What the cost model reads from one macro-node, for any design point.

    ``space`` is the node's scalar applications scaled by its sparsest
    input's density. ``reduce_width`` is the number of partials a
    reduction merges (0 for other nodes) and ``out_count`` its outputs.
    ``broadcasts`` counts the scalar operands fanned out to a shaped op.
    """

    nid: int
    space: float
    cycles: int
    reduce_width: int
    out_count: int
    broadcasts: int


@dataclass(frozen=True)
class CostProfile:
    """The point-invariant facts of one DFG: a node list in topological
    order plus the whole-graph sizes the Planner reads. Built once per
    graph by :func:`cost_profile`; :meth:`estimate` prices one design
    point from it."""

    nodes: Tuple[NodeCost, ...]
    critical_path: int
    model_words: int
    gradient_words: int
    #: on-chip words one thread buffers (see ``Dfg.thread_storage_words``)
    storage_words: int

    def estimate(
        self, n_pe: int, rows: int, params: CostParams = CostParams()
    ) -> ThreadEstimate:
        """Cycles for one thread of ``n_pe`` PEs in ``rows`` rows.

        Work tiles each node over the PEs (``ceil(space / n_pe)`` issue
        slots). A reduction merges ``min(width, n_pe)`` partials in
        ``log2`` tree-bus hops (a flat shared bus serialises every
        transfer) and pipelines its further outputs one issue slot each.
        A broadcast scalar crosses the row buses. Ops-first mapping pays
        ``shuffle_fraction`` of the issue slots in bus hops.
        """
        if n_pe < 1:
            raise ValueError("a thread needs at least one PE")
        hop = params.bus_hop_cycles
        tree = params.interconnect == TREE
        if tree:
            broadcast = (1 + math.ceil(math.log2(max(2, rows)))) * hop
        else:
            broadcast = max(2, rows) * hop
        ops_first = params.mapping == "ops_first"
        work = 0.0
        comm = 0.0
        per_node: Dict[int, float] = {}
        for node in self.nodes:
            slots = math.ceil(node.space / n_pe)
            node_work = slots * node.cycles
            node_comm = 0.0
            if node.reduce_width:
                spread = min(node.reduce_width, n_pe)
                if spread > 1:
                    if tree:
                        merge = math.ceil(math.log2(spread)) * hop
                    else:
                        merge = (spread - 1) * hop
                    node_comm += merge + max(0, node.out_count - 1)
            node_comm += node.broadcasts * broadcast
            if ops_first and not node.reduce_width:
                # TABLA-style mapping: operands frequently live on other PEs.
                node_comm += params.shuffle_fraction * slots * hop
            work += node_work
            comm += node_comm
            per_node[node.nid] = node_work + node_comm
        critical = self.critical_path + params.pipeline_depth
        return ThreadEstimate(work, comm, critical, per_node)


def estimate_thread_cycles(
    dfg: ir.Dfg,
    n_pe: int,
    rows: int,
    params: CostParams = CostParams(),
    density: Optional[Mapping[str, float]] = None,
) -> ThreadEstimate:
    """Cycles for one thread to evaluate the gradient DFG on one sample.

    Args:
        dfg: the macro (named-axis) dataflow graph.
        n_pe: PEs allocated to the thread (rows x columns).
        rows: PE rows of the thread (tree-bus depth across rows).
        params: interconnect/mapping model.
        density: optional DATA-input name -> density annotation.
    """
    return cost_profile(dfg, density).estimate(n_pe, rows, params)


def cost_profile(
    dfg: ir.Dfg, density: Optional[Mapping[str, float]] = None
) -> CostProfile:
    """The cost profile of ``dfg`` under a density annotation.

    The unannotated profile (the Planner's) is memoized on the graph
    object, like ``dfg_fingerprint``: graphs are treated as immutable
    once built, and the memo dies with its graph.
    """
    if density:
        return _build_profile(dfg, density)
    profile = getattr(dfg, "_cost_profile", None)
    if profile is None:
        profile = _build_profile(dfg, {})
        dfg._cost_profile = profile
    return profile


def _build_profile(
    dfg: ir.Dfg, density: Mapping[str, float]
) -> CostProfile:
    # Density per value id: sparse DATA inputs gate the work they feed,
    # and a reduction's output is dense again (a full scalar/vector
    # regardless of input zeros).
    densities: Dict[int, float] = {}
    for value in dfg.values.values():
        if value.producer is None:
            sparse = value.category == ir.DATA and value.name in density
            densities[value.vid] = (
                float(density[value.name]) if sparse else 1.0
            )
    nodes = []
    for node in dfg.topo_order():
        info = op_info(node.op)
        factor = min(
            (densities[vid] for vid in node.inputs), default=1.0
        )
        densities[node.output] = 1.0 if info.reduce else factor
        width = 0
        out_count = 1
        if info.reduce:
            # With a sparse (one-hot-gated) input only ``width * density``
            # partials are non-zero; the compiler's gather-style schedule
            # merges only those.
            width = math.prod(dfg.extents[a] for a in node.reduce_axes)
            width = max(1, math.ceil(width * factor))
            out_count = max(1, dfg.size(dfg.values[node.output]))
        nodes.append(
            NodeCost(
                node.nid,
                dfg.node_iter_space(node) * factor,
                info.cycles,
                width,
                out_count,
                _broadcast_operands(dfg, node),
            )
        )
    return CostProfile(
        tuple(nodes),
        dfg.critical_path_cycles(),
        dfg.model_words(),
        dfg.gradient_words(),
        dfg.thread_storage_words(),
    )


def _broadcast_operands(dfg: ir.Dfg, node: ir.Node) -> int:
    """Scalars fanned out to a shaped operation traverse the buses;
    constants and inputs are pre-placed by the memory interface."""
    out_axes = set(dfg.values[node.output].axes)
    if not out_axes:
        return 0
    count = 0
    for vid in node.inputs:
        value = dfg.values[vid]
        if value.category == ir.CONST or value.producer is None:
            continue
        if set(value.axes) < out_axes:
            count += 1
    return count


def effective_data_words(
    dfg: ir.Dfg, density: Optional[Mapping[str, float]] = None
) -> float:
    """Words streamed from memory per sample, honouring sparse encodings.

    A sparse input of width ``w`` and density ``d`` streams ``2*w*d`` words
    (index + value pairs), never more than its dense size.
    """
    density = density or {}
    words = 0.0
    for value in dfg.inputs_of_category(ir.DATA):
        size = dfg.size(value)
        d = float(density.get(value.name, 1.0))
        if d >= 1.0:
            words += size
        else:
            words += min(size, max(1.0, 2.0 * size * d))
    return words
