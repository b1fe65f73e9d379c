"""Functional (NumPy) execution of CoSMIC dataflow graphs.

The accelerator's arithmetic is deterministic and order-independent at the
macro-op level, so executing the DFG with NumPy yields bit-comparable
results to the cycle simulator while being fast enough to actually *train*
the benchmarks. The runtime layer uses this interpreter as the compute
kernel of every simulated accelerator thread.

A leading batch axis lets one call evaluate the DFG for a whole data
sub-partition at once, mirroring how a worker thread iterates its
sub-partition ``D_ij`` (Figure 1). Every op works per sample, so the
trainer evaluates all workers' sub-partitions of a step in one call and
slices out each worker's rows.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from . import ir
from .ops import op_info


class InterpreterError(ValueError):
    """Bad feeds or an inconsistent graph at execution time."""


class _Step:
    """One precompiled macro-op: resolved op function plus the operand
    alignment that would otherwise be recomputed on every call."""

    __slots__ = (
        "output", "fn", "reduce_args", "inputs", "shape_suffix",
    )

    def __init__(self, output, fn, reduce_args, inputs, shape_suffix):
        self.output = output
        self.fn = fn
        #: (vid, expand0, axis_positions) for reductions, else None.
        self.reduce_args = reduce_args
        #: [(vid, expand0, perm, index), ...] for elementwise ops.
        self.inputs = inputs
        self.shape_suffix = shape_suffix


class Interpreter:
    """Evaluates a :class:`repro.dfg.ir.Dfg` on NumPy arrays.

    Construction precompiles one execution plan per mode (with and
    without a batch axis) — topological order, op dispatch, and
    operand-alignment transforms — so the per-call cost of :meth:`run` is
    the NumPy arithmetic itself. A golden test pins every output of every
    benchmark DFG, paper-scale and functional, in both modes.
    """

    def __init__(self, dfg: ir.Dfg):
        dfg.validate()
        self._dfg = dfg
        self._topo = dfg.topo_order()
        self._plans = {
            False: [self._compile_step(n, batch=False) for n in self._topo],
            True: [self._compile_step(n, batch=True) for n in self._topo],
        }

    @property
    def dfg(self) -> ir.Dfg:
        return self._dfg

    def run(
        self,
        feeds: Mapping[str, np.ndarray],
        batch: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Evaluate the graph.

        Args:
            feeds: input name -> array. Every DATA and MODEL input must be
                fed. Array dims must match the value's axes — with one
                extra leading batch dimension everywhere on DATA inputs
                when ``batch=True``.
            batch: evaluate for a whole batch of samples at once. MODEL
                inputs are shared (no batch dim); all DATA inputs must
                carry the same leading batch size.

        Returns:
            name -> array for every named output (gradients and assigned
            model variables). Batch mode keeps the leading batch dim.
        """
        env: Dict[int, np.ndarray] = {}
        batch_size = self._bind_inputs(feeds, env, batch)
        prefix = (batch_size,) if batch else ()
        for step in self._plans[batch]:
            if step.reduce_args is not None:
                vid, expand0, positions = step.reduce_args
                arr = env[vid]
                if expand0:
                    arr = np.expand_dims(arr, 0)
                result = step.fn(arr, axis=positions)
            else:
                aligned = []
                for vid, expand0, perm, index in step.inputs:
                    arr = env[vid]
                    if expand0:
                        arr = np.expand_dims(arr, 0)
                    if perm is not None:
                        arr = np.transpose(arr, perm)[index]
                    aligned.append(arr)
                result = step.fn(*aligned)
            shape = prefix + step.shape_suffix
            if np.shape(result) != shape:
                result = np.broadcast_to(result, shape)
            env[step.output] = result
        return self._collect_outputs(env)

    def _collect_outputs(
        self, env: Dict[int, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        results: Dict[str, np.ndarray] = {}
        for name, vid in self._dfg.outputs.items():
            # Materialise broadcast views; np.array keeps 0-d scalars 0-d
            # (np.ascontiguousarray would promote them to shape (1,)).
            results[name] = np.array(env[vid], dtype=np.float64)
        return results

    def _compile_step(self, node: ir.Node, batch: bool) -> _Step:
        """Resolve op dispatch and operand alignment for one node.

        In batch mode a value's rank is static: DATA inputs and every
        produced value carry the leading batch dim; MODEL and CONST
        operands do not and get expanded. An operand whose axes differ
        from the output's is transposed into output order, with new axes
        inserted where it has none.
        """
        info = op_info(node.op)
        out_value = self._dfg.values[node.output]
        shape_suffix = self._dfg.shape(out_value)
        offset = 1 if batch else 0

        def has_batch(value: ir.Value) -> bool:
            return batch and (
                value.category == ir.DATA or value.producer is not None
            )

        if info.reduce:
            in_value = self._dfg.values[node.inputs[0]]
            positions = tuple(
                offset + in_value.axes.index(a) for a in node.reduce_axes
            )
            reduce_args = (
                in_value.vid, batch and not has_batch(in_value), positions
            )
            return _Step(
                node.output, info.numpy_fn, reduce_args, None, shape_suffix
            )
        inputs = []
        out_axes = out_value.axes
        for vid in node.inputs:
            value = self._dfg.values[vid]
            expand0 = batch and not has_batch(value)
            in_axes = value.axes
            if in_axes == out_axes:
                perm, index = None, None
            else:
                present = [a for a in out_axes if a in in_axes]
                perm = tuple(
                    list(range(offset))
                    + [offset + in_axes.index(a) for a in present]
                )
                index = tuple(
                    [slice(None)] * offset
                    + [slice(None) if a in in_axes else None for a in out_axes]
                )
            inputs.append((vid, expand0, perm, index))
        return _Step(node.output, info.numpy_fn, None, inputs, shape_suffix)

    def gradients(
        self, feeds: Mapping[str, np.ndarray], batch: bool = False
    ) -> Dict[str, np.ndarray]:
        """Like :meth:`run` but restricted to gradient outputs."""
        out = self.run(feeds, batch=batch)
        grad_names = {v.name for v in self._dfg.gradient_outputs()}
        return {k: v for k, v in out.items() if k in grad_names}

    # -- internals ---------------------------------------------------------
    def _bind_inputs(
        self, feeds: Mapping[str, np.ndarray], env: Dict[int, np.ndarray],
        batch: bool,
    ) -> Optional[int]:
        batch_size: Optional[int] = None
        for value in self._dfg.values.values():
            if value.producer is not None:
                continue
            if value.category == ir.CONST:
                env[value.vid] = np.float64(value.const_value)
                continue
            if value.name not in feeds:
                raise InterpreterError(f"missing feed for input {value.name!r}")
            arr = np.asarray(feeds[value.name], dtype=np.float64)
            expect = self._dfg.shape(value)
            if batch and value.category == ir.DATA:
                if arr.shape[1:] != expect:
                    raise InterpreterError(
                        f"feed {value.name!r} has shape {arr.shape}, expected "
                        f"(batch,) + {expect}"
                    )
                if batch_size is None:
                    batch_size = arr.shape[0]
                elif arr.shape[0] != batch_size:
                    raise InterpreterError(
                        "all DATA feeds must share one batch size"
                    )
            elif arr.shape != expect:
                raise InterpreterError(
                    f"feed {value.name!r} has shape {arr.shape}, expected {expect}"
                )
            env[value.vid] = arr
        if batch and batch_size is None:
            raise InterpreterError("batch mode requires at least one DATA feed")
        return batch_size
