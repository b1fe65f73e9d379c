"""Parallel sweep execution with a deterministic serial fallback.

The experiment harness (Figures 7/8/9/12/15/16) and the Planner's
design-space exploration are embarrassingly parallel: every sweep point is
an independent pure computation. :class:`SweepExecutor` fans those points
out over a thread pool while keeping the *results* in input order, so
parallel and serial runs produce bit-identical output — the property the
golden ``results_full.txt`` test asserts.

Modes:

* ``"serial"`` — a plain list comprehension; the reference path.
* ``"thread"`` — ``ThreadPoolExecutor`` with ``min(points, CPUs)``
  workers. The sweep workloads release the GIL inside NumPy and, more
  importantly, share the process-wide :mod:`repro.perf.cache`, so one
  worker's translation/plan is every worker's hit.
* ``"auto"`` — threads when the machine has more than one CPU, else
  serial.

The default mode comes from ``REPRO_SWEEP_MODE`` so CI and the perf
harness can steer sweeps without threading arguments through every figure
function. It is parsed — with validation — by :mod:`repro.perf.env`,
lazily on first use.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from . import env

T = TypeVar("T")
R = TypeVar("R")

MODES = env.SWEEP_MODES


class SweepExecutor:
    """Order-preserving map over independent sweep points."""

    def __init__(self, mode: str = "auto", max_workers: Optional[int] = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        self.mode = mode
        self.max_workers = max_workers

    def resolved_mode(self) -> str:
        """The concrete mode ``"auto"`` selects on this machine."""
        if self.mode != "auto":
            return self.mode
        return "thread" if (os.cpu_count() or 1) > 1 else "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; results follow the input order.

        An exception in any worker propagates to the caller (after the
        pool drains), exactly as the serial path would raise it.
        """
        points: Sequence[T] = list(items)
        if self.resolved_mode() == "serial" or len(points) <= 1:
            return [fn(p) for p in points]
        workers = self.max_workers or min(len(points), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, points))


_DEFAULT: Optional[SweepExecutor] = None


def default_executor() -> SweepExecutor:
    """The executor the figure harness and Planner use by default.

    Built lazily on first call from ``REPRO_SWEEP_MODE`` (validated — a
    bad value raises :class:`repro.perf.env.EnvError` here rather than
    crashing inside a sweep), then cached until
    :func:`set_default_executor` replaces it.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SweepExecutor(mode=env.sweep_mode())
    return _DEFAULT


def set_default_executor(executor: SweepExecutor) -> SweepExecutor:
    """Replace the default executor (the perf harness pins serial/thread
    modes around its measurements); returns the previous one."""
    global _DEFAULT
    previous = default_executor()
    _DEFAULT = executor
    return previous
