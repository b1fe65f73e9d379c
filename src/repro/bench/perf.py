"""Perf-regression harness: time the stack, gate against a baseline.

``python -m repro perf`` measures two things and writes them to
``BENCH_perf.json``:

* **Stage timings** — translate / plan / compile / simulate / epoch per
  benchmark, each measured with the artifact cache bypassed so the
  numbers track the *work*, not the cache — plus ``plan_points``, the
  number of design points the timed ``plan`` evaluates.
* **Figure-sweep comparison** — a full Figure 7 + Figure 16 regeneration
  three ways: the serial uncached reference path, a cold-cache run (the
  first regeneration in a process), and a warm-cache run (the
  steady-state the cache exists for: every later regeneration in the
  process, and — with ``REPRO_CACHE_DIR`` — fresh processes too). The
  harness asserts all three produce bit-identical
  :class:`ExperimentResult` rows and records the speedups.

A third leg (:func:`measure_quorum_sweep`) times a graceful-degradation
study: a quorum fraction x deadline grid on a 16-node straggler cluster,
through the iteration memo and with it bypassed, and asserts the rows
are identical.
With ``--tier1``, the harness also times the tier-1 test suite in a
child process (``tier1_wall_s``).

Comparing a run against a committed baseline flags any stage that got
more than ``tolerance`` times slower, any work counter that differs
from the baseline at all (and a warm-sweep speedup that
collapsed, or a tier-1 suite that slowed down), so CI catches perf
regressions the functional suite cannot.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Stages timed per benchmark, in pipeline order.
STAGES = ("translate", "plan", "compile", "simulate", "epoch")

#: Benchmarks the ``--quick`` CI gate times (small, medium, large model).
QUICK_BENCHES = ("stock", "movielens", "mnist")

#: Timings below this floor are noise on any machine; the comparator
#: never flags a stage whose baseline is under it.
FLOOR_SECONDS = 0.005

#: Exact work counters recorded beside each benchmark's stage timings.
#: They are host-independent, so the comparator gates them for equality
#: rather than against the timing tolerance and floor.
COUNTERS = ("plan_points",)

#: The warm-cache sweep must stay at least this much faster than the
#: serial uncached path (the headline acceptance number is recorded in
#: the payload; the gate uses a CI-safe fraction of it).
MIN_WARM_SPEEDUP = 3.0


@dataclass
class PerfReport:
    """One harness run: stage timings + sweep comparisons."""

    stages: Dict[str, Dict[str, float]]
    sweep: Dict[str, float]
    quick: bool
    machine: Dict[str, object] = field(default_factory=dict)
    #: Quorum-sweep leg (:func:`measure_quorum_sweep`); empty when the
    #: leg was skipped (baselines written before it existed).
    quorum: Dict[str, object] = field(default_factory=dict)
    #: Wall time of the tier-1 test suite (:func:`measure_tier1`), when
    #: it was measured.
    tier1_wall_s: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "format_version": 1,
            "quick": self.quick,
            "machine": self.machine,
            "stages": self.stages,
            "figure_sweep": self.sweep,
            "quorum_sweep": self.quorum,
            "tier1_wall_s": self.tier1_wall_s,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PerfReport":
        return cls(
            stages=payload["stages"],
            sweep=payload["figure_sweep"],
            quick=payload.get("quick", False),
            machine=payload.get("machine", {}),
            quorum=payload.get("quorum_sweep", {}),
            tier1_wall_s=payload.get("tier1_wall_s"),
        )


def _timeit(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time — the usual perf-counter practice:
    the minimum is the least noisy estimator of the true cost.

    The cyclic collector is paused while the clock runs (as
    :mod:`timeit` does): a gen-2 collection scheduled by allocations in
    *earlier* stages would otherwise land inside whichever sample runs
    next and charge unrelated garbage to that stage.
    """
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def measure_stages(
    names: Optional[Iterable[str]] = None, repeats: int = 2
) -> Dict[str, Dict[str, float]]:
    """Per-benchmark wall time of each toolchain stage, cache bypassed.

    ``translate`` parses + translates the DSL program; ``plan`` runs the
    full design-space exploration; ``compile`` scalarises, maps, and
    schedules; ``simulate`` runs the vectorized MIMD timing model over a
    10k-sample mini-batch; ``epoch`` times a 16-node epoch on the cluster
    timing engine. ``plan_points`` counts the ``Planner.evaluate`` calls
    of one timed ``plan``.
    """
    from ..core.stack import CosmicStack
    from ..core.system import CosmicSystem, platform_for
    from ..hw.spec import XILINX_VU9P
    from ..ml.benchmarks import BENCHMARKS, benchmark
    from ..perf.cache import cache_disabled
    from ..planner import Planner

    benches = (
        list(BENCHMARKS) if names is None else [benchmark(n) for n in names]
    )
    out: Dict[str, Dict[str, float]] = {}
    for bench in benches:
        translation = bench.translate()
        plan = Planner(XILINX_VU9P).plan(
            translation.dfg,
            10_000,
            bench.density,
            stream_words=bench.bytes_per_sample() / XILINX_VU9P.word_bytes,
        )
        stack = CosmicStack.from_benchmark(bench)
        system = CosmicSystem(
            bench, platform_for(bench, "fpga"), nodes=16
        )
        calls: List[tuple] = []

        def plan_stage():
            planner = Planner(XILINX_VU9P)
            evaluate = planner.evaluate

            def counted(*args, **kwargs):
                calls.append(args)
                return evaluate(*args, **kwargs)

            planner.evaluate = counted
            planner.plan(translation.dfg, 10_000, bench.density)

        with cache_disabled():
            timings = {
                "translate": _timeit(bench.translate, repeats),
                "plan": _timeit(plan_stage, repeats),
                "compile": _timeit(
                    lambda: stack.compile(rows=2, columns=4), repeats
                ),
                "simulate": _timeit(
                    lambda: plan.seconds_for(10_000), repeats
                ),
                "epoch": _timeit(lambda: system.epoch_seconds(), repeats),
            }
        out[bench.name] = {k: round(v, 6) for k, v in timings.items()}
        out[bench.name]["plan_points"] = len(calls) // repeats
    return out


def _result_payload(results: Sequence) -> str:
    """Canonical JSON of every row and summary — the bit-identity probe."""
    return json.dumps(
        [(r.experiment, r.rows, r.summary) for r in results],
        default=str,
        sort_keys=True,
    )


def measure_figure_sweep(quick: bool = False) -> Dict[str, float]:
    """Regenerate Figure 7 + Figure 16 on the measured paths and compare.

    Three regenerations: the serial uncached reference (cache bypassed),
    a cold-cache run and a warm-cache run. Raises
    :class:`AssertionError` if any path's rows diverge from the
    reference — the determinism contract of the cache and the parallel
    executor.
    """
    from ..bench import figures
    from ..perf.cache import cache_disabled, get_cache
    from ..perf.parallel import SweepExecutor, set_default_executor

    fig7_names = QUICK_BENCHES if quick else None

    def regenerate():
        return [figures.figure7(fig7_names), figures.figure16()]

    cache = get_cache()
    previous = set_default_executor(SweepExecutor("serial"))
    try:
        cache.clear()
        with cache_disabled():
            start = time.perf_counter()
            reference = regenerate()
            serial_uncached_s = time.perf_counter() - start

        set_default_executor(SweepExecutor("auto"))
        cache.clear()
        start = time.perf_counter()
        cold = regenerate()
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = regenerate()
        warm_s = time.perf_counter() - start
    finally:
        set_default_executor(previous)

    expected = _result_payload(reference)
    if _result_payload(cold) != expected:
        raise AssertionError("cold-cache rows diverge from serial uncached")
    if _result_payload(warm) != expected:
        raise AssertionError("warm-cache rows diverge from serial uncached")

    return {
        "serial_uncached_s": round(serial_uncached_s, 6),
        "cold_cache_s": round(cold_s, 6),
        "warm_cache_s": round(warm_s, 6),
        "cold_speedup": round(serial_uncached_s / cold_s, 3),
        "warm_speedup": round(serial_uncached_s / warm_s, 3),
        "rows_identical": True,
    }


def measure_quorum_sweep(quick: bool = False) -> Dict[str, object]:
    """Time a quorum study: a fraction x deadline grid on a 16-node
    straggler cluster, one iteration per grid point.

    The grid runs twice: with the artifact cache bypassed (the
    reference) and through the iteration memo from a cleared cache.
    Raises :class:`AssertionError` if any point's timing differs, which
    is what a memo key that lost the quorum rule would cause.
    """
    from ..perf.cache import cache_disabled, get_cache
    from ..runtime import ClusterSimulator, ClusterSpec, QuorumConfig

    fractions = (0.5, 1.0) if quick else (0.5, 0.75, 0.9, 1.0)
    deadlines = (1e-3, 20e-3) if quick else (1e-3, 5e-3, 20e-3, 80e-3)
    nodes = 16
    # Deterministic straggler spread: node n computes (1 + n%5) ms, so
    # every window has early closers and genuine deadline casualties.
    compute = [1e-3 * (1 + n % 5) for n in range(nodes)]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=4),
        lambda node_id, samples: compute[node_id],
        update_bytes=1_000_000,
    )
    grid = [
        QuorumConfig(fraction=f, deadline_s=d)
        for f in fractions
        for d in deadlines
    ]
    def run_grid():
        return [sim.iteration(16_000, quorum=rule) for rule in grid]

    cache = get_cache()
    cache.clear()
    with cache_disabled():
        start = time.perf_counter()
        reference = run_grid()
        uncached_s = time.perf_counter() - start
    start = time.perf_counter()
    memoized = run_grid()
    seconds = time.perf_counter() - start
    cache.clear()
    for rule, want, got in zip(grid, reference, memoized):
        if want != got:
            raise AssertionError(
                f"memoized quorum iteration diverges from the uncached one "
                f"at fraction={rule.fraction} deadline_s={rule.deadline_s}"
            )
    return {
        "points": len(grid),
        "fractions": list(fractions),
        "deadlines_s": list(deadlines),
        "uncached_s": round(uncached_s, 6),
        "seconds": round(seconds, 6),
        "rows_identical": True,
    }


def measure_tier1() -> float:
    """Wall time of the tier-1 suite (``python -m pytest -x -q``), run
    in a child process from the repository root. Raises
    :class:`RuntimeError` if the suite fails or is not there."""
    root = Path(__file__).resolve().parents[3]
    if not (root / "tests").is_dir():
        raise RuntimeError(f"no tests/ directory under {root}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError("tier-1 suite failed:\n" + done.stdout[-2000:])
    return seconds


def run_perf(
    names: Optional[Iterable[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    tier1: bool = False,
) -> PerfReport:
    """The full harness: stage matrix, figure-sweep comparison, quorum
    sweep and, with ``tier1``, the tier-1 suite's wall time."""
    if names is None and quick:
        names = QUICK_BENCHES
    if repeats is None:
        repeats = 1 if quick else 2
    return PerfReport(
        stages=measure_stages(names, repeats=repeats),
        sweep=measure_figure_sweep(quick=quick),
        quorum=measure_quorum_sweep(quick=quick),
        tier1_wall_s=round(measure_tier1(), 3) if tier1 else None,
        quick=quick,
        machine={
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
    )


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def write_report(report: PerfReport, path: Path):
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def load_report(path: Path) -> PerfReport:
    return PerfReport.from_dict(json.loads(Path(path).read_text()))


def compare_to_baseline(
    current: PerfReport, baseline: PerfReport, tolerance: float = 2.0
) -> List[str]:
    """Regression messages; empty means the run is within tolerance.

    A stage regresses when it is ``tolerance`` times slower than the
    baseline *and* the baseline is above the noise floor; so does the
    tier-1 wall time, when both runs measured it. A work counter
    (:data:`COUNTERS`) regresses when it differs from the baseline at
    all; a baseline written before the counter existed is not checked.
    The warm-sweep speedup regresses when it falls below half the
    acceptance threshold (machines differ; collapsing to ~1x means the
    cache stopped working).
    """
    problems: List[str] = []
    for bench, stages in current.stages.items():
        base_stages = baseline.stages.get(bench)
        if base_stages is None:
            continue
        for stage, value in stages.items():
            base = base_stages.get(stage)
            if base is not None and stage in COUNTERS:
                if value != base:
                    problems.append(
                        f"{bench}/{stage}: {value} vs baseline {base} "
                        f"(work counters must match exactly)"
                    )
                continue
            if base is None or base < FLOOR_SECONDS:
                continue
            if value > base * tolerance:
                problems.append(
                    f"{bench}/{stage}: {value:.4f}s vs baseline "
                    f"{base:.4f}s (>{tolerance:g}x)"
                )
    warm = current.sweep.get("warm_speedup", 0.0)
    if warm and warm < MIN_WARM_SPEEDUP / 2:
        problems.append(
            f"figure-sweep warm-cache speedup collapsed to {warm:.2f}x "
            f"(acceptance {MIN_WARM_SPEEDUP:g}x, gate {MIN_WARM_SPEEDUP / 2:g}x)"
        )
    if not current.sweep.get("rows_identical", False):
        problems.append("figure-sweep rows are not identical across paths")
    if current.quorum and not current.quorum.get("rows_identical", False):
        problems.append(
            "quorum-sweep rows are not identical with and without the "
            "iteration memo"
        )
    now, base = current.tier1_wall_s, baseline.tier1_wall_s
    if now is not None and base is not None and now > base * tolerance:
        problems.append(
            f"tier-1 suite: {now:.1f}s vs baseline {base:.1f}s "
            f"(>{tolerance:g}x)"
        )
    return problems


def render_report(report: PerfReport) -> str:
    """Human-readable table of the payload."""
    lines = ["== perf: toolchain stage timings (seconds, cache bypassed) =="]
    header = (
        "bench".ljust(12)
        + "".join(s.rjust(11) for s in STAGES)
        + "plan_points".rjust(13)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for bench, stages in report.stages.items():
        lines.append(
            bench.ljust(12)
            + "".join(f"{stages.get(s, 0.0):11.4f}" for s in STAGES)
            + str(stages.get("plan_points", "-")).rjust(13)
        )
    sweep = report.sweep
    lines.append("")
    lines.append("== perf: Figure 7 + Figure 16 regeneration ==")
    lines.append(
        f"  serial uncached  {sweep['serial_uncached_s']:.3f}s"
    )
    lines.append(
        f"  cold cache       {sweep['cold_cache_s']:.3f}s"
        f"  ({sweep['cold_speedup']:.2f}x)"
    )
    lines.append(
        f"  warm cache       {sweep['warm_cache_s']:.3f}s"
        f"  ({sweep['warm_speedup']:.2f}x)"
    )
    lines.append(
        "  rows identical   "
        + ("yes" if sweep.get("rows_identical") else "NO")
    )
    quorum = report.quorum
    if quorum:
        lines.append("")
        lines.append("== perf: quorum-window sweep (fraction x deadline) ==")
        lines.append(
            f"  grid             {quorum['points']} points "
            f"({len(quorum['fractions'])} fractions x "
            f"{len(quorum['deadlines_s'])} deadlines)"
        )
        lines.append(f"  wall time        {quorum['seconds']:.3f}s")
        lines.append(
            "  rows identical   "
            + ("yes" if quorum.get("rows_identical") else "NO")
        )
    if report.tier1_wall_s is not None:
        lines.append("")
        lines.append(f"== perf: tier-1 suite {report.tier1_wall_s:.1f}s ==")
    return "\n".join(lines)
