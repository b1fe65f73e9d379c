"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper|scale|stack --seed N \
        --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones. The line
before it records provenance. See README.md in this directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up runs measured in child processes; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Host seconds ``calibrate`` takes on the host this benchmark was tuned
#: on (2-vCPU Xeon VM, Python 3.11, NumPy 2). Times are reported in these
#: reference seconds: host seconds x REFERENCE_S / calibrate(), with the
#: calibration measured around each repetition. The host is shared and
#: its speed drifts: over two minutes raw repetition times of one
#: workload swung by 48%, the normalised ones by 7%.
REFERENCE_S = 0.008
#: Repetitions a run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cluster.self_s": "s",
    "cluster.iterations": "count",
    "cluster.node_iters": "count",
    "cluster.us_per_node_iter": "us",
    "schedule.records": "count",
    "schedule.record_s": "s",
    "schedule.replays": "count",
    "schedule.replay_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "ratio",
    "cache.self_s": "s",
    "sweep.map_s": "s",
    "sweep.points": "count",
    "sweep.self_s": "s",
    "planner.self_s": "s",
    "planner.plans": "count",
    "planner.points": "count",
    "hw.self_s": "s",
    "baselines.self_s": "s",
    "bench.self_s": "s",
    "dsl.self_s": "s",
    "dfg.self_s": "s",
    "dfg.nodes": "count",
    "dfg.interp_s": "s",
    "compiler.self_s": "s",
    "compiler.ops": "count",
    "circuit.self_s": "s",
    "trainer.self_s": "s",
    "trainer.steps": "count",
    "trainer.samples": "count",
    "recovery.self_s": "s",
    "recovery.events": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


LAYERS = tuple(
    name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")
)


def clear_repro_env() -> list:
    """Drop inherited ``REPRO_*`` settings so defaults are measured."""
    names = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def calibrate() -> float:
    """Host seconds for a fixed mix of interpreter and small-NumPy work
    that shares no code with the program under test."""
    import numpy as np

    t0 = time.perf_counter()
    counts = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    a = np.arange(64.0)
    for _ in range(2_000):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def speed_factor(calibrations) -> float:
    """Host seconds to reference seconds, from nearby calibrations."""
    return REFERENCE_S / statistics.mean(calibrations)


def setup_probe(args) -> float:
    """Set up in a fresh child process; returns its set-up time in
    reference seconds."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_rep(workload, tracer=None) -> dict:
    """One repetition on a cold artifact cache, optionally traced.

    A calibration runs between operations, outside the timed region, so
    each operation's host time is converted with the host speed of its
    own moment."""
    from repro.perf.cache import get_cache
    from spans import outermost_duration, self_times
    from workloads import Failed

    get_cache().clear()
    gc.collect()
    outputs = []
    host_s = wall_s = covered_s = map_s = 0.0
    by_name = defaultdict(float)
    calibrations = [calibrate()]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in workload.ops:
            if tracer is not None:
                tracer.spans = []
                span = tracer.open("bench.op")
            t0 = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outputs.append(Failed(traceback.format_exc()))
            finally:
                if tracer is not None:
                    tracer.close(span)
            t1 = time.perf_counter()
            calibrations.append(calibrate())
            factor = speed_factor(calibrations[-2:])
            host_s += t1 - t0
            wall_s += (t1 - t0) * factor
            if tracer is not None:
                names, covered = self_times(tracer.spans, t0, t1)
                for name, seconds in names.items():
                    by_name[name] += seconds * factor
                map_s += factor * outermost_duration(tracer.spans, "sweep.map")
                covered_s += covered
    finally:
        if tracer is not None:
            tracer.uninstall()
    verdicts = workload.check(outputs)
    rep = {
        "host_wall_s": host_s,
        "wall_s": wall_s,
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
    }
    if tracer is not None:
        layers = layer_metrics(by_name, tracer.counts, get_cache().stats)
        layers["sweep.map_s"] = map_s
        layers["trace.coverage"] = covered_s / host_s
        rep["layers"] = layers
    return rep


def layer_metrics(by_name, counts, stats) -> dict:
    """Per-layer metrics of one traced repetition from its self times
    per span name, its counters and the cache statistics."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    record_s = by_name.get("schedule.record", 0.0)
    replay_s = by_name.get("schedule.replay", 0.0)
    node_iters = counts["cluster.node_iters"]
    sim_s = layer_self["cluster"] + record_s + replay_s
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update(counts)
    out.update(
        {
            "cluster.us_per_node_iter": (
                1e6 * sim_s / node_iters if node_iters else 0.0
            ),
            "schedule.record_s": record_s,
            "schedule.replay_s": replay_s,
            "dfg.interp_s": by_name.get("dfg.interp", 0.0),
            "cache.hits": stats.hits + stats.disk_hits,
            "cache.misses": stats.misses,
            "cache.hit_rate": stats.hit_rate(),
        }
    )
    return out


def measure(workload, seconds: float, trace: bool) -> list:
    """Repeat the workload for ``seconds``; with ``trace``, every second
    repetition is traced so both kinds run under the same conditions."""
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    min_reps = MIN_REPS + 1 if trace else MIN_REPS
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        traced = tracer if trace and len(reps) % 2 else None
        reps.append(run_rep(workload, traced))
    return reps


def end_to_end(workload, reps, setup_s: float) -> dict:
    walls = [r["wall_s"] for r in reps]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(workload.work() / w for w in walls),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(reps) -> dict:
    traced = [r for r in reps if "layers" in r]
    plain = [r["wall_s"] for r in reps if "layers" not in r]
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(plain)
    return out


def provenance(args, cleared, reps) -> dict:
    from repro.perf import env
    from repro.perf.cache import get_cache
    from repro.perf.parallel import default_executor
    from repro.runtime.schedule import replay_enabled

    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    executor = default_executor()
    cache = get_cache()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "golden": args.seed in workloads.SHIPPED_SEEDS,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(reps),
        "host_wall_s": [r["host_wall_s"] for r in reps],
        "reference_s": REFERENCE_S,
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cleared_env": cleared,
        "settings": {
            "sweep_mode": executor.resolved_mode(),
            "sweep_jobs": executor.max_workers or os.cpu_count(),
            "cache_enabled": cache.enabled,
            "cache_dir": str(cache.disk_dir) if cache.disk_dir else None,
            "cache_max_bytes": env.cache_max_bytes(),
            "schedule_replay": replay_enabled(),
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = clear_repro_env()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.make(args.workload, args.seed, ROOT)
    if args.setup_probe:
        setup_s = time.perf_counter() - T_START
        factor = speed_factor([calibrate() for _ in range(3)])
        print(json.dumps({"setup_s": setup_s * factor}))
        return 0

    reps = measure(workload, args.seconds, bool(args.trace))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values, units = per_layer(reps), PER_LAYER
    else:
        # The first set-up of a fresh checkout also compiles bytecode,
        # so set-up time is the median of later set-ups, each in a
        # fresh child process.
        setup_s = statistics.median(
            setup_probe(args) for _ in range(SETUP_PROBES)
        )
        values = end_to_end(workload, reps, setup_s)
        units = END_TO_END
    print(json.dumps({"provenance": provenance(args, cleared, reps)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
