"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run the benchmark in child processes, the way it is run for real,
plus a few in-process checks of the correctness and tracing logic.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# In-process tests measure the defaults, as the benchmark does.
run.clear_repro_env()

#: Per-layer metrics that count work and so must repeat exactly.
WORK_COUNTERS = [
    name for name, unit in run.PER_LAYER.items() if unit == "count"
] + ["cache.hit_rate"]


def bench(*args, env=None, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return done


def result(*args, **kwargs):
    done = bench(*args, **kwargs)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0"]
    runs = [result(*args, "--trace", "1")[1] for _ in range(2)]
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == set(run.PER_LAYER)
        assert 0.95 < out["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9
    for name in WORK_COUNTERS:
        values = [out["metrics"][name]["value"] for out in runs]
        assert values[0] == values[1], name


def test_end_to_end_metrics_and_isolation(tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_SWEEP_MODE"] = "serial"
    provenance, out = result(
        "--workload", "stack", "--seed", "5", "--seconds", "0",
        "--trace", "0", env=env,
    )
    assert out["correct"] and out["attempted"] >= 3 * 20
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert provenance["cleared_env"] == ["REPRO_CACHE_DIR", "REPRO_SWEEP_MODE"]
    assert provenance["settings"]["cache_dir"] is None
    assert provenance["settings"]["sweep_mode"] != "serial" or (
        os.cpu_count() == 1
    )
    assert not (tmp_path / "cache").exists()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = bench(
        "--workload", "paper", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- correctness: a wrong output is a failure, not a pass -------------------


def corrupt(workload, index, change):
    op = workload.ops[index]
    workload.ops = workload.ops[: index + 1]
    workload.ops[index] = workloads.Op(op.label, lambda: change(op.run()))


def test_corrupted_stack_output_is_counted():
    workload = workloads.make("stack", 0, ROOT)
    corrupt(workload, 1, lambda out: {**out, "rtl": out["rtl"] + " "})
    rep = run.run_rep(workload)
    assert (rep["attempted"], rep["failed"]) == (2, 1)


def test_corrupted_paper_table_is_counted():
    workload = workloads.make("paper", 0, ROOT)
    ops = {op.label: op for op in workload.ops}
    workload.ops = [ops["table1"], ops["table2"]]
    corrupt(workload, 1, lambda table: table.replace("0", "1", 1))
    rep = run.run_rep(workload)
    assert (rep["attempted"], rep["failed"]) == (2, 1)


def test_scale_output_checked_by_digest_and_by_invariants():
    def nudge(timing):
        return dataclasses.replace(timing, total_s=timing.total_s + 1e-12)

    def drop_on_barrier(timing):
        return dataclasses.replace(timing, dropped=[0])

    golden = workloads.make("scale", 0, ROOT)
    corrupt(golden, 0, nudge)
    assert run.run_rep(golden)["failed"] == 1
    unseen = workloads.make("scale", 123_457, ROOT)
    assert str(123_457) not in workloads.load_goldens()["scale"]
    unseen.ops = unseen.ops[:1]
    assert run.run_rep(unseen)["failed"] == 0
    corrupt(unseen, 0, drop_on_barrier)
    assert run.run_rep(unseen)["failed"] == 1


def test_raising_operation_is_counted():
    workload = workloads.make("stack", 0, ROOT)
    workload.ops = [workloads.Op("boom", lambda: 1 / 0)]
    rep = run.run_rep(workload)
    assert (rep["attempted"], rep["failed"]) == (1, 1)


# -- tracing ------------------------------------------------------------------


def test_self_time_shares_concurrent_threads():
    tracer = spans.Tracer()
    top = tracer.open("bench.op")
    sweep = tracer.open("sweep.map")

    def task():
        inner = tracer.open("planner.task", parent=sweep)
        time.sleep(0.05)
        tracer.close(inner)

    threads = [threading.Thread(target=task) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    tracer.close(sweep)
    tracer.close(top)
    t0, t1 = top.start, top.end
    by_name, covered = spans.self_times(tracer.spans, t0, t1)
    assert covered == pytest.approx(t1 - t0, rel=1e-6)
    assert sum(by_name.values()) == pytest.approx(covered, rel=1e-9)
    # Both tasks overlap; they split the time instead of double counting.
    assert by_name["planner.task"] == pytest.approx(0.05, rel=0.5)
    assert by_name["planner.task"] < t1 - t0


def test_tracer_wraps_and_restores_entry_points():
    import repro.bench.chaos  # imports ``translate`` by name
    from repro.perf.parallel import SweepExecutor
    from repro.runtime.cluster import ClusterSimulator

    def entry_points():
        return (
            sys.modules["repro.dfg.translate"].translate,
            repro.bench.chaos.translate,
            ClusterSimulator.iteration,
            SweepExecutor.map,
        )

    before = entry_points()
    tracer = spans.Tracer()
    tracer.install()
    during = entry_points()
    tracer.uninstall()
    assert during[0] is during[1] and during[0] is not before[0]
    assert during[2] is not before[2] and during[3] is not before[3]
    assert entry_points() == before
