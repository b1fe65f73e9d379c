"""Perf-regression harness: payloads, comparator, CLI gate."""

import json


from repro.bench.perf import (
    PerfReport,
    compare_to_baseline,
    load_report,
    measure_figure_sweep,
    measure_quorum_sweep,
    measure_stages,
    render_report,
    write_report,
)
from repro.cli import main
from repro.perf.cache import get_cache


def _report(stages=None, sweep=None, quorum=None):
    return PerfReport(
        stages=stages
        or {"stock": {"translate": 0.01, "plan": 0.02, "compile": 0.03}},
        sweep=sweep
        or {
            "serial_uncached_s": 0.2,
            "cold_cache_s": 0.1,
            "warm_cache_s": 0.02,
            "cold_speedup": 2.0,
            "warm_speedup": 10.0,
            "rows_identical": True,
        },
        quorum=quorum
        or {
            "points": 4,
            "fractions": [0.5, 1.0],
            "deadlines_s": [0.001, 0.02],
            "uncached_s": 0.01,
            "seconds": 0.01,
            "rows_identical": True,
        },
        tier1_wall_s=20.0,
        quick=True,
    )


class TestComparator:
    def test_within_tolerance_passes(self):
        assert compare_to_baseline(_report(), _report()) == []

    def test_regressed_stage_flagged(self):
        slow = _report(
            stages={"stock": {"plan": 0.1, "translate": 0.01}}
        )
        problems = compare_to_baseline(slow, _report(), tolerance=2.0)
        assert any("stock/plan" in p for p in problems)

    def test_sub_floor_stages_never_flagged(self):
        base = _report(stages={"stock": {"translate": 0.0001}})
        slow = _report(stages={"stock": {"translate": 0.004}})
        assert compare_to_baseline(slow, base) == []

    def test_unknown_bench_ignored(self):
        current = _report(stages={"brand-new": {"plan": 9.9}})
        assert compare_to_baseline(current, _report()) == []

    def test_collapsed_speedup_flagged(self):
        bad_sweep = dict(_report().sweep, warm_speedup=1.1)
        problems = compare_to_baseline(
            _report(sweep=bad_sweep), _report()
        )
        assert any("speedup" in p for p in problems)

    def test_divergent_rows_flagged(self):
        bad_sweep = dict(_report().sweep, rows_identical=False)
        problems = compare_to_baseline(
            _report(sweep=bad_sweep), _report()
        )
        assert any("identical" in p for p in problems)

    def test_divergent_quorum_rows_flagged(self):
        bad = dict(_report().quorum, rows_identical=False)
        problems = compare_to_baseline(_report(quorum=bad), _report())
        assert any("quorum" in p for p in problems)

    def test_slower_tier1_flagged(self):
        slow = _report()
        slow.tier1_wall_s = 45.0
        problems = compare_to_baseline(slow, _report(), tolerance=2.0)
        assert any("tier-1" in p for p in problems)
        unmeasured = _report()
        unmeasured.tier1_wall_s = None
        assert compare_to_baseline(unmeasured, _report()) == []
        assert compare_to_baseline(_report(), unmeasured) == []

    def test_changed_plan_points_flagged(self):
        """The DSE point count is gated exactly, however fast the plan
        stage is (every recorded plan stage sits under the floor)."""
        base = _report(stages={"stock": {"plan": 0.0003, "plan_points": 27}})
        for points in (26, 28, 54):
            now = _report(
                stages={"stock": {"plan": 0.0003, "plan_points": points}}
            )
            problems = compare_to_baseline(now, base, tolerance=100.0)
            assert any("stock/plan_points" in p for p in problems)
        same = _report(stages={"stock": {"plan": 0.004, "plan_points": 27}})
        assert compare_to_baseline(same, base) == []

    def test_missing_quorum_leg_tolerated(self):
        """Baselines written before the quorum leg existed (and current
        runs without it) must not be flagged for the absence alone."""
        old = _report()
        old.quorum = {}
        assert compare_to_baseline(old, _report()) == []
        assert compare_to_baseline(_report(), old) == []


class TestPayloadRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_report(_report(), path)
        loaded = load_report(path)
        assert loaded.stages == _report().stages
        assert loaded.sweep == _report().sweep
        assert loaded.quorum == _report().quorum
        assert loaded.tier1_wall_s == 20.0
        assert json.loads(path.read_text())["format_version"] == 1

    def test_pre_quorum_payload_loads(self):
        payload = _report().to_dict()
        del payload["quorum_sweep"]
        assert PerfReport.from_dict(payload).quorum == {}

    def test_pre_plan_points_payload_loads(self):
        """A baseline written before ``plan_points`` existed loads, and
        neither side is flagged for the counter's absence alone."""
        payload = _report().to_dict()
        assert all("plan_points" not in v for v in payload["stages"].values())
        old = PerfReport.from_dict(json.loads(json.dumps(payload)))
        now = _report(
            stages={
                "stock": {
                    "translate": 0.01, "plan": 0.02, "compile": 0.03,
                    "plan_points": 27,
                }
            }
        )
        assert compare_to_baseline(now, old) == []
        assert compare_to_baseline(old, now) == []

    def test_render_is_textual(self):
        text = render_report(_report())
        assert "stock" in text
        assert "warm cache" in text
        assert "quorum-window sweep" in text
        assert "tier-1 suite" in text


class TestHarness:
    def test_measure_stages_shape(self):
        stages = measure_stages(["stock"], repeats=1)
        assert set(stages) == {"stock"}
        assert set(stages["stock"]) == {
            "translate", "plan", "compile", "simulate", "epoch",
            "plan_points",
        }
        assert all(v >= 0 for v in stages["stock"].values())
        assert stages["stock"]["plan_points"] > 0

    def test_figure_sweep_rows_identical(self):
        get_cache().clear()
        sweep = measure_figure_sweep(quick=True)
        assert sweep["rows_identical"] is True
        assert sweep["serial_uncached_s"] > 0
        assert sweep["warm_speedup"] > 1.0

    def test_quorum_sweep_rows_identical(self):
        get_cache().clear()
        quorum = measure_quorum_sweep(quick=True)
        assert quorum["rows_identical"] is True
        assert quorum["uncached_s"] > 0
        assert quorum["points"] == len(quorum["fractions"]) * len(
            quorum["deadlines_s"]
        )
        assert quorum["seconds"] > 0


class TestCli:
    def test_perf_quick_creates_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "perf", "--quick", "--bench", "stock",
                "--baseline", str(baseline), "--update-baseline",
            ]
        )
        assert code == 0
        assert baseline.is_file()
        # Second run gates against it and passes (same machine).
        code = main(
            [
                "perf", "--quick", "--bench", "stock",
                "--baseline", str(baseline), "--tolerance", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "within" in out
