"""CLI tests (in-process, asserting on captured stdout)."""

import pytest

from repro.cli import main


class TestBenchmarksCommand:
    def test_lists_all_ten(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("mnist", "netflix", "cancer2"):
            assert name in out


class TestExperimentCommand:
    def test_runs_a_figure(self, capsys):
        assert main(["experiment", "figure17"]) == 0
        out = capsys.readouterr().out
        assert "TABLA" in out
        assert "geomean_speedup" in out

    def test_runs_a_table(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "movielens" in capsys.readouterr().out

    def test_unknown_id_fails(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestAblationCommand:
    def test_runs_one(self, capsys):
        assert main(["ablation", "mapping"]) == 0
        assert "ops-first" in capsys.readouterr().out

    def test_unknown_fails(self, capsys):
        assert main(["ablation", "nonsense"]) == 2
        assert "unknown ablation" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_fpga(self, capsys):
        assert main(["plan", "mnist"]) == 0
        out = capsys.readouterr().out
        assert "UltraScale+" in out
        assert "design point" in out
        assert "compute" in out

    def test_plan_pasic(self, capsys):
        assert main(["plan", "stock", "--chip", "pasic-g"]) == 0
        assert "P-ASIC-G" in capsys.readouterr().out

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["plan", "bert"])


class TestRtlCommand:
    def test_emits_verilog(self, capsys):
        assert main(["rtl", "stock", "--rows", "1", "--columns", "2"]) == 0
        out = capsys.readouterr().out
        assert "module cosmic_pe" in out
        assert "cosmic_control_fsm" in out

    def test_pasic_target(self, capsys):
        assert main(["rtl", "stock", "--target", "pasic",
                     "--rows", "1", "--columns", "2"]) == 0
        assert "cosmic_microcode_rom" in capsys.readouterr().out


class TestTrainCommand:
    def test_trains_linear_benchmark(self, capsys):
        code = main([
            "train", "stock", "--nodes", "2", "--threads", "1",
            "--epochs", "3", "--samples", "512",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss:" in out
        assert "simulated seconds:" in out

    def test_trains_cf_benchmark(self, capsys):
        code = main([
            "train", "movielens", "--nodes", "2", "--threads", "1",
            "--epochs", "6", "--samples", "512",
        ])
        assert code == 0
        assert "movielens" in capsys.readouterr().out


class TestChaosCommand:
    def test_master_crash_recovers(self, capsys):
        code = main([
            "chaos", "stock", "--scenario", "master-crash",
            "--epochs", "2", "--samples", "256",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "master-crash" in out
        assert "new_master=" in out
        assert "time to recovery:" in out
        assert "throughput kept:" in out

    def test_healthy_scenario_has_no_faults(self, capsys):
        code = main([
            "chaos", "stock", "--scenario", "healthy",
            "--epochs", "1", "--samples", "256",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(no faults injected)" in out
        assert "time to recovery:   0.0000s" in out

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "stock", "--scenario", "alien-invasion"])
        assert "invalid choice" in capsys.readouterr().err


class TestBadCounts:
    @pytest.mark.parametrize("argv", [
        ["train", "stock", "--samples", "0"],
        ["train", "stock", "--epochs", "0"],
        ["train", "stock", "--nodes", "0"],
        ["train", "stock", "--threads", "-1"],
        ["train", "stock", "--nodes", "four"],
        ["chaos", "stock", "--groups", "0"],
        ["chaos", "stock", "--checkpoint-every", "0"],
        ["chaos", "stock", "--samples", "-8"],
        ["plan", "mnist", "--minibatch", "0"],
        ["rtl", "mnist", "--rows", "0"],
        ["rtl", "mnist", "--columns", "0"],
        ["cache", "prune", "--max-bytes", "-5"],
        ["train", "stock", "--samples", "7"],
        ["chaos", "stock", "--nodes", "2", "--groups", "4"],
    ])
    def test_rejected_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "error: " in err


class TestModuleEntry:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "benchmarks"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "mnist" in proc.stdout
