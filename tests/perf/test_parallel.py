"""Sweep executor: ordering, modes, error propagation."""

import os

import pytest

from repro.perf.parallel import (
    SweepExecutor,
    default_executor,
    set_default_executor,
)


class TestSweepExecutor:
    def test_serial_preserves_order(self):
        ex = SweepExecutor("serial")
        assert ex.map(lambda x: x * x, range(10)) == [
            x * x for x in range(10)
        ]

    def test_thread_preserves_order(self):
        ex = SweepExecutor("thread", max_workers=4)
        items = list(range(50))
        assert ex.map(lambda x: x * 3, items) == [x * 3 for x in items]

    def test_thread_matches_serial(self):
        def fn(x):
            return sum(i * x for i in range(100))
        items = list(range(20))
        serial = SweepExecutor("serial").map(fn, items)
        threaded = SweepExecutor("thread", max_workers=3).map(fn, items)
        assert serial == threaded

    def test_empty_and_single(self):
        ex = SweepExecutor("thread")
        assert ex.map(lambda x: x, []) == []
        assert ex.map(lambda x: x + 1, [41]) == [42]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor("fibers")

    @pytest.mark.parametrize("mode", ["process", "queue"])
    def test_removed_modes_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown mode"):
            SweepExecutor(mode)

    def test_auto_resolves_by_cpu_count(self):
        expected = "thread" if (os.cpu_count() or 1) > 1 else "serial"
        assert SweepExecutor("auto").resolved_mode() == expected

    def test_exceptions_propagate(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("point 3 failed")
            return x

        with pytest.raises(RuntimeError, match="point 3"):
            SweepExecutor("thread", max_workers=2).map(boom, range(6))


class TestDefaultExecutor:
    def test_set_and_restore(self):
        original = default_executor()
        pinned = SweepExecutor("serial")
        previous = set_default_executor(pinned)
        try:
            assert previous is original
            assert default_executor() is pinned
        finally:
            set_default_executor(original)
        assert default_executor() is original
