"""Tests for the serially-reusable ``Resource`` behind the worker pools."""

from repro.runtime import Resource


class TestResource:
    def test_serialises_overlapping_requests(self):
        r = Resource("nic")
        assert r.acquire(0.0, 1.0) == 0.0
        assert r.acquire(0.5, 1.0) == 1.0
        assert r.acquire(3.0, 1.0) == 3.0

    def test_busy_accounting(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        r.acquire(0.0, 3.0)
        assert r.busy_seconds == 5.0
        assert r.utilization(10.0) == 0.5

    def test_utilization_clamped(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        assert r.utilization(1.0) == 1.0
        assert r.utilization(0.0) == 0.0
