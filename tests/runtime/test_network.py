"""Tests for the NIC/switch network model."""

import pytest

from repro.runtime import Network, NetworkConfig, RetryPolicy


def make(bandwidth=1e9, chunk=64 * 1024):
    return Network(NetworkConfig(bandwidth_bps=bandwidth, chunk_bytes=chunk))


class TestTransferTime:
    def test_large_message_dominated_by_wire_time(self):
        net = make()
        nbytes = 10 * 1024 * 1024  # 10 MB at 1 Gbps ~= 80 ms
        done = net.send(0, 1, nbytes, start=0.0)
        assert done == pytest.approx(nbytes * 8 / 1e9, rel=0.1)

    def test_higher_bandwidth_faster(self):
        slow = make(bandwidth=1e9)
        fast = make(bandwidth=10e9)
        nbytes = 4 * 1024 * 1024
        assert fast.send(0, 1, nbytes, 0.0) < slow.send(0, 1, nbytes, 0.0)

    def test_latency_floor_for_tiny_messages(self):
        net = make()
        done = net.send(0, 1, 64, start=0.0)
        cfg = net.config
        assert done >= cfg.latency_s + cfg.per_message_overhead_s


class TestContention:
    def test_receiver_nic_serialises_two_senders(self):
        """Two nodes sending to one sigma take ~2x one sender's time."""
        net = make()
        nbytes = 8 * 1024 * 1024
        one = net.send(1, 0, nbytes, 0.0)
        net2 = make()
        net2.send(1, 0, nbytes, 0.0)
        two = net2.send(2, 0, nbytes, 0.0)
        assert two > 1.8 * one

    def test_distinct_receivers_parallel(self):
        """The switch backplane is non-blocking: different destinations
        do not contend."""
        net = make()
        nbytes = 8 * 1024 * 1024
        a = net.send(0, 1, nbytes, 0.0)
        net2 = make()
        net2.send(0, 1, nbytes, 0.0)
        # different source, different destination: fully parallel
        b = net2.send(2, 3, nbytes, 0.0)
        assert b == pytest.approx(a, rel=0.01)

    def test_full_duplex(self):
        """TX and RX of one NIC are independent directions."""
        net = make()
        nbytes = 8 * 1024 * 1024
        out_done = net.send(0, 1, nbytes, 0.0)
        in_done = net.send(1, 0, nbytes, 0.0)
        solo = make().send(0, 1, nbytes, 0.0)
        assert out_done == pytest.approx(solo, rel=0.05)
        assert in_done == pytest.approx(solo, rel=0.05)


class TestChunking:
    def test_chunks_delivered_incrementally(self):
        net = make(chunk=1024)
        arrivals = net.book(0, 1, 10 * 1024, 0.0)
        assert len(arrivals) == 10
        assert arrivals == sorted(arrivals)
        assert sum(net.chunk_sizes(10 * 1024)) == 10 * 1024

    def test_first_chunk_before_message_done(self):
        net = make(chunk=64 * 1024)
        first = net.book(0, 1, 4 * 1024 * 1024, 0.0)[0]
        done = make(chunk=64 * 1024).send(0, 1, 4 * 1024 * 1024, 0.0)
        assert first < done / 4

    def test_send_returns_last_chunk_arrival(self):
        booked = make().book(0, 1, 256 * 1024, 0.0)
        assert make().send(0, 1, 256 * 1024, 0.0) == booked[-1]

    def test_uneven_last_chunk(self):
        net = make(chunk=100_000)
        assert net.chunk_sizes(333_333) == [100_000] * 3 + [33_333]
        assert net.chunk_sizes(7) == [7]

    def test_clone_is_independent(self):
        net = make()
        net.send(0, 1, 100_000, 0.0)
        copy = net.clone()
        copy.send(2, 1, 100_000, 0.0)
        assert copy.messages_sent == 2 and net.messages_sent == 1
        assert copy.rx_busy[1] > net.rx_busy[1]
        # The clone's extra booking queues on node 1's RX; the original's
        # does not see it.
        assert copy.send(3, 1, 100_000, 0.0) > net.send(3, 1, 100_000, 0.0)


class TestAccounting:
    def test_bytes_and_messages_counted(self):
        net = make()
        net.send(0, 1, 1000, 0.0)
        net.send(1, 2, 2000, 0.0)
        assert net.bytes_sent == 3000
        assert net.messages_sent == 2

    def test_rejects_loopback(self):
        net = make()
        with pytest.raises(ValueError):
            net.send(0, 0, 100, 0.0)

    def test_rejects_empty(self):
        net = make()
        with pytest.raises(ValueError):
            net.send(0, 1, 0, 0.0)


class TestRetryPolicy:
    def test_attempt_schedule(self):
        policy = RetryPolicy(timeout_s=0.1, max_retries=2, backoff=2.0)
        assert policy.attempt_timeouts() == pytest.approx([0.1, 0.2, 0.4])
        assert policy.give_up_after_s() == pytest.approx(0.7)

    def test_no_retries_is_one_attempt(self):
        policy = RetryPolicy(timeout_s=0.3, max_retries=0)
        assert policy.attempt_timeouts() == [0.3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestSendReliable:
    def test_reachable_peer_sends_immediately(self):
        net = make()
        plain = net.send(0, 1, 10_000, start=0.0)
        net2 = make()
        reliable = net2.send_reliable(
            0, 1, 10_000, start=0.0, reachable=lambda t: True
        )
        assert reliable == plain
        assert net2.retries == 0
        assert net2.messages_failed == 0

    def test_backoff_until_peer_returns(self):
        net = make()
        policy = RetryPolicy(timeout_s=0.1, max_retries=3, backoff=2.0)
        # Peer comes back at t=0.25: attempts at 0, 0.1, 0.3 succeed on
        # the third try, after two timeouts (0.1 + 0.2) of backoff.
        done = net.send_reliable(
            0, 1, 10_000, start=0.0,
            reachable=lambda t: t >= 0.25, policy=policy,
        )
        assert done is not None
        assert done > 0.3
        assert net.retries == 2
        assert net.messages_failed == 0

    def test_gives_up_on_dead_peer(self):
        net = make()
        policy = RetryPolicy(timeout_s=0.1, max_retries=2, backoff=2.0)
        done = net.send_reliable(
            0, 1, 10_000, start=0.0,
            reachable=lambda t: False, policy=policy,
        )
        assert done is None
        assert net.retries == 3  # every attempt burned its timeout
        assert net.messages_failed == 1
        assert net.messages_sent == 0  # nothing ever hit the wire
