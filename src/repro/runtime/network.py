"""Cluster network model: gigabit NICs behind a non-blocking switch.

Matches the evaluation cluster (Section 7.1): TP-Link gigabit NICs on a
24-port switch with full-duplex ports and a 48 Gbps backplane — so the
switch itself never saturates and contention happens at the endpoints'
NICs. Messages are chunked (socket-buffer sized) so that a Sigma node's
aggregation pipeline can start on the first chunk, exactly the
producer-consumer overlap the circular buffer enables (Figure 2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class NetworkConfig:
    """Link and protocol parameters.

    ``per_message_overhead_s`` covers connection handling and kernel
    wake-up on each logical message; ``per_chunk_overhead_s`` is the
    TCP/IP per-segment cost that CoSMIC's epoll-driven handler amortises;
    ``chunk_bytes`` is the socket-buffer granularity at which data becomes
    visible to the receiver.
    """

    bandwidth_bps: float = 1e9
    latency_s: float = 50e-6
    per_message_overhead_s: float = 200e-6
    per_chunk_overhead_s: float = 5e-6
    chunk_bytes: int = 64 * 1024

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ValueError(
                "bandwidth_bps must be positive and finite, got "
                f"{self.bandwidth_bps!r}"
            )
        for name in (
            "latency_s",
            "per_message_overhead_s",
            "per_chunk_overhead_s",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be non-negative and finite, got {value!r}"
                )
        if not (
            isinstance(self.chunk_bytes, numbers.Integral)
            and self.chunk_bytes >= 1
        ):
            raise ValueError(
                "chunk_bytes must be an integer >= 1, got "
                f"{self.chunk_bytes!r}"
            )

    def wire_seconds(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.bandwidth_bps


@dataclass(frozen=True)
class RetryPolicy:
    """Per-message timeout with exponential backoff.

    A sender whose peer stops acknowledging waits ``timeout_s``, then
    retries with the timeout scaled by ``backoff`` each attempt, up to
    ``max_retries`` retries before declaring the peer unreachable — the
    point at which the Director's failure handling takes over.
    """

    timeout_s: float = 0.25
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError(
                f"per-message timeout must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff < 1.0:
            raise ValueError(
                f"backoff factor must be >= 1 (got {self.backoff}); a "
                "shrinking backoff would hammer a struggling peer"
            )

    def attempt_timeouts(self) -> list:
        """Timeout of each attempt: initial send plus every retry."""
        return [
            self.timeout_s * self.backoff**i
            for i in range(self.max_retries + 1)
        ]

    def give_up_after_s(self) -> float:
        """Wall-clock a sender burns before declaring the peer dead."""
        return sum(self.attempt_timeouts())


class Network:
    """The per-node NIC ledger: chunked point-to-point transfers.

    Each node's NIC has independent TX and RX directions, each serially
    reusable and booked first-come-first-served in call order. Callers
    book messages in the order they hit the wire. A message is split into
    ``chunk_bytes`` chunks: the sender's TX serialises them back to back,
    and each chunk then queues on the receiver's RX.
    """

    def __init__(self, config: NetworkConfig = NetworkConfig()):
        self.config = config
        #: Per node: when its TX and RX sides are next free, and the
        #: seconds its RX side has been busy.
        self.tx_free: Dict[int, float] = {}
        self.rx_free: Dict[int, float] = {}
        self.rx_busy: Dict[int, float] = {}
        self.bytes_sent = 0
        self.messages_sent = 0
        self.retries = 0
        self.messages_failed = 0
        self._plans: Dict[int, tuple] = {}

    def clone(self) -> "Network":
        """An independent copy of the bookings and counters, so a caller
        can book tentatively and roll back."""
        copy = Network(self.config)
        copy.tx_free = dict(self.tx_free)
        copy.rx_free = dict(self.rx_free)
        copy.rx_busy = dict(self.rx_busy)
        copy.bytes_sent = self.bytes_sent
        copy.messages_sent = self.messages_sent
        copy.retries = self.retries
        copy.messages_failed = self.messages_failed
        copy._plans = self._plans
        return copy

    def chunk_sizes(self, nbytes: int) -> List[int]:
        """Chunk sizes of one message: full chunks, then the remainder."""
        return list(self._plan(nbytes)[0])

    def _plan(self, nbytes: int) -> tuple:
        plan = self._plans.get(nbytes)
        if plan is None:
            cfg = self.config
            full, rem = divmod(nbytes, cfg.chunk_bytes)
            sizes = [cfg.chunk_bytes] * full + ([rem] if rem else [])
            wires = [
                cfg.wire_seconds(size) + cfg.per_chunk_overhead_s
                for size in sizes
            ]
            plan = self._plans[nbytes] = (sizes, wires)
        return plan

    def book(
        self, src: int, dst: int, nbytes: int, start: float
    ) -> List[float]:
        """Book one message on both NICs; returns each chunk's arrival.

        Chunk ``i`` leaves when the sender's TX is free and lands
        ``latency_s`` later, once the receiver's RX is free. After the
        first chunk the sender's cursor always equals its own TX free
        time, so the TX chain is a plain left-to-right sum; the RX side
        is a scan that waits for the receiver. One loop does both.
        """
        if src == dst:
            raise ValueError("loopback transfers are free; do not model them")
        if nbytes <= 0:
            raise ValueError("message must have a positive size")
        cfg = self.config
        latency = cfg.latency_s
        wires = self._plan(nbytes)[1]
        self.bytes_sent += nbytes
        self.messages_sent += 1
        cursor = start + cfg.per_message_overhead_s
        tx = self.tx_free.get(src, 0.0)
        if cursor >= tx:
            tx = cursor
        rx = self.rx_free.get(dst, 0.0)
        busy = self.rx_busy.get(dst, 0.0)
        arrivals = []
        for wire in wires:
            earliest = (tx + wire + latency) - wire
            rx = (earliest if earliest >= rx else rx) + wire
            arrivals.append(rx)
            busy += wire
            tx += wire
        self.tx_free[src] = tx
        self.rx_free[dst] = rx
        self.rx_busy[dst] = busy
        return arrivals

    def send(self, src: int, dst: int, nbytes: int, start: float) -> float:
        """Book one message; returns its delivery-complete time."""
        arrivals = self.book(src, dst, nbytes, start)
        cursor = start + self.config.per_message_overhead_s
        return max(cursor, max(arrivals))

    def send_reliable(
        self,
        src: int,
        dst: int,
        nbytes: int,
        start: float,
        reachable: Callable[[float], bool],
        policy: RetryPolicy = RetryPolicy(),
    ) -> Optional[float]:
        """``send`` with per-message timeout and exponential backoff.

        ``reachable(time)`` answers whether ``dst`` acknowledges at that
        instant (crashed/partitioned peers do not). Each failed attempt
        burns its timeout before the next try; after exhausting the retry
        budget the message is abandoned and ``None`` is returned — the
        total time burned is ``policy.give_up_after_s()``, which the
        recovery layer accounts against the failover clock.
        """
        cursor = start
        for attempt_timeout in policy.attempt_timeouts():
            if reachable(cursor):
                return self.send(src, dst, nbytes, cursor)
            cursor += attempt_timeout
            self.retries += 1
        self.messages_failed += 1
        return None
