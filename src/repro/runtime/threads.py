"""Internally-managed thread pools and the circular buffer (Section 3).

The Sigma-node system software avoids generic OS thread management by
keeping two fixed pools: the Networking Pool copies received chunks from
kernel socket buffers into a Circular Buffer, and the Aggregation Pool
consumes chunks from it, updating the Aggregation Buffer. Networking
threads are producers, aggregation threads consumers; the circular buffer
bounds memory and provides backpressure while letting communication and
computation overlap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class PoolConfig:
    """Service rates of the two pools on the host CPU.

    ``copy_bytes_per_s`` is a kernel-to-user memcpy; ``aggregate_bytes_per_s``
    is a vectorised AXPY over the aggregation buffer. Both derive from the
    Xeon E3's memory system; thread counts default to the paper's setup of
    a small fixed pool per role on the quad-core host.
    """

    networking_threads: int = 2
    aggregation_threads: int = 2
    copy_bytes_per_s: float = 6e9
    aggregate_bytes_per_s: float = 4e9
    wakeup_overhead_s: float = 2e-6  # epoll event dispatch, no thread spawn

    def __post_init__(self):
        for name in ("copy_bytes_per_s", "aggregate_bytes_per_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}"
                )


class Resource:
    """A serially-reusable resource (a pool worker, a bus, a core).

    ``acquire`` returns the earliest start time at or after ``earliest``
    and books the resource for ``duration`` seconds, first-come-first-
    served in call order.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._free_at = 0.0
        self.busy_seconds = 0.0

    @property
    def free_at(self) -> float:
        return self._free_at

    def acquire(self, earliest: float, duration: float) -> float:
        start = max(earliest, self._free_at)
        self._free_at = start + duration
        self.busy_seconds += duration
        return start

    def utilization(self, horizon: float) -> float:
        """Busy fraction over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / horizon)


class WorkerPool:
    """A fixed set of workers, each serially reusable."""

    def __init__(self, name: str, workers: int):
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self._workers = [Resource(f"{name}[{i}]") for i in range(workers)]

    def dispatch(self, earliest: float, duration: float) -> float:
        """Run one work item on the first worker free; returns finish time."""
        worker = min(self._workers, key=lambda w: max(w.free_at, earliest))
        start = worker.acquire(earliest, duration)
        return start + duration

    @property
    def size(self) -> int:
        return len(self._workers)

    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self._workers)


class CircularBuffer:
    """Bounded producer-consumer staging between the two pools.

    Tracks occupancy over simulated time: a producer finishing a copy at
    time ``t`` must wait until the consumer has freed enough space. The
    buffer is deliberately small — "the Circular Buffer reduces the memory
    required for aggregating partial results from multiple sources while
    enabling overlap between communication and computation".
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        #: heap of (free_time, nbytes) chunks currently occupying space
        self._occupied: list = []
        self._used = 0
        self.peak_used = 0
        self.stall_seconds = 0.0

    @property
    def used_bytes(self) -> int:
        return self._used

    def reserve(self, when: float, nbytes: int, free_time: float) -> float:
        """Claim ``nbytes`` at or after ``when``; returns the actual time.

        ``free_time`` is when the consumer will release this chunk. If the
        buffer is full, the producer stalls until enough chunks drain.
        """
        if nbytes > self.capacity_bytes:
            raise ValueError("chunk larger than the whole circular buffer")
        start = when
        self._drain(start)
        while self._used + nbytes > self.capacity_bytes:
            if not self._occupied:
                raise RuntimeError("buffer full but nothing draining")
            next_free = self._occupied[0][0]
            self.stall_seconds += max(0.0, next_free - start)
            start = max(start, next_free)
            self._drain(start)
        heapq.heappush(self._occupied, (free_time, nbytes))
        self._used += nbytes
        self.peak_used = max(self.peak_used, self._used)
        return start

    def _drain(self, now: float):
        while self._occupied and self._occupied[0][0] <= now:
            _, nbytes = heapq.heappop(self._occupied)
            self._used -= nbytes


class SigmaPipeline:
    """The receive-copy-aggregate pipeline of a Sigma node (Figure 2)."""

    def __init__(self, config: PoolConfig, buffer_bytes: int = 4 * 1024 * 1024):
        self.config = config
        self.networking = WorkerPool("net", config.networking_threads)
        self.aggregation = WorkerPool("agg", config.aggregation_threads)
        self.buffer = CircularBuffer(buffer_bytes)
        self._aggregated_until = 0.0
        self.bytes_aggregated = 0

    def on_chunk(self, arrival: float, nbytes: int) -> float:
        """Process one received chunk; returns its aggregation finish time."""
        return self.on_chunks([arrival], [nbytes])[0]

    def on_chunks(
        self, arrivals: Sequence[float], sizes: Sequence[int]
    ) -> List[float]:
        """Process received chunks in order; returns each one's
        aggregation finish time.

        Per chunk, the Incoming Network Handler catches the epoll event,
        a networking thread copies the chunk into the circular buffer
        (stalling while the buffer is full), and an aggregation thread
        folds it into the aggregation buffer. Each step books the first
        worker that can start earliest, exactly as
        :meth:`WorkerPool.dispatch` does; the pool, buffer and pipeline
        state live in locals for the batch and are written back at the
        end.
        """
        cfg = self.config
        wakeup = cfg.wakeup_overhead_s
        net_workers = self.networking._workers
        agg_workers = self.aggregation._workers
        net_free = [w._free_at for w in net_workers]
        net_busy = [w.busy_seconds for w in net_workers]
        agg_free = [w._free_at for w in agg_workers]
        agg_busy = [w.busy_seconds for w in agg_workers]
        # The first worker that can start earliest: the first one already
        # free, else the first to free up (WorkerPool.dispatch's choice).
        nets = range(1, len(net_free))
        aggs = range(1, len(agg_free))
        buffer = self.buffer
        capacity = buffer.capacity_bytes
        heap = buffer._occupied
        used = buffer._used
        peak = buffer.peak_used
        stall = buffer.stall_seconds
        until = self._aggregated_until
        total = self.bytes_aggregated
        push, pop = heapq.heappush, heapq.heappop
        last_size = None
        done: List[float] = []
        for arrival, nbytes in zip(arrivals, sizes):
            if nbytes != last_size:
                if nbytes > capacity:
                    raise ValueError(
                        "chunk larger than the whole circular buffer"
                    )
                copy_s = nbytes / cfg.copy_bytes_per_s
                agg_s = nbytes / cfg.aggregate_bytes_per_s
                last_size = nbytes
            # Networking pool.
            earliest = arrival + wakeup
            pick = 0
            free = net_free[0]
            if free > earliest:
                for i in nets:
                    if net_free[i] < free:
                        pick, free = i, net_free[i]
                        if free <= earliest:
                            break
            start = free if free > earliest else earliest
            net_free[pick] = start + copy_s
            net_busy[pick] += copy_s
            copy_done = start + copy_s
            # Circular buffer: claim space, stalling until chunks drain.
            start = copy_done - copy_s
            while heap and heap[0][0] <= start:
                used -= pop(heap)[1]
            while used + nbytes > capacity:
                if not heap:
                    raise RuntimeError("buffer full but nothing draining")
                next_free = heap[0][0]
                stall += max(0.0, next_free - start)
                start = max(start, next_free)
                while heap and heap[0][0] <= start:
                    used -= pop(heap)[1]
            push(heap, (copy_done + agg_s, nbytes))
            used += nbytes
            if used > peak:
                peak = used
            copy_done = start + copy_s
            # Aggregation pool.
            pick = 0
            free = agg_free[0]
            if free > copy_done:
                for i in aggs:
                    if agg_free[i] < free:
                        pick, free = i, agg_free[i]
                        if free <= copy_done:
                            break
            start = free if free > copy_done else copy_done
            agg_done = start + agg_s
            agg_free[pick] = agg_done
            agg_busy[pick] += agg_s
            if agg_done > until:
                until = agg_done
            total += nbytes
            done.append(agg_done)
        for worker, free, busy in zip(net_workers, net_free, net_busy):
            worker._free_at, worker.busy_seconds = free, busy
        for worker, free, busy in zip(agg_workers, agg_free, agg_busy):
            worker._free_at, worker.busy_seconds = free, busy
        buffer._used, buffer.peak_used = used, peak
        buffer.stall_seconds = stall
        self._aggregated_until = until
        self.bytes_aggregated = total
        return done

    def fold_local(self, ready: float, nbytes: int) -> float:
        """Fold the node's *own* partial update into the aggregate.

        The local partial is already in host memory (DMA'd from the
        accelerator), so it skips the socket copy and the circular buffer
        and goes straight to an aggregation worker.
        """
        agg_s = nbytes / self.config.aggregate_bytes_per_s
        agg_done = self.aggregation.dispatch(ready, agg_s)
        self._aggregated_until = max(self._aggregated_until, agg_done)
        self.bytes_aggregated += nbytes
        return agg_done

    @property
    def drained_at(self) -> float:
        """Time the last chunk so far was folded into the aggregate."""
        return self._aggregated_until
