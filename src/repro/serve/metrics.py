"""Serving-side observability: latency, queue depth, batch occupancy.

:class:`ServiceMetrics` is the single sink every serving component reports
into — the admission gate (accepted/rejected, queue depth), the coalescing
scheduler (batch sizes and service times) and the per-request completion
path (end-to-end latency per request kind).  All methods are thread-safe:
they are called both from the event loop and from the dispatch worker
threads.

The whole state exports as one JSON-serializable dict via
:meth:`snapshot`, which is what ``repro bench-serve`` prints, the serving
benchmark persists next to ``BENCH_serving.json``, and the CI ``serve``
job uploads as an artifact.

Bounded and process-local by contract: every window is a fixed-size ring
(:data:`LATENCY_WINDOW`), so a long-running service reports recent state
at constant memory; and one :class:`ServiceMetrics` lives in the serving
(parent) process — under pool mode the worker-side artifact-cache and
endpoint counters are *not* recorded here but asked of the pool workers
and merged into the snapshot by
:meth:`ExtractionService.metrics_snapshot`.

Memory is reported in two separate gauges per graph: ``nbytes`` (heap
bytes resident in one process, summed across workers) and
``mapped_nbytes`` (file-backed ``--mmap-dir`` artifact pages, physically
shared by all mappers and therefore merged with **max**, never summed —
``/metrics`` must not bill the same clean pages once per worker).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

# Latency samples retained per request kind.  Percentiles are computed over
# this sliding window, so a long-running service reports *recent* tail
# latency at O(window) memory instead of accumulating every sample.
LATENCY_WINDOW = 4096


def _smoothed(average: Optional[float], value: float, rate: float) -> float:
    """One exponentially weighted moving-average step (seeded by ``value``)."""
    return value if average is None else average + rate * (value - average)


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when empty).

    Nearest-rank keeps the result an actually observed latency, which is
    the convention load-testing tools use for p50/p95.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    # Nearest-rank: the ceil(q*n)-th smallest sample (1-indexed), clamped.
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered)) - 1
    return float(ordered[rank])


class _KindStats:
    """Per-request-kind counters plus sliding latency windows.

    Success and error latencies are tracked in *separate* windows: error
    completions are typically fast-fails (rejected shapes, unknown graphs,
    parse errors), and folding them into the success window would skew
    p50/p95 — and the EWMA that feeds the ``retry_after`` backpressure
    hint — downward during error bursts.
    """

    __slots__ = ("completed", "errors", "latencies", "error_latencies", "ewma")

    def __init__(self, window: int):
        self.completed = 0
        self.errors = 0
        self.latencies: Deque[float] = deque(maxlen=window)
        self.error_latencies: Deque[float] = deque(maxlen=window)
        # Smoothed per-request service time of *successful* completions of
        # this kind; the per-kind basis of the retry_after estimate.
        self.ewma: Optional[float] = None


class ServiceMetrics:
    """Thread-safe counters for one :class:`ExtractionService` instance."""

    def __init__(self, latency_window: int = LATENCY_WINDOW):
        self._lock = threading.Lock()
        self._window = latency_window
        self._kinds: Dict[str, _KindStats] = {}
        # Admission gate.
        self.accepted = 0
        self.rejected = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        # Coalescing scheduler.
        self.batches = 0
        self.batched_items = 0
        self.batch_size_peak = 0
        self._batch_seconds: Deque[float] = deque(maxlen=latency_window)
        # Exponentially weighted per-request service time estimate; feeds
        # the ``retry_after`` hint of the backpressure contract.
        self._ewma_request_seconds: Optional[float] = None
        # Smoothed Retry-After hint (seconds) over recent rejections: how
        # hard admission is currently pushing clients away.
        self._retry_after_ewma: Optional[float] = None

    # -- admission --

    def record_admitted(self) -> None:
        with self._lock:
            self.accepted += 1
            self.queue_depth += 1
            self.queue_depth_peak = max(self.queue_depth_peak, self.queue_depth)

    def record_rejected(self, retry_after: Optional[float] = None) -> None:
        with self._lock:
            self.rejected += 1
            if retry_after is not None:
                self._retry_after_ewma = _smoothed(self._retry_after_ewma, retry_after, 0.2)

    def record_departed(self) -> None:
        with self._lock:
            self.queue_depth -= 1

    # -- completions --

    def record_completed(self, kind: str, seconds: float, error: bool = False) -> None:
        with self._lock:
            stats = self._kinds.get(kind)
            if stats is None:
                stats = self._kinds[kind] = _KindStats(self._window)
            if error:
                # Error completions (typically fast-fails) stay out of the
                # success window and both EWMAs so they cannot drag the
                # p50/p95 readings or the retry_after hint downward.
                stats.errors += 1
                stats.error_latencies.append(seconds)
                return
            stats.completed += 1
            stats.latencies.append(seconds)
            stats.ewma = _smoothed(stats.ewma, seconds, 0.05)
            self._ewma_request_seconds = _smoothed(self._ewma_request_seconds, seconds, 0.05)

    # -- coalescing --

    def record_batch(self, size: int, seconds: float) -> None:
        with self._lock:
            self.batches += 1
            self.batched_items += size
            self.batch_size_peak = max(self.batch_size_peak, size)
            self._batch_seconds.append(seconds)

    # -- derived readings --

    def ewma_request_seconds(
        self, default: float = 0.0, kind: Optional[str] = None
    ) -> float:
        """Smoothed recent per-request service time (the retry-after basis).

        With ``kind`` the estimate is specific to that request kind's
        successful completions — the right basis when the backpressure
        hint must answer "when will capacity free for *this* request".
        Without it, the aggregate EWMA across all kinds is returned.
        """
        with self._lock:
            if kind is not None:
                stats = self._kinds.get(kind)
                value = stats.ewma if stats is not None else None
            else:
                value = self._ewma_request_seconds
        return default if value is None else value

    def batch_occupancy(self) -> float:
        """Mean requests per dispatched batch (1.0 means no coalescing won)."""
        with self._lock:
            if self.batches == 0:
                return 0.0
            return self.batched_items / self.batches

    def snapshot(self) -> dict:
        """One JSON-serializable dict of everything recorded so far."""
        with self._lock:
            kinds = {}
            for kind, stats in self._kinds.items():
                window: List[float] = list(stats.latencies)
                error_window: List[float] = list(stats.error_latencies)
                kinds[kind] = {
                    "completed": stats.completed,
                    "errors": stats.errors,
                    "p50_ms": percentile(window, 0.50) * 1e3,
                    "p95_ms": percentile(window, 0.95) * 1e3,
                    "window": len(window),
                    "error_p50_ms": percentile(error_window, 0.50) * 1e3,
                    "error_p95_ms": percentile(error_window, 0.95) * 1e3,
                    "error_window": len(error_window),
                }
            batch_window = list(self._batch_seconds)
            occupancy = self.batched_items / self.batches if self.batches else 0.0
            return {
                "admission": {
                    "accepted": self.accepted,
                    "rejected": self.rejected,
                    "queue_depth": self.queue_depth,
                    "queue_depth_peak": self.queue_depth_peak,
                    # Smoothed Retry-After (seconds) over recent rejections;
                    # 0.0 until the first rejection carries a hint.
                    "retry_after_ewma_s": self._retry_after_ewma or 0.0,
                },
                "requests": kinds,
                "coalescing": {
                    "batches": self.batches,
                    "batched_items": self.batched_items,
                    "batch_occupancy": occupancy,
                    "batch_size_peak": self.batch_size_peak,
                    "batch_p50_ms": percentile(batch_window, 0.50) * 1e3,
                    "batch_p95_ms": percentile(batch_window, 0.95) * 1e3,
                },
            }
