"""Micro-batching scheduler: live traffic in, batch-kernel calls out.

The batch kernels (:func:`repro.sampling.ppr.batch_ppr_top_k`,
:func:`repro.models.shadowsaint.extract_ego_batch`) were built for
benchmark loops that already hold a whole array of targets.  A service
receives the same work one request at a time.  :class:`Coalescer` bridges
the two by batching only when busy: requests that share a *compatibility
key* (same graph, same kernel parameters) dispatch at once while the key
has a free *lane*; once every lane runs one of the key's batches, new
requests collect in the key's window, which dispatches as **one**
batch-kernel call when a lane frees (or at once, when it holds
``max_batch`` items).  Each result is fanned back to its request's
future.

Nothing waits on a timer: a lone request never pays for a batch that
could not form, and under load the window fills for exactly as long as
the running batch takes.  Because the batch kernels are bit-exact against
their scalar oracles, a coalesced request returns *exactly* what a lone
request would.  The scheduler does not care where ``dispatch`` executes:
in-process it runs the kernel directly, in pool mode it ships the batch
to an owning worker process (``serve/pool.py``) — results are identical
either way.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Set

from repro.serve.metrics import ServiceMetrics

# At most this many requests per dispatched batch.
MAX_BATCH = 64

# dispatch(key, items) -> results, one result per item, same order.
DispatchFn = Callable[[Hashable, List[Any]], List[Any]]


class _Window:
    """One open batch: items waiting for a free lane or the size trigger."""

    __slots__ = ("items", "futures")

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.futures: List[asyncio.Future] = []


class Coalescer:
    """Collects per-key requests into windows and dispatches them batched.

    Parameters
    ----------
    dispatch:
        ``dispatch(key, items) -> results`` run on a worker thread
        (``asyncio.to_thread``); must return one result per item in item
        order.  Raising fails every request of the batch with the same
        exception.
    max_batch:
        A window dispatches as soon as it holds ``max_batch`` items, even
        while every lane is busy.  ``max_batch=1`` degenerates to
        per-request dispatch (the serial baseline).
    metrics:
        Optional :class:`ServiceMetrics` receiving batch size/duration.
    lanes:
        ``lanes(key)``: how many of the key's batches may run at once
        before new requests wait in its window (default 1) — the service
        derives it from where batches execute.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        max_batch: int = MAX_BATCH,
        metrics: Optional[ServiceMetrics] = None,
        lanes: Callable[[Hashable], int] = lambda key: 1,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch = dispatch
        self.max_batch = max_batch
        self._metrics = metrics
        self._lanes = lanes
        self._windows: Dict[Hashable, _Window] = {}
        self._running: Dict[Hashable, int] = {}  # batches in flight per key
        self._inflight: Set[asyncio.Task] = set()

    async def submit(self, key: Hashable, item: Any) -> Any:
        """Queue ``item`` under ``key`` and await its individual result."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = _Window()
        window.items.append(item)
        window.futures.append(future)
        if (
            len(window.items) >= self.max_batch
            or self._running.get(key, 0) < self._lanes(key)
        ):
            self._close(key)
        return await future

    def _close(self, key: Hashable) -> None:
        """Dispatch ``key``'s open window on a lane of its own."""
        window = self._windows.pop(key)
        self._running[key] = self._running.get(key, 0) + 1
        task = asyncio.ensure_future(self._run(key, window))
        # Keep a strong reference until done: the loop only holds weak ones.
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _release(self, key: Hashable) -> None:
        """A batch of ``key`` ended: its lane takes the waiting window."""
        running = self._running.pop(key) - 1
        if running:
            self._running[key] = running
        if key in self._windows and running < self._lanes(key):
            self._close(key)

    async def _run(self, key: Hashable, window: _Window) -> None:
        start = time.perf_counter()
        try:
            results = await asyncio.to_thread(self._dispatch, key, window.items)
            if len(results) != len(window.items):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results "
                    f"for {len(window.items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - fanned out to callers
            for future in window.futures:
                if not future.done():
                    future.set_exception(exc)
        else:
            if self._metrics is not None:
                self._metrics.record_batch(len(window.items), time.perf_counter() - start)
            for future, result in zip(window.futures, results):
                if not future.done():
                    future.set_result(result)
        # The lane frees once the batch's requesters have run: a client
        # that answers with its next request joins the waiting window
        # instead of splitting a batch of one off it.
        await asyncio.sleep(0)
        self._release(key)

    async def flush(self) -> None:
        """Dispatch every waiting window now and wait for all batches to land."""
        for key in list(self._windows):
            self._close(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @property
    def open_windows(self) -> int:
        """Number of keys with requests waiting for a lane (introspection)."""
        return len(self._windows)
