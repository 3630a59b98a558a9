"""Coalescer: batching when busy, fan-out, failure propagation."""

import asyncio
import threading
import time

import pytest

from repro.serve.coalesce import Coalescer
from repro.serve.metrics import ServiceMetrics

HOLD = "hold"


def run(coroutine):
    return asyncio.run(coroutine)


def held_dispatch(gate, batches):
    """A dispatch recording its batches; one holding :data:`HOLD` blocks
    its lane until ``gate`` is set."""

    def dispatch(key, items):
        batches.append((key, list(items)))
        if HOLD in items:
            gate.wait(timeout=10)
        return list(items)

    return dispatch


async def until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def test_lone_submit_dispatches_without_a_timer():
    batches = []

    def no_timers(*_args, **_kwargs):
        raise AssertionError("the coalescer must not arm a timer")

    async def scenario():
        asyncio.get_running_loop().call_later = no_timers
        coalescer = Coalescer(held_dispatch(threading.Event(), batches))
        return await coalescer.submit("g", 7)

    assert run(scenario()) == 7
    assert batches == [("g", [7])]


def test_submits_while_busy_dispatch_as_one_batch_when_it_ends():
    gate, batches = threading.Event(), []

    async def scenario():
        coalescer = Coalescer(held_dispatch(gate, batches))
        first = asyncio.ensure_future(coalescer.submit("g", HOLD))
        await until(lambda: len(batches) == 1)
        waiting = asyncio.gather(*(coalescer.submit("g", i) for i in range(5)))
        await asyncio.sleep(0.02)
        # Busy key: the five wait in one window, nothing else dispatched.
        assert len(batches) == 1 and coalescer.open_windows == 1
        gate.set()
        return await first, await waiting

    assert run(scenario()) == (HOLD, [0, 1, 2, 3, 4])
    assert batches == [("g", [HOLD]), ("g", [0, 1, 2, 3, 4])]


def test_full_window_dispatches_while_busy():
    gate, batches = threading.Event(), []

    async def scenario():
        coalescer = Coalescer(held_dispatch(gate, batches), max_batch=3)
        first = asyncio.ensure_future(coalescer.submit("g", HOLD))
        await until(lambda: len(batches) == 1)
        waiting = asyncio.gather(*(coalescer.submit("g", i) for i in range(4)))
        await until(lambda: len(batches) == 2)
        await asyncio.sleep(0.02)
        # The full window left at once; the fourth item waits for a lane.
        assert batches[1] == ("g", [0, 1, 2]) and len(batches) == 2
        gate.set()
        return await first, await waiting

    assert run(scenario()) == (HOLD, [0, 1, 2, 3])
    assert batches[2:] == [("g", [3])]


def test_each_lane_runs_a_batch_of_one_key():
    gate, batches = threading.Event(), []

    async def scenario():
        coalescer = Coalescer(held_dispatch(gate, batches), lanes=lambda key: 2)
        held = [asyncio.ensure_future(coalescer.submit("g", HOLD)) for _ in range(2)]
        await until(lambda: len(batches) == 2)  # both lanes busy at once
        waiting = asyncio.gather(coalescer.submit("g", 1), coalescer.submit("g", 2))
        await asyncio.sleep(0.02)
        assert len(batches) == 2 and coalescer.open_windows == 1
        gate.set()
        return await asyncio.gather(*held), await waiting

    assert run(scenario()) == ([HOLD, HOLD], [1, 2])
    assert batches == [("g", [HOLD]), ("g", [HOLD]), ("g", [1, 2])]


def test_size_trigger_forms_one_batch():
    gate, batches = threading.Event(), []

    async def scenario():
        coalescer = Coalescer(held_dispatch(gate, batches), max_batch=4)
        first = asyncio.ensure_future(coalescer.submit("g", HOLD))
        await until(lambda: len(batches) == 1)
        waiting = asyncio.gather(*(coalescer.submit("g", i) for i in range(4)))
        await until(lambda: len(batches) == 2)
        gate.set()
        return await first, await waiting

    assert run(scenario()) == (HOLD, [0, 1, 2, 3])
    # The lane stayed busy, so only the size trigger dispatched the four.
    assert batches == [("g", [HOLD]), ("g", [0, 1, 2, 3])]


def test_keys_do_not_share_windows():
    batches = []

    def dispatch(key, items):
        batches.append((key, list(items)))
        return list(items)

    async def scenario():
        coalescer = Coalescer(dispatch, max_batch=2)
        return await asyncio.gather(
            coalescer.submit(("g", 16), 1),
            coalescer.submit(("g", 32), 2),  # different k: must not merge
            coalescer.submit(("g", 16), 3),
            coalescer.submit(("g", 32), 4),
        )

    assert run(scenario()) == [1, 2, 3, 4]
    by_key = {}
    for key, items in batches:
        by_key.setdefault(key, []).extend(items)
    assert by_key == {("g", 16): [1, 3], ("g", 32): [2, 4]}


def test_oversubmission_rolls_into_next_window():
    batches = []

    def dispatch(key, items):
        batches.append(list(items))
        return list(items)

    async def scenario():
        coalescer = Coalescer(dispatch, max_batch=3)
        return await asyncio.gather(*(coalescer.submit("g", i) for i in range(7)))

    assert run(scenario()) == list(range(7))
    # The first finds the lane free; the rest fill windows behind it.
    assert [len(batch) for batch in batches] == [1, 3, 3]


def test_dispatch_error_fails_every_request_of_the_batch():
    def dispatch(key, items):
        raise RuntimeError("kernel exploded")

    async def scenario():
        coalescer = Coalescer(dispatch, max_batch=2)
        return await asyncio.gather(
            coalescer.submit("g", 1),
            coalescer.submit("g", 2),
            return_exceptions=True,
        )

    first, second = run(scenario())
    assert isinstance(first, RuntimeError) and isinstance(second, RuntimeError)


def test_wrong_result_cardinality_is_an_error():
    def dispatch(key, items):
        return list(items) + [None]  # one result too many

    async def scenario():
        coalescer = Coalescer(dispatch, max_batch=2)
        return await asyncio.gather(
            coalescer.submit("g", 1),
            coalescer.submit("g", 2),
            return_exceptions=True,
        )

    results = run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_max_batch_one_degenerates_to_per_request_dispatch():
    batches = []

    def dispatch(key, items):
        batches.append(list(items))
        return list(items)

    async def scenario():
        coalescer = Coalescer(dispatch, max_batch=1)
        return await asyncio.gather(*(coalescer.submit("g", i) for i in range(3)))

    assert run(scenario()) == [0, 1, 2]
    assert [len(batch) for batch in batches] == [1, 1, 1]


def test_flush_dispatches_open_windows():
    gate, batches = threading.Event(), []

    async def scenario():
        coalescer = Coalescer(held_dispatch(gate, batches), max_batch=100)
        first = asyncio.ensure_future(coalescer.submit("g", HOLD))
        await until(lambda: len(batches) == 1)
        pending = asyncio.ensure_future(coalescer.submit("g", 5))
        await asyncio.sleep(0)  # let submit open its window
        assert coalescer.open_windows == 1
        flushing = asyncio.ensure_future(coalescer.flush())
        # Flushed while the lane is still busy.
        await until(lambda: len(batches) == 2)
        assert coalescer.open_windows == 0
        gate.set()
        await flushing
        return await first, await pending

    assert run(scenario()) == (HOLD, 5)
    assert batches == [("g", [HOLD]), ("g", [5])]


def test_metrics_record_batch_occupancy():
    metrics = ServiceMetrics()

    def dispatch(key, items):
        return list(items)

    async def scenario():
        coalescer = Coalescer(dispatch, max_batch=4, metrics=metrics)
        await asyncio.gather(*(coalescer.submit("g", i) for i in range(8)))

    run(scenario())
    # [0] finds the lane free, [1..4] fill a window, [5..7] wait for a lane.
    assert metrics.batches == 3
    assert metrics.batched_items == 8
    assert metrics.batch_occupancy() == pytest.approx(8 / 3)
    assert metrics.batch_size_peak == 4


def test_invalid_window_parameters_rejected():
    with pytest.raises(ValueError):
        Coalescer(lambda key, items: items, max_batch=0)
