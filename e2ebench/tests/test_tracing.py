"""Self time and span parenting of the tracing launcher."""

import asyncio

import tracing


def test_self_time_subtracts_the_covered_part_of_child_spans():
    spans = [
        (1, None, "outer", 0.0, 10.0, None),
        (2, 1, "inner", 1.0, 4.0, None),
        (3, 1, "inner", 3.0, 6.0, None),  # overlaps the first child
        (4, 1, "late", 9.0, 12.0, None),  # runs past the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs["outer"] == [10.0 - 5.0 - 1.0]
    assert selfs["inner"] == [3.0, 3.0]


def test_parents_follow_await_and_to_thread():
    recorder = tracing.Recorder()

    def kernel():
        return 1

    kernel = recorder.wrap(kernel, "kernel")

    async def handler():
        return await asyncio.to_thread(kernel)

    handler = recorder.wrap(handler, "handler")
    assert asyncio.run(handler()) == 1
    by_name = {span[2]: span for span in recorder.spans}
    assert by_name["kernel"][1] == by_name["handler"][0]
    assert by_name["handler"][1] is None


def test_time_metrics_use_each_layers_unit():
    spans = [(1, None, "kg.store.open_ms", 0.0, 0.002, None),
             (2, None, "core.ibs.sample_s", 0.0, 1.5, None)]
    values = tracing.time_metrics(spans)
    assert abs(values["kg.store.open_ms"] - 2.0) < 1e-9
    assert values["core.ibs.sample_s"] == 1.5
