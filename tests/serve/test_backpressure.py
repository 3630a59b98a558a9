"""ServiceMetrics: windows, EWMAs, and the error-separation contract."""

import asyncio

import pytest

from repro.serve import ExtractionService, ServiceMetrics, ServiceOverloaded, WorkerPool
from repro.serve.service import UNOBSERVED_SERVICE_SECONDS


def test_error_latencies_stay_out_of_the_success_window():
    """Regression: fast-fail errors must not drag p50/p95 downward."""
    metrics = ServiceMetrics()
    for _ in range(10):
        metrics.record_completed("sparql", 1.0)
    baseline = metrics.snapshot()["requests"]["sparql"]
    assert baseline["p50_ms"] == pytest.approx(1000.0)

    # An error burst of fast fails (e.g. rejected shapes) arrives.
    for _ in range(100):
        metrics.record_completed("sparql", 0.001, error=True)

    after = metrics.snapshot()["requests"]["sparql"]
    assert after["completed"] == 10
    assert after["errors"] == 100
    # Success percentiles are untouched by the error burst ...
    assert after["p50_ms"] == pytest.approx(1000.0)
    assert after["p95_ms"] == pytest.approx(1000.0)
    assert after["window"] == 10
    # ... the error latencies are visible separately ...
    assert after["error_p50_ms"] == pytest.approx(1.0)
    assert after["error_window"] == 100
    # ... and the EWMA feeding retry_after is not dragged down either.
    assert metrics.ewma_request_seconds() == pytest.approx(1.0)
    assert metrics.ewma_request_seconds(kind="sparql") == pytest.approx(1.0)


def test_per_kind_ewma_is_tracked_separately():
    metrics = ServiceMetrics()
    for _ in range(50):
        metrics.record_completed("ppr", 0.01)
        metrics.record_completed("sparql", 1.0)
    assert metrics.ewma_request_seconds(kind="ppr") < 0.1
    assert metrics.ewma_request_seconds(kind="sparql") > 0.5
    # Unknown kind falls back to the caller's default.
    assert metrics.ewma_request_seconds(default=123.0, kind="ego") == 123.0


def test_snapshot_error_fields_default_to_zero():
    metrics = ServiceMetrics()
    metrics.record_completed("ppr", 0.5)
    snapshot = metrics.snapshot()["requests"]["ppr"]
    assert snapshot["error_window"] == 0
    assert snapshot["error_p50_ms"] == 0.0


def _seed(metrics: ServiceMetrics, kind: str, seconds: float, n: int = 50) -> None:
    for _ in range(n):
        metrics.record_completed(kind, seconds)


def test_retry_after_uses_the_rejected_kinds_rate(toy_kg):
    """Regression: a sparql reject must not inherit the PPR batch division.

    The old estimate divided every drain time by ``max_batch`` and floored
    at the coalescing window, so a queue full of slow SPARQL requests
    produced a hint ~64x too small.
    """
    service = ExtractionService(max_batch=64)
    service.register("toy", toy_kg)
    _seed(service.metrics, "sparql", 0.5)
    _seed(service.metrics, "ppr", 0.01)
    service._pending = service.max_pending  # simulate a full queue

    sparql_hint = service._retry_after("sparql")
    ppr_hint = service._retry_after("ppr")

    # SPARQL requests are not coalesced: the drain estimate is the queue
    # at the *sparql* rate, undivided.
    assert sparql_hint == pytest.approx(service.max_pending * 0.5, rel=0.05)
    # The PPR estimate divides by the observed batch occupancy (none
    # recorded here -> factor 1), never blindly by max_batch.
    assert ppr_hint == pytest.approx(service.max_pending * 0.01, rel=0.05)
    assert sparql_hint > 40 * ppr_hint


def test_retry_after_divides_ppr_by_observed_occupancy(toy_kg):
    service = ExtractionService(max_batch=64)
    service.register("toy", toy_kg)
    _seed(service.metrics, "ppr", 0.64)
    for _ in range(10):
        service.metrics.record_batch(32, 0.64)  # observed occupancy: 32
    service._pending = service.max_pending

    hint = service._retry_after("ppr")
    expected = service.max_pending * 0.64 / 32
    assert hint == pytest.approx(expected, rel=0.05)


def test_retry_after_floors_at_one_service_time_for_coalesced_kinds(toy_kg):
    service = ExtractionService(max_batch=64)
    service.register("toy", toy_kg)
    _seed(service.metrics, "ppr", 0.01)
    for _ in range(10):
        service.metrics.record_batch(32, 0.01)
    service._pending = 1
    # The drain estimate (0.01 s / 32) is below one ppr service time.
    assert service._retry_after("ppr") == pytest.approx(0.01)


def test_retry_after_before_any_completion_is_the_fallback_constant(toy_kg):
    service = ExtractionService()
    service.register("toy", toy_kg)
    service._pending = 1
    for kind in ("ppr", "sparql"):
        assert service._retry_after(kind) == UNOBSERVED_SERVICE_SECONDS


def test_overloaded_sparql_request_carries_kind_specific_hint(toy_kg):
    """End-to-end: the hint on a real sparql rejection is the sparql rate."""
    service = ExtractionService(max_pending=1, max_batch=64)
    service.register("toy", toy_kg)
    _seed(service.metrics, "sparql", 0.25)
    _seed(service.metrics, "ppr", 0.001)

    async def scenario():
        from repro.serve import ServiceOverloaded

        blocker = asyncio.ensure_future(
            service.sparql("toy", "select ?s ?p ?o where { ?s ?p ?o }")
        )
        await asyncio.sleep(0)  # let it occupy the single admission slot
        try:
            await service.sparql("toy", "select ?s ?p ?o where { ?s ?p ?o }")
        except ServiceOverloaded as exc:
            hint = exc.retry_after
        else:
            raise AssertionError("expected ServiceOverloaded")
        await blocker
        return hint

    hint = asyncio.run(scenario())
    # One pending request at the ~0.25s sparql rate; the old code answered
    # ~0.25/64 s here.
    assert hint > 0.1


def test_retry_after_ewma_smooths_rejection_hints():
    metrics = ServiceMetrics()
    assert metrics.snapshot()["admission"]["retry_after_ewma_s"] == 0.0
    metrics.record_rejected(1.0)
    assert metrics.snapshot()["admission"]["retry_after_ewma_s"] == 1.0
    metrics.record_rejected(2.0)
    assert metrics.snapshot()["admission"]["retry_after_ewma_s"] == pytest.approx(1.2)
    # A hint-less rejection still counts but does not move the EWMA.
    metrics.record_rejected()
    snapshot = metrics.snapshot()["admission"]
    assert snapshot["rejected"] == 3
    assert snapshot["retry_after_ewma_s"] == pytest.approx(1.2)


def test_admission_rejections_are_counted_under_a_pool(toy_kg):
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool, max_pending=1)
        service.register("toy", toy_kg)

        async def flood():
            results = await asyncio.gather(
                *(service.ppr_top_k("toy", 0, k=4) for _ in range(32)),
                return_exceptions=True,
            )
            return sum(isinstance(r, ServiceOverloaded) for r in results)

        rejected = asyncio.run(flood())
        assert rejected > 0
        assert service.metrics_snapshot()["admission"]["rejected"] == rejected
        assert service.metrics_snapshot()["admission"]["retry_after_ewma_s"] > 0.0
