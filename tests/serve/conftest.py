"""Serving-test fixtures."""

import threading

import pytest

from repro.serve import ExtractionService


@pytest.fixture
def hold_dispatch(monkeypatch):
    """``hold(op)`` parks every in-process batch of window op ``op`` until
    the returned event is set (all are set at teardown).

    Call it before building the service: the service's schedulers bind
    ``_dispatch_<op>`` when it is constructed.
    """
    gates = []

    def hold(op):
        gate = threading.Event()
        dispatch = getattr(ExtractionService, f"_dispatch_{op}")

        def held(self, key, items):
            gate.wait(timeout=30)
            return dispatch(self, key, items)

        monkeypatch.setattr(ExtractionService, f"_dispatch_{op}", held)
        gates.append(gate)
        return gate

    yield hold
    for gate in gates:
        gate.set()
