"""Benchmark-suite plumbing.

Every benchmark regenerates one of the paper's tables/figures, prints it,
and persists it under ``benchmarks/out/`` (git-ignored) so the regenerated
artifacts survive pytest's output capture without touching the tree.  The
committed ledger ``benchmarks/reports/BENCH_*.json`` changes only by an
explicit copy out of that directory (see ``docs/ci.md``).  ``benchmark.pedantic(..., rounds=1)`` is
used throughout: experiments train models, so one measured round is the
meaningful unit.
"""

from __future__ import annotations

import os

import pytest

REPORT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture(scope="session")
def report_dir() -> str:
    os.makedirs(REPORT_DIR, exist_ok=True)
    return REPORT_DIR


@pytest.fixture
def report(report_dir):
    """Persist + print a regenerated table/figure."""

    def _write(name: str, text: str) -> None:
        path = os.path.join(report_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[report saved to {path}]")

    return _write
