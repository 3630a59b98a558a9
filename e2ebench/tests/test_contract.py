"""BENCHMARK.json, the metric tables and run.py's output agree."""

import json
import os
import shutil
import subprocess
import sys

import common
import tracing

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")


def _benchmark():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def test_every_end_to_end_name_is_reported_with_its_unit():
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert declared == common.END_TO_END
    report = common.end_to_end({name: 1.5 for name in declared})
    assert {name: entry["unit"] for name, entry in report.items()} == declared
    assert all(entry["value"] == 1.5 for entry in report.values())


def test_every_per_layer_name_is_reported_with_its_unit():
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert declared == tracing.PER_LAYER
    assert set(declared) <= set(tracing.LAYERS)
    report = tracing.report({name: 2.0 for name in declared})
    assert report == {name: {"value": 2.0, "unit": unit} for name, unit in declared.items()}


def test_a_per_layer_metric_without_a_measured_value_is_refused():
    for gap in (None, 0.0, -0.1, float("nan")):
        values = {name: 2.0 for name in tracing.PER_LAYER}
        values["sampling.ppr.batch_ms"] = gap
        try:
            tracing.report(values)
        except ValueError as exc:
            assert "sampling.ppr.batch_ms" in str(exc)
        else:
            raise AssertionError(f"per-layer value {gap!r} went through")


def test_the_layer_table_lists_every_layer_and_nulls_the_unreached():
    table = tracing.layer_table({"kg.store.open_ms": 2.0})
    assert list(table) == list(tracing.LAYERS)
    assert table["kg.store.open_ms"] == 2.0
    assert table["core.ibs.sample_s"] is None


def test_a_missing_end_to_end_metric_is_refused():
    values = {name: 1.0 for name in common.END_TO_END}
    del values["cpu_ms_per_op"]
    try:
        common.end_to_end(values)
    except ValueError as exc:
        assert "cpu_ms_per_op" in str(exc)
    else:
        raise AssertionError("a gap in the end-to-end metrics went through")


def test_workload_names_match_the_runner():
    import run

    assert tuple(w["name"] for w in _benchmark()["workloads"]) == run.WORKLOADS


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(common.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
