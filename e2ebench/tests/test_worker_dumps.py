"""Pool workers forked from the fork server record and dump their own spans."""

import json
import os
import subprocess
import sys
import textwrap

import common
import tracing

SCRIPT = textwrap.dedent("""
    import multiprocessing, os, sys
    sys.path[:0] = [{bench!r}, {src!r}]
    import tracing
    from repro.datasets import catalog

    if __name__ == "__main__":
        tracing.trace_pool_workers({out!r})
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(["repro.datasets.catalog"])
        worker = ctx.Process(target=catalog.mag, kwargs={{"scale": "tiny"}})
        worker.start()
        worker.join()
        sys.exit(worker.exitcode)
""")


def test_a_forked_worker_dumps_the_spans_of_its_wrapped_calls(tmp_path):
    out = str(tmp_path / "workers")
    script = tmp_path / "parent.py"
    script.write_text(SCRIPT.format(bench=common.HERE, src=common.SRC, out=out))
    # The fork server imports the program from PYTHONPATH, as under the launcher.
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=common.src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dumps = tracing.worker_dumps(out)
    assert len(dumps) == 1
    names = [span[2] for span in dumps[0]["spans"]]
    assert names == ["datasets.catalog.generate_s"]
    assert all(name.endswith(".json") for name in os.listdir(out))


def test_time_metrics_merge_processes_whose_span_ids_collide():
    parent = [(1, None, "sampling.ppr.batch_ms", 0.0, 0.004, None)]
    worker = [(1, None, "sampling.ppr.batch_ms", 0.0, 0.002, None),
              (2, 1, "sampling.ppr.batch_ms", 0.0, 0.001, None)]
    values = tracing.time_metrics(parent, worker)
    # Self times 4, 1 and 1 ms: the worker's child covers only its own parent.
    assert abs(values["sampling.ppr.batch_ms"] - 1.0) < 1e-9


def test_worker_dumps_reads_only_worker_files(tmp_path):
    (tmp_path / "worker-7.json").write_text(json.dumps({"spans": [], "counters": {}}))
    (tmp_path / "worker-7.json.tmp").write_text("{")
    assert len(tracing.worker_dumps(str(tmp_path))) == 1
    assert tracing.worker_dumps(str(tmp_path / "absent")) == []
