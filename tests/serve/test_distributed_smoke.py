"""Distributed tier smoke: CLI serve-workers + a remote-placement parent.

The cross-machine story end to end, exactly as an operator would run it
(``docs/serving.md``): ``repro build-artifacts`` once, two standalone
``repro serve-worker`` processes on localhost TCP, and a parent
``repro serve --remote-worker`` front end that owns no kernel state of
its own — every answer crosses the wire twice and must still be
bit-identical to in-process extraction.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SPARQL = "select ?s ?p ?o where { ?s ?p ?o } limit 12"


def _spawn(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def _banner(process, pattern):
    line = process.stdout.readline()
    match = re.search(pattern, line)
    assert match, f"unexpected banner: {line!r}"
    return line, match


@pytest.mark.slow
def test_two_cli_serve_workers_behind_a_remote_placement_parent(tmp_path):
    import http.client
    from urllib.parse import quote

    from repro.kg.cache import artifacts_for
    from repro.kg.store import open_artifacts
    from repro.sampling.ppr import batch_ppr_top_k
    from repro.sparql.endpoint import SparqlEndpoint

    store = str(tmp_path / "store")
    assert main(["build-artifacts", "--dataset", "mag", "--scale", "tiny", "--out", store]) == 0

    workers = []
    parent = None
    try:
        addresses = []
        for _ in range(2):
            worker = _spawn([
                "serve-worker", "--listen", "127.0.0.1:0",
                "--mmap-dir", store, "--graph", "mag", "--duration", "120",
            ])
            workers.append(worker)
            line, match = _banner(worker, r"listening on (127\.0\.0\.1:\d+)")
            assert "graphs: mag" in line  # pre-registered from the local store
            addresses.append(match.group(1))

        parent = _spawn([
            "serve", "--dataset", "mag", "--scale", "tiny",
            "--protocol", "http", "--mmap-dir", store,
            "--remote-worker", addresses[0], "--remote-worker", addresses[1],
            "--port", "0", "--duration", "120",
        ])
        line, match = _banner(parent, r"on 127\.0\.0\.1:(\d+) via http")
        assert "pool of 2 workers" in line and "(2 remote)" in line
        port = int(match.group(1))

        kg = open_artifacts(store).kg
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

        # PPR crossed parent → TCP worker → back; floats survive the JSON
        # hop exactly (repr shortest round-trip), so equality is bitwise.
        expected = batch_ppr_top_k(artifacts_for(kg).csr("both"), [5], 8)[5]
        for _ in range(4):  # round-robin: both remote slots must answer
            conn.request("GET", "/ppr?graph=mag&target=5&k=8")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == json.loads(json.dumps(expected))

        oracle = SparqlEndpoint(kg).query(SPARQL)
        conn.request("GET", f"/sparql?query={quote(SPARQL)}")
        response = conn.getresponse()
        assert response.status == 200
        bindings = json.loads(response.read())["results"]["bindings"]
        assert len(bindings) == oracle.num_rows
        for i, binding in enumerate(bindings):
            for variable in oracle.variables:
                assert binding[variable]["value"] == str(oracle.columns[variable][i])

        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        pool = metrics["config"]["pool"]
        assert pool["workers"] == 2
        assert pool["transports"] == ["remote", "remote"]
        assert pool["alive"] == [True, True]
        assert sorted(pool["graphs"]["mag"]) == [0, 1]
        # The workers mapped the store; the parent holds no kernel state.
        assert metrics["graphs"]["mag"]["artifact_cache"]["mapped_nbytes"] > 0
        conn.close()
    finally:
        for process in [parent, *workers]:
            if process is not None:
                process.terminate()
                process.wait(timeout=10)
