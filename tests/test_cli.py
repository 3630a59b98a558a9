"""CLI subcommands."""

import os

import pytest

from repro.cli import main


def test_stats_command(capsys):
    assert main(["stats", "--dataset", "mag", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "MAG-tiny" in out
    assert "#n-type" in out


def test_stats_unknown_dataset():
    with pytest.raises(SystemExit):
        main(["stats", "--dataset", "freebase"])


def test_extract_command_saves_bundle(tmp_path, capsys):
    out_dir = str(tmp_path / "kgprime")
    assert main([
        "extract", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--method", "sparql", "-d", "1", "-H", "1", "--out", out_dir,
    ]) == 0
    out = capsys.readouterr().out
    assert "extracted" in out and "saved TSV bundle" in out
    assert os.path.exists(os.path.join(out_dir, "nodes.tsv"))
    assert os.path.exists(os.path.join(out_dir, "triples.tsv"))


def test_extract_brw(capsys):
    assert main([
        "extract", "--dataset", "yago4", "--scale", "tiny", "--task", "CG",
        "--method", "brw", "--walk-length", "2",
    ]) == 0
    assert "BRW" in capsys.readouterr().out


def test_train_nc_on_tosa(capsys):
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "SeHGNN", "--tosa", "--epochs", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "SeHGNN" in out and "KG-TOSAd1h1" in out


def test_train_lp_model_check():
    with pytest.raises(SystemExit):
        main(["train", "--dataset", "dblp", "--scale", "tiny", "--task", "AA",
              "--model", "SeHGNN"])  # SeHGNN is NC-only


def test_train_lp_runs(capsys):
    assert main([
        "train", "--dataset", "yago3_10", "--scale", "tiny", "--task", "CA",
        "--model", "MorsE", "--epochs", "3",
    ]) == 0
    assert "MorsE" in capsys.readouterr().out


def test_bench_table1(capsys):
    assert main(["bench", "--experiment", "table1", "--scale", "tiny"]) == 0
    assert "table1" in capsys.readouterr().out


def test_bench_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["bench", "--experiment", "fig99"])


def test_serve_command_binds_and_stops(capsys):
    assert main([
        "serve", "--dataset", "mag", "--scale", "tiny",
        "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving MAG-tiny" in out and "coalescing" in out


def test_bench_serve_command_writes_report(tmp_path, capsys):
    out_path = str(tmp_path / "BENCH_serving.json")
    assert main([
        "bench-serve", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--requests", "32", "--concurrency", "8", "--out", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "coalescing speedup" in out and "bit-identical" in out
    import json

    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["serial"]["mode"] == "serial"
    assert payload["coalesced"]["mode"] == "coalesced"
    assert payload["speedup"] > 0
    assert "admission" in payload["metrics"]


def test_serve_http_command_binds_and_stops(capsys):
    assert main([
        "serve", "--dataset", "mag", "--scale", "tiny",
        "--protocol", "http", "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving MAG-tiny" in out and "via http" in out


def test_serve_with_worker_pool_binds_and_stops(capsys):
    assert main([
        "serve", "--dataset", "mag", "--scale", "tiny",
        "--workers", "2", "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving MAG-tiny" in out and "pool of 2 workers" in out


def test_serve_workers_conflict_with_no_coalesce():
    with pytest.raises(SystemExit):
        main(["serve", "--dataset", "mag", "--scale", "tiny",
              "--workers", "2", "--no-coalesce", "--port", "0",
              "--duration", "0.1"])


def test_build_artifacts_command(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    assert main([
        "build-artifacts", "--dataset", "mag", "--scale", "tiny", "--out", out_dir,
    ]) == 0
    out = capsys.readouterr().out
    assert "saved artifact store" in out and "--mmap-dir" in out
    assert os.path.exists(os.path.join(out_dir, "artifacts.tosg"))


def test_serve_mmap_command_binds_and_stops(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    assert main([
        "build-artifacts", "--dataset", "mag", "--scale", "tiny", "--out", out_dir,
    ]) == 0
    assert main([
        "serve", "--dataset", "mag", "--scale", "tiny", "--workers", "2",
        "--mmap-dir", out_dir, "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving MAG-tiny" in out and "mmap artifacts" in out


def test_bench_serve_mmap_requires_workers(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench-serve", "--dataset", "mag", "--scale", "tiny",
              "--mmap-dir", str(tmp_path), "--requests", "4"])


def test_bench_serve_with_worker_pool(tmp_path, capsys):
    out_path = str(tmp_path / "BENCH_pool.json")
    assert main([
        "bench-serve", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--requests", "32", "--concurrency", "8", "--workers", "2",
        "--out", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "pool (2 workers) speedup" in out and "bit-identical" in out
    import json

    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["serial"]["mode"] == "serial"
    assert payload["pooled"]["mode"] == "pooled"
    assert payload["metrics"]["config"]["pool"]["workers"] == 2


def test_bench_serve_paths_mode(tmp_path, capsys):
    out_path = str(tmp_path / "BENCH_paths.json")
    assert main([
        "bench-serve", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--paths", "--max-hops", "2", "--max-paths", "16",
        "--requests", "32", "--concurrency", "8", "--out", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "/paths coalescing speedup" in out and "bit-identical" in out
    import json

    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["serial"]["mode"] == "paths-serial"
    assert payload["paths-coalesced"]["mode"] == "paths-coalesced"
    assert payload["task"] == "PV pairs"


def test_bench_serve_paths_rejects_conflicting_modes(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench-serve", "--dataset", "mag", "--scale", "tiny",
              "--paths", "--checkpoint", str(tmp_path / "x.ckpt"),
              "--requests", "4"])


@pytest.mark.parametrize("doc", ["serving.md", "live-graphs.md", "paths.md"])
def test_help_text_covers_every_flag_documented_in_serving_docs(doc, capsys):
    """Every --flag mentioned in the serving/live-graph/paths docs must
    appear verbatim in `repro serve --help`, `repro serve-worker --help`,
    `repro bench-serve --help` or `repro train --help` (the docs and the
    CLI must never drift apart)."""
    import re

    docs_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "docs", doc,
    )
    with open(docs_path, encoding="utf-8") as handle:
        # Audit repro's own flags; example invocations of other tools
        # (curl, tools/check_docs.py) document *their* flags, not ours.
        lines = [
            line for line in handle
            if "curl" not in line and "check_docs" not in line
        ]
    documented = set(re.findall(r"(--[a-z][a-z0-9-]+)", "".join(lines)))
    assert documented, f"docs/{doc} no longer documents any flags?"

    help_text = ""
    for command in ("serve", "serve-worker", "bench-serve", "train"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text += capsys.readouterr().out
    missing = sorted(flag for flag in documented if flag not in help_text)
    assert not missing, f"flags documented in docs/{doc} but absent from --help: {missing}"


def test_train_save_checkpoint_writes_loadable_artifact(tmp_path, capsys):
    ckpt = str(tmp_path / "pv.ckpt")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "RGCN", "--epochs", "3", "--save-checkpoint", ckpt,
    ]) == 0
    out = capsys.readouterr().out
    assert "checkpoint saved to" in out and "--checkpoint" in out

    from repro.nn.checkpoint import read_checkpoint_meta

    meta = read_checkpoint_meta(ckpt)
    assert meta["architecture"] == "RGCN"
    assert meta["task_name"] == "PV"
    assert meta["task_type"] == "NC"
    assert meta["metrics"]["test_metric"] > 0


def test_train_pathscore_saves_a_loadable_lp_checkpoint(tmp_path, capsys):
    ckpt = str(tmp_path / "aa.ckpt")
    assert main([
        "train", "--dataset", "dblp", "--scale", "tiny", "--task", "AA",
        "--model", "PathScore", "--epochs", "2", "--save-checkpoint", ckpt,
    ]) == 0
    assert "checkpoint saved to" in capsys.readouterr().out

    from repro.datasets import catalog
    from repro.nn.checkpoint import load_checkpoint

    checkpoint = load_checkpoint(ckpt)
    assert (checkpoint.task_type, checkpoint.architecture) == ("LP", "PathScore")
    model = checkpoint.build_model(catalog.dblp("tiny", 0).kg)
    assert model.name == "PathScore"


def test_serve_checkpoint_banner(tmp_path, capsys):
    ckpt = str(tmp_path / "pv.ckpt")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "RGCN", "--epochs", "3", "--save-checkpoint", ckpt,
    ]) == 0
    assert main([
        "serve", "--dataset", "mag", "--scale", "tiny",
        "--checkpoint", ckpt, "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving MAG-tiny" in out and "1 checkpoint(s)" in out


def test_bench_serve_predict_mode_writes_report(tmp_path, capsys):
    ckpt = str(tmp_path / "pv.ckpt")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "RGCN", "--epochs", "3", "--save-checkpoint", ckpt,
    ]) == 0
    out_path = str(tmp_path / "BENCH_predict.json")
    assert main([
        "bench-serve", "--dataset", "mag", "--scale", "tiny",
        "--checkpoint", ckpt, "--requests", "32", "--concurrency", "8",
        "--out", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "/predict coalescing speedup" in out and "bit-identical" in out
    import json

    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["task"] == "PV"
    assert payload["serial"]["mode"] == "predict-serial"
    assert payload["predict-coalesced"]["mode"] == "predict-coalesced"
    assert payload["metrics"]["predict"]["registry"]["loaded"] == 1


def test_bench_serve_predict_mode_on_a_worker_pool(tmp_path, capsys):
    ckpt = str(tmp_path / "pv.ckpt")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "RGCN", "--epochs", "2", "--save-checkpoint", ckpt,
    ]) == 0
    out_path = str(tmp_path / "BENCH_predict_pool.json")
    assert main([
        "bench-serve", "--dataset", "mag", "--scale", "tiny",
        "--checkpoint", ckpt, "--requests", "16", "--concurrency", "4",
        "--workers", "1", "--out", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "/predict pool (1 workers) speedup" in out and "bit-identical" in out
    import json

    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["serial"]["mode"] == "predict-serial"
    assert payload["predict-pooled"]["mode"] == "predict-pooled"
    assert payload["metrics"]["config"]["pool"]["workers"] == 1


def test_bench_serve_checkpoint_conflicts_with_mmap(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench-serve", "--dataset", "mag", "--scale", "tiny",
              "--checkpoint", str(tmp_path / "x.ckpt"),
              "--mmap-dir", str(tmp_path), "--workers", "2"])


def test_serve_http_end_to_end_over_a_real_socket():
    """`repro serve --protocol http` + a plain HTTP client (curl stand-in)."""
    import http.client
    import json
    import re
    import subprocess
    import sys
    from urllib.parse import quote

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "mag", "--scale", "tiny",
            "--protocol", "http", "--port", "0", "--duration", "30",
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+) via http", banner)
        assert match, f"unexpected banner: {banner!r}"
        port = int(match.group(1))

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        query = "select ?s ?p ?o where { ?s ?p ?o } limit 10"
        conn.request("GET", f"/sparql?query={quote(query)}&page_rows=4")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/sparql-results+json"
        payload = json.loads(response.read())
        assert payload["head"]["vars"] == ["s", "p", "o"]
        assert len(payload["results"]["bindings"]) == 10

        conn.request("GET", "/graphs")
        assert json.loads(conn.getresponse().read()) == ["mag"]
        conn.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_serve_worker_pool_end_to_end_over_a_real_socket():
    """`repro serve --workers 2 --protocol http`: sharded serving on the wire."""
    import http.client
    import json
    import re
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "mag", "--scale", "tiny",
            "--protocol", "http", "--workers", "2",
            "--port", "0", "--duration", "60",
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+) via http", banner)
        assert match, f"unexpected banner: {banner!r}"
        assert "pool of 2 workers" in banner
        port = int(match.group(1))

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.request("GET", "/ppr?graph=mag&target=5&k=8")
        response = conn.getresponse()
        assert response.status == 200
        pairs = json.loads(response.read())
        assert len(pairs) == 8 and all(len(pair) == 2 for pair in pairs)

        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        assert metrics["config"]["pool"]["workers"] == 2
        assert metrics["config"]["pool"]["alive"] == [True, True]
        # The workers map the private store the pool saved for the graph.
        assert metrics["graphs"]["mag"]["artifact_cache"]["mapped_nbytes"] > 0
        conn.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_serve_mmap_worker_pool_end_to_end_over_a_real_socket(tmp_path):
    """`repro serve --workers 2 --mmap-dir`: zero-copy serving on the wire.

    Workers map the saved store instead of rebuilding: /metrics must show
    mapped (shared) bytes and zero CSR builds.
    """
    import http.client
    import json
    import re
    import subprocess
    import sys

    store_dir = str(tmp_path / "store")
    assert main([
        "build-artifacts", "--dataset", "mag", "--scale", "tiny", "--out", store_dir,
    ]) == 0

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "mag", "--scale", "tiny",
            "--protocol", "http", "--workers", "2",
            "--mmap-dir", store_dir,
            "--port", "0", "--duration", "60",
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+) via http", banner)
        assert match, f"unexpected banner: {banner!r}"
        assert "pool of 2 workers" in banner and "mmap artifacts" in banner
        port = int(match.group(1))

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.request("GET", "/ppr?graph=mag&target=5&k=8")
        response = conn.getresponse()
        assert response.status == 200
        pairs = json.loads(response.read())
        assert len(pairs) == 8 and all(len(pair) == 2 for pair in pairs)

        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        cache = metrics["graphs"]["mag"]["artifact_cache"]
        assert cache["mapped_nbytes"] > 0
        assert cache["builds"] == 0  # prebuilt projections: hits, never builds
        conn.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_serve_predict_end_to_end_over_a_real_socket(tmp_path):
    """train --save-checkpoint → serve --checkpoint → GET /predict on the wire.

    The same workflow the CI inference tier runs: a checkpoint trained by
    the CLI answers node-classification queries over HTTP, and /metrics
    exposes the predict cache + registry counters.
    """
    import http.client
    import json
    import re
    import subprocess
    import sys

    ckpt = str(tmp_path / "pv.ckpt")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "RGCN", "--epochs", "3", "--save-checkpoint", ckpt,
    ]) == 0

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "mag", "--scale", "tiny",
            "--protocol", "http", "--checkpoint", ckpt,
            "--port", "0", "--duration", "60",
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+) via http", banner)
        assert match, f"unexpected banner: {banner!r}"
        assert "1 checkpoint(s)" in banner
        port = int(match.group(1))

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.request("GET", "/predict?graph=mag&task=PV&node=0&k=4")
        response = conn.getresponse()
        assert response.status == 200
        payload = json.loads(response.read())
        assert payload["task_type"] == "NC"
        assert payload["model"] == "RGCN"
        assert payload["node"] == 0
        assert isinstance(payload["label"], int)
        assert len(payload["scores"]) > 1

        # Same request again: answered from the result cache.
        conn.request("GET", "/predict?graph=mag&task=PV&node=0&k=4")
        assert json.loads(conn.getresponse().read()) == payload

        # Bad request: NC tasks take a node, not a head.
        conn.request("GET", "/predict?graph=mag&task=PV")
        response = conn.getresponse()
        assert response.status == 400
        response.read()

        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        predict = metrics["predict"]
        assert predict["cache"]["hits"] >= 1
        assert predict["registry"]["loads"] == 1
        assert predict["registry"]["checkpoints"][0]["task"] == "PV"
        conn.close()
    finally:
        process.terminate()
        process.wait(timeout=10)



def _running(pid):
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _live_descendants(pid):
    """Running processes below ``pid`` in the process tree."""
    children = {}
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat") as handle:
                parent = int(handle.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(parent, []).append(int(name))
    found, frontier = [], [pid]
    while frontier:
        frontier = [child for parent in frontier for child in children.get(parent, [])]
        found += frontier
    return [child for child in found if _running(child)]


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the process tree from /proc")
@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--dataset", "mag", "--scale", "tiny", "--port", "0"],
        ["serve", "--dataset", "mag", "--scale", "tiny", "--port", "0", "--workers", "1"],
        ["serve-worker", "--listen", "127.0.0.1:0"],
    ],
    ids=["in-process", "workers-1", "serve-worker"],
)
def test_sigterm_stops_a_server_gracefully(argv):
    """SIGTERM: stop accepting, drain, close the pool, exit 0, leave no child."""
    import signal
    import subprocess
    import sys
    import time

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert "serving MAG-tiny" in banner or "serve-worker listening" in banner, banner
        children = _live_descendants(process.pid)
        if "--workers" in argv:
            assert children, "a pool server runs its worker in a child process"
        stopped = time.monotonic()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=5) == 0
        # The pool's fork server and resource tracker leave on the closed
        # pipe once the server has exited.
        alive = children
        while alive and time.monotonic() - stopped < 5:
            time.sleep(0.05)
            alive = [pid for pid in alive if _running(pid)]
        assert not alive, f"children still running 5 s after SIGTERM: {alive}"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_train_save_checkpoint_prints_a_serve_command_that_loads_it(tmp_path, capsys):
    ckpt = str(tmp_path / "pv.ckpt")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--seed", "7", "--task", "PV",
        "--model", "RGCN", "--epochs", "1", "--save-checkpoint", ckpt,
    ]) == 0
    hint = capsys.readouterr().out.split("serve it with: repro ")[1].split()
    assert hint[:7] == ["serve", "--dataset", "mag", "--scale", "tiny", "--seed", "7"]
    assert main(hint + ["--port", "0", "--duration", "0.2"]) == 0
    assert "1 checkpoint(s)" in capsys.readouterr().out


def test_train_save_checkpoint_on_kg_prime_names_the_graph_it_serves(tmp_path, capsys):
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV", "--tosa",
        "--model", "RGCN", "--epochs", "1", "--save-checkpoint", str(tmp_path / "pv.ckpt"),
    ]) == 0
    out = capsys.readouterr().out
    assert "serves only the KG' it was trained on (MAG-tiny-tosa-d1h1)" in out
    assert "repro serve" not in out


@pytest.fixture(scope="module")
def bad_file_setup(tmp_path_factory):
    """A MAG-tiny checkpoint and a DBLP-tiny artifact store: they do not match."""
    root = tmp_path_factory.mktemp("bad-files")
    ckpt, store = str(root / "pv.ckpt"), str(root / "dblp-store")
    assert main([
        "train", "--dataset", "mag", "--scale", "tiny", "--task", "PV",
        "--model", "RGCN", "--epochs", "1", "--save-checkpoint", ckpt,
    ]) == 0
    assert main(["build-artifacts", "--dataset", "dblp", "--scale", "tiny", "--out", store]) == 0
    return root, ckpt, store


@pytest.mark.parametrize("case", ["missing-checkpoint", "wrong-graph-checkpoint",
                                  "worker-wrong-graph-checkpoint", "missing-store"])
def test_bad_container_file_exits_with_one_line(bad_file_setup, case):
    import subprocess
    import sys

    root, ckpt, store = bad_file_setup
    argv = {
        "missing-checkpoint": ["serve", "--scale", "tiny", "--checkpoint", str(root / "nope")],
        "wrong-graph-checkpoint": ["serve", "--checkpoint", ckpt],
        "worker-wrong-graph-checkpoint": [
            "serve-worker", "--listen", "127.0.0.1:0", "--mmap-dir", store, "--checkpoint", ckpt,
        ],
        "missing-store": ["serve", "--mmap-dir", str(root / "nope")],
    }[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--duration", "5"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert done.stderr.strip().startswith(f"repro {argv[0]}: ")
    assert len(done.stderr.strip().splitlines()) == 1
