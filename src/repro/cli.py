"""Command-line interface.

Seven subcommands cover the library's day-to-day uses::

    python -m repro stats           --dataset mag --scale small
    python -m repro extract         --dataset mag --task PV --method sparql -d 1 -H 1 --out kgprime/
    python -m repro train           --dataset mag --task PV --model GraphSAINT --tosa --epochs 10
    python -m repro train           --dataset mag --task PV --model RGCN --save-checkpoint ckpt/pv.ckpt
    python -m repro bench           --experiment table1 --scale tiny
    python -m repro build-artifacts --dataset mag --scale large --out artifacts/mag-large
    python -m repro serve           --dataset mag --scale small --port 7469
    python -m repro serve           --dataset mag --protocol http --port 8080 --workers 4
    python -m repro serve           --dataset mag --protocol http --checkpoint ckpt/pv.ckpt
    python -m repro serve           --dataset mag --workers 4 --mmap-dir artifacts/mag-large
    python -m repro bench-serve     --dataset mag --scale small --concurrency 64 --workers 2
    python -m repro bench-serve     --dataset mag --checkpoint ckpt/pv.ckpt --requests 512

``stats`` prints the Table-I row of a benchmark KG; ``extract`` runs TOSG
extraction and optionally saves KG′ as a TSV bundle; ``train`` runs one
method on FG or KG′ and reports the paper's metrics; ``bench`` regenerates
one paper artifact; ``build-artifacts`` writes a graph plus its derived
indices as a memory-mappable artifact store (``repro/kg/store.py``);
``serve`` exposes the concurrent extraction service over
newline-delimited-JSON TCP or the HTTP/SPARQL-protocol front end
(``--protocol http``), in-process or on a multi-process sharded worker
pool (``--workers N``, optionally zero-copy from a saved store via
``--mmap-dir``); ``bench-serve`` runs the closed-loop load generator
against the serial baseline and either the in-process coalescing
scheduler or the worker pool (see ``docs/serving.md``).  The scheduler
batches requests only while the service is busy, so ``--max-batch`` is
its one setting.

``train --save-checkpoint PATH`` additionally persists the trained model
as a CRC-checked checkpoint artifact (``repro/nn/checkpoint.py``);
``serve --checkpoint PATH`` registers such checkpoints with the model
registry so ``/predict`` answers node-classification and link-prediction
queries on the same coalescing hot path, and ``bench-serve --checkpoint``
drives a closed-loop /predict load against the scalar one-request oracle.

The argparse help text is the contract: every flag documented in
``docs/serving.md`` must appear verbatim in ``repro serve --help`` /
``repro bench-serve --help`` (``tests/test_cli.py`` enforces this).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

_DATASETS = ("mag", "dblp", "yago4", "yago3_10", "wikikg2")
_EXPERIMENTS = (
    "fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table1", "table2", "table3", "table4",
)


def _load_bundle(dataset: str, scale: str, seed: int):
    from repro.datasets import catalog

    if dataset not in _DATASETS:
        raise SystemExit(f"unknown dataset {dataset!r}; choose from {_DATASETS}")
    return getattr(catalog, dataset)(scale, seed)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench.harness import render_table
    from repro.kg.stats import compute_statistics

    bundle = _load_bundle(args.dataset, args.scale, args.seed)
    stats = compute_statistics(bundle.kg)
    print(render_table(
        ["KG", "#nodes", "#edges", "#n-type", "#e-type"], [stats.as_row()],
        title=f"{bundle.kg.name} (tasks: {', '.join(sorted(bundle.tasks))})",
    ))
    print(f"avg out-degree {stats.avg_out_degree:.2f}, max degree {stats.max_degree}, "
          f"density {stats.density:.2e}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.core import evaluate_quality, extract_tosg
    from repro.kg.io import save_kg

    bundle = _load_bundle(args.dataset, args.scale, args.seed)
    task = bundle.task(args.task)
    result = extract_tosg(
        bundle.kg, task, method=args.method, direction=args.direction,
        hops=args.hops, rng=np.random.default_rng(args.seed),
        walk_length=args.walk_length, top_k=args.top_k,
    )
    quality = evaluate_quality(result.subgraph, result.task, sampler=result.method)
    print(f"extracted {result.subgraph} with {result.method} "
          f"in {result.extraction_seconds:.2f}s")
    print(f"  targets kept: {result.task.num_targets}/{task.num_targets}  "
          f"target ratio {quality.target_ratio_pct:.1f}%  "
          f"disconnected {quality.disconnected_pct:.1f}%  "
          f"entropy {quality.entropy:.2f}")
    if args.out:
        save_kg(result.subgraph, args.out)
        print(f"  saved TSV bundle to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.bench.harness import RUN_HEADERS, render_table, run_method
    from repro.core import extract_tosg
    from repro.models import ModelConfig, architectures
    from repro.training import TrainConfig

    bundle = _load_bundle(args.dataset, args.scale, args.seed)
    task = bundle.task(args.task)
    models = tuple(architectures(task.task_type))
    if args.model not in models:
        raise SystemExit(
            f"{args.task} is a {task.task_type} task; --model must be one of {models}"
        )

    if args.tosa:
        direction = args.direction if args.direction else (2 if task.task_type == "LP" else 1)
        tosa = extract_tosg(bundle.kg, task, method="sparql", direction=direction, hops=args.hops)
        graph, graph_task = tosa.subgraph, tosa.task
        label, preprocess = f"KG-TOSA{tosa.params['pattern']}", tosa.extraction_seconds
    else:
        graph, graph_task, label, preprocess = bundle.kg, task, "FG", 0.0

    model_config = ModelConfig(
        hidden_dim=args.hidden_dim, num_layers=args.layers, lr=args.lr, seed=args.seed
    )
    train_config = TrainConfig(epochs=args.epochs, eval_every=max(args.epochs // 5, 1))
    run = run_method(
        args.model, graph, graph_task, model_config, train_config,
        graph_label=label, preprocess_seconds=preprocess,
    )
    print(render_table(RUN_HEADERS, [run.cells()], title=f"{args.task}/{bundle.kg.name}"))
    if args.save_checkpoint:
        if run.oom:
            raise SystemExit("training hit the modeled-memory budget; nothing to checkpoint")
        from repro.nn.checkpoint import save_checkpoint

        manifest = save_checkpoint(
            run.model, args.save_checkpoint,
            metrics={"test_metric": run.metric, "metric": run.metric_name},
        )
        if args.tosa:
            # No served graph is the extracted KG', so no serve command fits.
            hint = f"it serves only the KG' it was trained on ({graph.name})"
        else:
            hint = (
                f"serve it with: repro serve --dataset {args.dataset} --scale {args.scale} "
                f"--seed {args.seed} --checkpoint {args.save_checkpoint}"
            )
        print(
            f"checkpoint saved to {manifest['path']} "
            f"({manifest['nbytes'] / 1e3:.1f} kB, {manifest['parameters']} parameters); "
            + hint
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments
    from repro.bench.harness import RUN_HEADERS, render_table

    functions = {
        "fig1": experiments.fig1_motivation,
        "fig2": experiments.fig2_urw_pathology,
        "fig5": experiments.fig5_brw_quality,
        "fig6": experiments.fig6_nc_tasks,
        "fig7": experiments.fig7_lp_tasks,
        "fig8": experiments.fig8_extraction_methods,
        "fig9": experiments.fig9_convergence,
        "table1": experiments.table1_benchmark_stats,
        "table2": experiments.table2_task_summary,
        "table3": experiments.table3_subgraph_quality,
        "table4": experiments.table4_cost_breakdown,
    }
    if args.experiment not in functions:
        raise SystemExit(f"unknown experiment; choose from {sorted(functions)}")
    result = functions[args.experiment](scale=args.scale, seed=args.seed)
    for name, rows in result.tables.items():
        print(render_table([""] * len(rows[0]) if rows else [], rows, title=name))
    for label, runs in result.sections.items():
        print(render_table(RUN_HEADERS, [r.cells() for r in runs], title=label))
    for label, reports in result.quality.items():
        rows = [r.as_row() for r in reports]
        headers = ["sampler", "task", "|V'|", "VT%", "|C'|", "|R'|", "discon%", "dist", "H"]
        print(render_table(headers, rows, title=label))
    return 0


def _cmd_build_artifacts(args: argparse.Namespace) -> int:
    from repro.kg.store import save_artifacts

    bundle = _load_bundle(args.dataset, args.scale, args.seed)
    manifest = save_artifacts(bundle.kg, args.out)
    print(
        f"saved artifact store for {bundle.kg.name} to {args.out} "
        f"({manifest['nbytes'] / 1e6:.1f} MB, {manifest['sections']} sections); "
        f"serve it with: repro serve --dataset {args.dataset} --workers 2 "
        f"--mmap-dir {args.out}"
    )
    return 0


async def _serve_until_stopped(server, duration: Optional[float], banner: str) -> None:
    """Print ``banner``, serve until ``duration`` passes or SIGTERM/SIGINT arrives.

    A stop signal sets an event instead of killing the process, so the
    caller's cleanup (draining coalescing windows, closing the worker
    pool) runs and the process exits 0.  The handlers are installed before
    the banner is printed, so a client that signals on seeing the banner
    always gets the graceful stop.  On return the listener is closed; open
    connections are left to ``asyncio.run``'s shutdown, which cancels them.
    """
    import asyncio
    import contextlib
    import signal
    import threading

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    signals = ()
    if threading.current_thread() is threading.main_thread():  # signals reach it only
        signals = (signal.SIGTERM, signal.SIGINT)
    previous = {sig: signal.getsignal(sig) for sig in signals}
    for sig in signals:
        loop.add_signal_handler(sig, stop.set)
    print(banner, flush=True)
    try:
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(stop.wait(), duration)
    finally:
        server.close()
        for sig in signals:
            loop.remove_signal_handler(sig)
            signal.signal(sig, previous[sig])


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ExtractionService, WorkerPool, bound_port, serve_http, serve_tcp

    if args.mmap_dir:
        # The store is the graph: no generation, no index builds — the
        # serving state memory-maps in directly (and, with --workers,
        # every worker maps the same physical pages).
        from repro.kg.store import open_artifacts

        kg = open_artifacts(args.mmap_dir).kg
    else:
        kg = _load_bundle(args.dataset, args.scale, args.seed).kg
    serve_protocol = serve_http if args.protocol == "http" else serve_tcp
    if (args.workers or args.remote_worker) and args.no_coalesce:
        raise SystemExit(
            "--workers/--remote-worker require the coalescing scheduler "
            "(drop --no-coalesce)"
        )
    if args.remote_worker and not args.mmap_dir:
        raise SystemExit(
            "--remote-worker requires --mmap-dir: remote registration ships "
            "the artifact-store path, which each worker maps from its own disk"
        )
    pool = None
    if args.workers or args.remote_worker:
        pool = WorkerPool(
            workers=args.workers,
            replicas=args.replicas or None,
            remote_workers=args.remote_worker,
        )

    async def run() -> None:
        service = ExtractionService(
            max_pending=args.max_pending,
            max_batch=args.max_batch,
            coalesce=not args.no_coalesce,
            pool=pool,
            compact_every=args.compact_every,
        )
        service.register(args.dataset, kg, mmap_dir=args.mmap_dir)
        for path in args.checkpoint:
            service.register_checkpoint(args.dataset, path)
        server = await serve_protocol(service, host=args.host, port=args.port)
        if pool is not None:
            # Read back from the pool: it normalizes (clamps) the replica
            # count, so the banner can never advertise a placement that
            # does not exist.
            replicas = pool.replicas if pool.replicas else pool.num_workers
            mode = f"pool of {pool.num_workers} workers, {replicas} replica(s)/graph"
            if args.remote_worker:
                mode += f" ({len(args.remote_worker)} remote)"
        else:
            mode = "serial" if args.no_coalesce else "coalescing"
        if args.mmap_dir:
            mode += ", mmap artifacts"
        if args.checkpoint:
            mode += f", {len(args.checkpoint)} checkpoint(s)"
        banner = (
            f"serving {kg.name} as graph {args.dataset!r} on "
            f"{args.host}:{bound_port(server)} via {args.protocol} ({mode}, "
            f"batches of up to {args.max_batch}, "
            f"max {args.max_pending} in flight)"
        )
        await _serve_until_stopped(server, args.duration, banner)
        await service.drain()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interrupted before serving
        pass
    finally:
        if pool is not None:
            pool.close()
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    import asyncio
    import threading

    from repro.serve.transport import WorkerListener, WorkerServer

    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not (0 <= port < 65536):
        raise SystemExit(f"--listen must be HOST:PORT, got {args.listen!r}")
    if args.checkpoint and not args.mmap_dir:
        raise SystemExit(
            "--checkpoint requires --mmap-dir (the graph the checkpoints serve)"
        )
    state = WorkerServer()
    if args.mmap_dir:
        # Pre-register from the local store: a parent's later register op
        # for the same name starts its chain on the mapped graph, so it
        # pays no startup cost on this worker.  Use --graph to match the
        # name the parent serves under (its --dataset value).
        from repro.kg.store import open_artifacts

        name = args.graph or open_artifacts(args.mmap_dir).kg.name
        state.register_local({
            "name": name,
            "mmap_dir": args.mmap_dir,
            "warm": True,
            "checkpoints": list(args.checkpoint),
        })

    listener = WorkerListener(state, host, port)
    threading.Thread(target=listener.serve_forever, name="serve-worker-accept",
                     daemon=True).start()
    graphs = state.graphs()
    banner = (
        f"serve-worker listening on {host}:{listener.port} "
        f"(graphs: {', '.join(graphs) if graphs else 'none, awaiting registration'})"
    )
    try:
        asyncio.run(_serve_until_stopped(listener, args.duration, banner))
    except KeyboardInterrupt:  # pragma: no cover - interrupted before serving
        pass
    finally:
        listener.close()
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.bench.harness import render_table
    from repro.serve import WorkerPool, compare_serving
    from repro.serve.loadgen import ROW_HEADERS

    bundle = _load_bundle(args.dataset, args.scale, args.seed)
    rng = np.random.default_rng(args.seed)
    if args.mmap_dir and not args.workers:
        raise SystemExit("--mmap-dir benchmarks pool startup; add --workers N")
    if args.checkpoint and args.mmap_dir:
        raise SystemExit("--checkpoint benchmarks the /predict path; drop --mmap-dir")
    if args.paths and args.checkpoint:
        raise SystemExit("--paths benchmarks the /paths op; drop --checkpoint")
    if args.paths and args.mmap_dir:
        raise SystemExit("--paths registers the catalog graph directly; drop --mmap-dir")
    kg = bundle.kg
    if args.mmap_dir:
        # Serve the mapped copy of the same graph: targets come from the
        # catalog task, so the store must have been built with the same
        # --dataset/--scale/--seed (ids are then bit-identical).
        from repro.kg.store import open_artifacts

        kg = open_artifacts(args.mmap_dir).kg
    if args.checkpoint:
        # /predict load: the request mix interleaves every task that has a
        # checkpoint — target nodes for NC tasks, head nodes for LP tasks.
        from repro.nn.checkpoint import read_checkpoint_meta

        task_types = {}
        for path in args.checkpoint:
            meta = read_checkpoint_meta(path)
            task_types[meta["task_name"]] = meta["task_type"]
        task_names = sorted(task_types)
        draws = {}
        for name in task_names:
            load_task = bundle.task(name)
            source = (load_task.target_nodes if task_types[name] == "NC"
                      else load_task.edges[:, 0])
            draws[name] = rng.choice(source, size=args.requests, replace=True)
        requests = []
        for i in range(args.requests):
            name = task_names[i % len(task_names)]
            item = "node" if task_types[name] == "NC" else "head"
            requests.append({
                "op": "predict", "task": name, item: int(draws[name][i]),
                "k": args.top_k, "candidates": args.candidates,
            })
        kind, task_label = "/predict ", "+".join(task_names)
    elif args.paths:
        # /paths load: random (src, dst) pairs drawn from the task's
        # targets — the serial baseline answers each with the scalar DFS
        # oracle, the fast mode micro-batches path enumerations.
        targets = bundle.task(args.task).target_nodes
        requests = [
            {"op": "paths", "src": int(src), "dst": int(dst),
             "max_hops": args.max_hops, "max_paths": args.max_paths}
            for src, dst in zip(
                rng.choice(targets, size=args.requests, replace=True),
                rng.choice(targets, size=args.requests, replace=True),
            )
        ]
        kind, task_label = "/paths ", f"{args.task} pairs"
    else:
        targets = rng.choice(bundle.task(args.task).target_nodes,
                             size=args.requests, replace=True)
        requests = [{"op": "ppr", "target": int(t), "k": args.top_k} for t in targets]
        kind, task_label = "", args.task
    pool = WorkerPool(workers=args.workers) if args.workers else None
    try:
        serial, fast, speedup = compare_serving(
            kg, requests,
            baseline={"coalesce": False},
            candidate={"pool": pool, "mmap_dir": args.mmap_dir},
            checkpoints=args.checkpoint, concurrency=args.concurrency,
            max_batch=args.max_batch,
        )
    finally:
        if pool is not None:
            pool.close()
    if args.workers:
        label = f"{kind}pool ({args.workers} workers) speedup"
    else:
        label = f"{kind}coalescing speedup"
    print(render_table(
        ROW_HEADERS,
        [serial.as_row(), fast.as_row()],
        title=f"closed-loop serving, {bundle.kg.name} ({task_label})",
    ))
    print(f"{label} {speedup:.1f}x (results bit-identical to serial)")
    if args.out:
        payload = {
            "graph": bundle.kg.name,
            "task": task_label,
            "speedup": speedup,
            "serial": serial.as_json(),
            fast.mode: fast.as_json(),
            "metrics": fast.metrics,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"[report saved to {args.out}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="KG-TOSA reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dataset", default="mag", help=f"one of {_DATASETS}")
        p.add_argument("--scale", default="small", help="tiny | small | medium | large | float")
        p.add_argument("--seed", type=int, default=7, help="generator / sampling seed")

    stats = sub.add_parser("stats", help="print Table-I statistics of a benchmark KG")
    add_common(stats)
    stats.set_defaults(func=_cmd_stats)

    extract = sub.add_parser("extract", help="extract a task-oriented subgraph")
    add_common(extract)
    extract.add_argument("--task", default="PV")
    extract.add_argument("--method", default="sparql", choices=("sparql", "brw", "ibs"))
    extract.add_argument("-d", "--direction", type=int, default=1, choices=(1, 2))
    extract.add_argument("-H", "--hops", type=int, default=1)
    extract.add_argument("--walk-length", type=int, default=3)
    extract.add_argument("--top-k", type=int, default=16)
    extract.add_argument("--out", default=None, help="directory for the KG' TSV bundle")
    extract.set_defaults(func=_cmd_extract)

    train = sub.add_parser("train", help="train one HGNN method on FG or KG'")
    add_common(train)
    train.add_argument("--task", default="PV")
    train.add_argument("--model", default="GraphSAINT")
    train.add_argument("--tosa", action="store_true", help="train on the extracted TOSG")
    train.add_argument("-d", "--direction", type=int, default=None, choices=(1, 2))
    train.add_argument("-H", "--hops", type=int, default=1)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--hidden-dim", type=int, default=24)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--lr", type=float, default=0.02)
    train.add_argument("--save-checkpoint", default=None, metavar="PATH",
                       help="persist the trained model as a CRC-checked checkpoint "
                            "artifact servable via `repro serve --checkpoint PATH`")
    train.set_defaults(func=_cmd_train)

    bench = sub.add_parser("bench", help="regenerate one paper table/figure")
    bench.add_argument("--experiment", default="table1", help=f"one of {_EXPERIMENTS}")
    bench.add_argument("--scale", default="tiny")
    bench.add_argument("--seed", type=int, default=7)
    bench.set_defaults(func=_cmd_bench)

    build = sub.add_parser(
        "build-artifacts",
        help="write a graph + derived indices as a memory-mappable artifact "
             "store (served zero-copy via serve/bench-serve --mmap-dir)",
    )
    add_common(build)
    build.add_argument("--out", required=True,
                       help="directory for the artifact store (one artifacts.tosg file)")
    build.set_defaults(func=_cmd_build_artifacts)

    serve = sub.add_parser(
        "serve",
        help="serve concurrent extraction over HTTP/SPARQL or TCP (ndjson), "
             "in-process or on a multi-process worker pool (--workers)",
    )
    add_common(serve)
    serve.add_argument("--protocol", default="tcp", choices=("tcp", "http"),
                       help="wire protocol: ndjson TCP or the HTTP/SPARQL front end")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=7469, help="0 picks a free port")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes for sharded multi-process serving "
                            "(0: in-process dispatch)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="workers serving each graph (0: all --workers; "
                            "1: pure sharding, one owner per graph)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="admission bound: in-flight requests before 503/Retry-After")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescing window: max requests per batch-kernel call")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="serial per-request dispatch (baseline mode)")
    serve.add_argument("--mmap-dir", default=None,
                       help="serve from a saved artifact store (see build-artifacts): "
                            "the graph and its indices memory-map in read-only, and "
                            "pool workers share the same physical pages (without it "
                            "a pool saves the graph to a private store first)")
    serve.add_argument("--checkpoint", action="append", default=[], metavar="PATH",
                       help="register a model checkpoint (created with "
                            "`repro train --save-checkpoint`) so /predict can "
                            "serve its task; repeatable")
    serve.add_argument("--compact-every", type=int, default=0,
                       help="compact a live graph's delta log into a fresh base "
                            "once POST /triples has accumulated this many delta "
                            "rows (0: never compact)")
    serve.add_argument("--duration", type=float, default=None,
                       help="stop after this many seconds (default: run forever)")
    serve.add_argument("--remote-worker", action="append", default=[],
                       metavar="HOST:PORT",
                       help="add a standalone `repro serve-worker` at this address "
                            "to the pool as a remote shard (repeatable; requires "
                            "--mmap-dir: registration ships the store path, which "
                            "the worker maps from its own disk)")
    serve.set_defaults(func=_cmd_serve)

    serve_worker = sub.add_parser(
        "serve-worker",
        help="run one standalone pool worker: answers the pool ops over "
             "TCP for a parent started with serve --remote-worker",
    )
    serve_worker.add_argument("--listen", required=True, metavar="HOST:PORT",
                              help="interface:port to bind (port 0 picks a free port)")
    serve_worker.add_argument("--mmap-dir", default=None,
                              help="pre-register the graph from this saved artifact "
                                   "store (see build-artifacts); parents can also "
                                   "register remotely, shipping only the store path")
    serve_worker.add_argument("--graph", default=None,
                              help="name to pre-register the --mmap-dir store under "
                                   "— match the parent's --dataset (default: the "
                                   "store's own graph name)")
    serve_worker.add_argument("--checkpoint", action="append", default=[],
                              metavar="PATH",
                              help="register a model checkpoint so /predict windows "
                                   "routed here can serve its task; repeatable")
    serve_worker.add_argument("--duration", type=float, default=None,
                              help="stop after this many seconds (default: run forever)")
    serve_worker.set_defaults(func=_cmd_serve_worker)

    bench_serve = sub.add_parser(
        "bench-serve",
        help="closed-loop load: serial baseline vs coalescing scheduler "
             "or worker pool (--workers)",
    )
    add_common(bench_serve)
    bench_serve.add_argument("--task", default="PV", help="task whose targets drive the load")
    bench_serve.add_argument("--requests", type=int, default=256,
                             help="total requests in the closed loop")
    bench_serve.add_argument("--concurrency", type=int, default=64,
                             help="closed-loop workers (requests in flight)")
    bench_serve.add_argument("--top-k", type=int, default=16,
                             help="PPR top-k per request")
    bench_serve.add_argument("--workers", type=int, default=0,
                             help="compare against a pool of this many worker "
                                  "processes (0: in-process coalescing)")
    bench_serve.add_argument("--max-batch", type=int, default=64,
                             help="coalescing window: max requests per batch-kernel call")
    bench_serve.add_argument("--mmap-dir", default=None,
                             help="pool workers memory-map this saved artifact store "
                                  "(see build-artifacts) instead of a private copy "
                                  "the pool saves first; requires --workers")
    bench_serve.add_argument("--checkpoint", action="append", default=[], metavar="PATH",
                             help="benchmark /predict instead of extraction: drive "
                                  "a closed-loop inference load over these model "
                                  "checkpoints; repeatable")
    bench_serve.add_argument("--candidates", type=int, default=0,
                             help="/predict link-prediction candidate-pool cap "
                                  "(0: score the full tail-type pool)")
    bench_serve.add_argument("--paths", action="store_true",
                             help="benchmark the /paths op instead of extraction: "
                                  "closed-loop path enumeration over random "
                                  "(src, dst) target pairs vs the scalar-DFS "
                                  "serial baseline")
    bench_serve.add_argument("--max-hops", type=int, default=3,
                             help="/paths bound: maximum path length in hops")
    bench_serve.add_argument("--max-paths", type=int, default=64,
                             help="/paths bound: global cap on enumerated "
                                  "paths per pair")
    bench_serve.add_argument("--out", default=None,
                             help="write the comparison + metrics dump as JSON")
    bench_serve.set_defaults(func=_cmd_bench_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``python -m repro ...``)."""
    from repro.kg.store import ArtifactStoreError
    from repro.nn.checkpoint import CheckpointError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, ArtifactStoreError) as exc:
        # A bad or mismatched file: its message already names the remedy.
        raise SystemExit(f"repro {args.command}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
