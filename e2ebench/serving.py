"""The two serving workloads: ``serve-uniform`` and ``serve-live``.

Both drive a real ``python -m repro serve`` subprocess over its sockets
from one client process (``client.py``) and check every answer against
the in-process scalar oracles (``oracle.py``).

Every run serves MAG at the ``large`` preset from a memory-mapped
artifact store plus one ``/predict`` checkpoint (both prepared once per
program version, outside every timed window), in three phases:

1. set-up: the server is spawned ``SETUP_SPAWNS`` times; each sample is
   spawn -> first correct answer, and the last server stays up;
2. warm-up: a short open loop (checked, not counted) so lazy model loads
   and index builds are done before timing;
3. a fixed-rate open loop cut into ``SLICES`` equal slices; latency is
   timed from each request's due send time, and each latency or CPU
   metric is the median over the slices of that slice's value.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import client
import common
from oracle import GRAPH, Oracle, sparql_bindings

SETUP_SPAWNS = 5
#: each op appears this many times in every shuffled deck of reads
DECK_ROUNDS = 4
POPULARITY_SEED = 20240101
WARMUP_SECONDS = 3.0
#: equal slices of the open loop; latency and CPU are medians over them
SLICES = 6
#: rows of every ``POST /triples`` batch: one new triple, as one YCSB
#: update writes one record
INGEST_ROWS = 1
PREDICT_TASK = "PV"


@dataclass(frozen=True)
class ServeSpec:
    """What distinguishes the two serving workloads."""

    name: str
    protocol: str
    #: ``--workers``: 0 serves in-process
    workers: int
    #: the read ops, in equal shares
    ops: Tuple[str, ...]
    #: Zipf exponent of target popularity (0 = uniform)
    zipf: float
    #: open-loop arrival rate, requests/s
    rate: float
    #: latency limit of ``slo_share``, ms
    slo_ms: float
    #: every ``ingest_every``-th open-loop request is a ``POST /triples``
    #: batch (0 = none); fixed spacing keeps the ingest count per run fixed
    ingest_every: int = 0
    #: ``--compact-every``: compact once the delta log holds this many
    #: rows (0 never compacts)
    compact_every: int = 0


SPECS = {
    "serve-uniform": ServeSpec(
        name="serve-uniform",
        protocol="tcp",
        workers=0,
        ops=("ppr", "ego", "paths", "predict", "sparql", "count"),
        zipf=0.0,
        rate=45.0,
        slo_ms=150.0,
    ),
    "serve-live": ServeSpec(
        name="serve-live",
        protocol="http",
        workers=1,
        ops=("ppr", "ego", "paths", "sparql"),
        zipf=0.99,
        rate=25.0,
        slo_ms=150.0,
        ingest_every=20,
        compact_every=10,
    ),
}


# -- prepared artifacts (outside every timed window) --------------------------


def _program_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(common.SRC, "repro")
    for folder, dirs, files in sorted(os.walk(package)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def prepare() -> Tuple[str, str]:
    """Artifact store + FG-trained checkpoint, built once per program version.

    The checkpoint is trained on the full graph: a checkpoint records the
    graph it was trained on, and the server only accepts one trained on the
    graph it serves.
    """
    cache = os.path.join(common.OUT, "prepared", _program_digest())
    store = os.path.join(cache, "store")
    checkpoint = os.path.join(cache, "pv.ckpt")
    if os.path.isfile(os.path.join(cache, "READY")):
        return store, checkpoint
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    base = [sys.executable, "-m", "repro"]
    commands = [
        base + ["build-artifacts", "--dataset", "mag", "--scale", "large", "--out", store],
        base + ["train", "--dataset", "mag", "--scale", "large", "--task", PREDICT_TASK,
                "--model", "GraphSAINT", "--save-checkpoint", checkpoint],
    ]
    for argv in commands:
        subprocess.run(
            argv, cwd=common.ROOT, env=common.src_env(), check=True,
            stdout=subprocess.DEVNULL, timeout=300,
        )
    open(os.path.join(cache, "READY"), "w").close()
    return store, checkpoint


# -- request streams ----------------------------------------------------------


class RequestFactory:
    """Seeded request stream over the served graph."""

    def __init__(self, oracle: Oracle, spec: ServeSpec, seed: int):
        from repro.kg.cache import artifacts_for

        kg = oracle.kg
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        # Copies, not views: the benchmark process must not keep the store
        # mapped while the server runs, or the server's PSS would shrink by
        # the pages both processes map.
        self.num_nodes = kg.num_nodes
        self.terms = [kg.node_vocab.term(node) for node in range(kg.num_nodes)]
        csr = artifacts_for(kg).csr("both")
        self.indptr = np.array(csr.indptr)
        self.indices = np.array(csr.indices)
        model = oracle.service.registry
        arch = model.candidates(GRAPH, PREDICT_TASK)[0][0]
        built = model.model(GRAPH, PREDICT_TASK, arch, kg, 0)
        self.predict_targets = np.array(built.task.target_nodes)
        # Ops come in decks holding each op DECK_ROUNDS times, each deck
        # shuffled by the seed: every run sees the same proportions.
        self.deck = list(spec.ops) * DECK_ROUNDS
        self.dealt: List[str] = []
        self.issued = 0
        self.node_cdf = self._popularity(self.num_nodes)
        self.target_cdf = self._popularity(len(self.predict_targets))
        triples = kg.triples
        self.rel_s = {}
        self.rel_o = {}
        for rel in np.unique(np.asarray(triples.p)):
            mask = np.asarray(triples.p) == rel
            self.rel_s[int(rel)] = np.asarray(triples.s)[mask]
            self.rel_o[int(rel)] = np.asarray(triples.o)[mask]
        self.relations = sorted(self.rel_s)

    def _popularity(self, n: int) -> Optional[np.ndarray]:
        """CDF over ``n`` items with Zipf ranks assigned by a seeded shuffle."""
        if self.spec.zipf <= 0:
            return None
        weights = 1.0 / np.arange(1, n + 1) ** self.spec.zipf
        p = np.empty(n)
        # Which node holds which rank is part of the workload, not the seed:
        # every seed draws from the same popularity curve.
        p[np.random.default_rng(POPULARITY_SEED).permutation(n)] = weights / weights.sum()
        return np.cumsum(p)

    def _draw(self, n: int, cdf: Optional[np.ndarray]) -> int:
        if cdf is None:
            return int(self.rng.integers(n))
        return min(int(np.searchsorted(cdf, self.rng.random(), side="right")), n - 1)

    def _node(self) -> int:
        return self._draw(self.num_nodes, self.node_cdf)

    def _walk_end(self, src: int) -> int:
        """A node 2-3 hops from ``src``, fixed per source, so paths exist."""
        walk = np.random.default_rng((self.seed, src))
        node = src
        for _ in range(2 + src % 2):
            lo, hi = self.indptr[node], self.indptr[node + 1]
            if hi == lo:
                break
            node = int(self.indices[lo + walk.integers(hi - lo)])
        return node if node != src else int(walk.integers(self.num_nodes))

    def read(self) -> dict:
        if not self.dealt:
            self.dealt = [self.deck[i] for i in self.rng.permutation(len(self.deck))]
        op = self.dealt.pop()
        if op == "ppr":
            return {"op": "ppr", "graph": GRAPH, "target": self._node(), "k": 16}
        if op == "ego":
            return {"op": "ego", "graph": GRAPH, "root": self._node(), "depth": 2, "fanout": 8}
        if op == "paths":
            src = self._node()
            return {"op": "paths", "graph": GRAPH, "src": src, "dst": self._walk_end(src),
                    "max_hops": 3, "max_paths": 16}
        if op == "predict":
            row = self._draw(len(self.predict_targets), self.target_cdf)
            return {"op": "predict", "graph": GRAPH, "task": PREDICT_TASK,
                    "node": int(self.predict_targets[row]), "k": 5}
        term = self.terms[self._node()]
        if op == "sparql":
            return {"op": "sparql", "graph": GRAPH,
                    "query": f"select ?p ?o where {{ <{term}> ?p ?o }}"}
        return {"op": "count", "graph": GRAPH,
                "query": f"select ?s ?p where {{ ?s ?p <{term}> }}"}

    def ingest(self) -> dict:
        """``rows`` new edges, each between existing typed endpoints of one relation."""
        rows = []
        for _ in range(INGEST_ROWS):
            rel = self.relations[int(self.rng.integers(len(self.relations)))]
            s = int(self.rel_s[rel][self.rng.integers(len(self.rel_s[rel]))])
            o = int(self.rel_o[rel][self.rng.integers(len(self.rel_o[rel]))])
            rows.append([s, rel, o])
        return {"op": "triples", "graph": GRAPH, "triples": rows}

    def stream(self, count: int) -> List[dict]:
        """The next ``count`` open-loop requests; every ``ingest_every``-th
        request of the whole run (across streams) is an ingest."""
        out = []
        for _ in range(count):
            self.issued += 1
            if self.spec.ingest_every and self.issued % self.spec.ingest_every == 0:
                out.append(self.ingest())
            else:
                out.append(self.read())
        return out


# -- server lifecycle ---------------------------------------------------------

_BANNER = re.compile(r" on [0-9.]+:(\d+) via ")


def server_argv(spec: ServeSpec, store: str, checkpoint: str, spans: Optional[str]) -> List[str]:
    args = ["serve", "--dataset", "mag", "--scale", "large", "--protocol", spec.protocol,
            "--port", "0", "--mmap-dir", store, "--checkpoint", checkpoint,
            "--workers", str(spec.workers), "--compact-every", str(spec.compact_every)]
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, os.path.join(common.HERE, "tracing.py"), "--spans", spans,
            "--", "repro", *args]


def spawn_server(argv: List[str], spec: ServeSpec, probe: dict, expected: Callable) -> Tuple:
    """Spawn, wait for the banner, get one correct answer: (proc, port, seconds)."""
    start = time.perf_counter()
    proc = common.spawn(argv)
    try:
        banner = common.read_line(proc, "serving ", timeout=60)
        port = int(_BANNER.search(banner).group(1))
        protocol = client.PROTOCOLS[spec.protocol]
        sample = asyncio.run(client.one_request("127.0.0.1", port, protocol, probe))
        elapsed = time.perf_counter() - start
        if sample.status != 200 or not expected(sample):
            raise RuntimeError(f"set-up probe answered wrongly: {sample.body[:200]!r}")
    except BaseException:
        common.stop(proc)
        raise
    return proc, port, elapsed


def fetch_metrics(port: int, protocol_name: str) -> dict:
    protocol = client.PROTOCOLS[protocol_name]
    sample = asyncio.run(client.one_request("127.0.0.1", port, protocol, {"op": "metrics"}))
    body = json.loads(sample.body)
    return body["result"] if protocol_name == "tcp" else body


# -- correctness --------------------------------------------------------------


class Checker:
    """Classify every sample as correct, refused, or wrong.

    ``serve-uniform`` has no ingest: every read is compared byte for byte
    with the oracle's encoding.  ``serve-live`` replays the sequenced
    ingests into the oracle; a read that no ingest overlapped (the same
    number of ingests acknowledged before it was sent as sent before it
    was answered) is compared exactly at that epoch, and any other read
    must equal the oracle at one of the epochs it could have observed.
    """

    def __init__(self, oracle: Oracle, protocol: str):
        self.oracle = oracle
        self.protocol = protocol
        self.exact = 0
        self.windowed = 0

    def _matches(self, sample: client.Sample) -> bool:
        request = sample.request
        if self.protocol == "tcp":
            return sample.body == self.oracle.ndjson_line(request)
        if request["op"] == "sparql":
            expected = self.oracle.payload(request)
            return sparql_bindings(sample.body) == expected["columns"]
        return sample.body == self.oracle.http_body(request)

    def check(self, samples: Sequence[client.Sample]) -> Dict[int, str]:
        """``id(sample) -> "ok" | "refused" | "wrong"`` for every sample."""
        verdicts: Dict[int, str] = {}
        for sample in samples:
            if sample.status != 200:
                verdicts[id(sample)] = "refused" if sample.status == 503 else "wrong"
        # Only acknowledged ingests advance the server's epoch.
        ingests = sorted((s for s in samples if s.op == "triples" and s.status == 200),
                         key=lambda s: s.sent)
        acked = sorted(s.done for s in ingests)
        sent = [s.sent for s in ingests]
        by_epoch: Dict[int, List[client.Sample]] = {}
        for sample in samples:
            if sample.op == "triples" or id(sample) in verdicts:
                continue
            lo = int(np.searchsorted(acked, sample.sent, side="right"))
            hi = max(int(np.searchsorted(sent, sample.done, side="left")), lo)
            if lo == hi:
                self.exact += 1
            else:
                self.windowed += 1
            for epoch in range(lo, hi + 1):
                by_epoch.setdefault(epoch, []).append(sample)
        for position in range(len(ingests) + 1):
            for sample in by_epoch.get(position, []):
                if verdicts.get(id(sample)) != "ok" and self._matches(sample):
                    verdicts[id(sample)] = "ok"
            if position < len(ingests):
                ingest = ingests[position]
                result = self.oracle.ingest(ingest.request["triples"])
                answer = json.loads(ingest.body)
                if self.protocol == "tcp":
                    answer = answer.get("result")
                verdicts[id(ingest)] = "ok" if answer == {"graph": GRAPH, **result} else "wrong"
        for sample in samples:
            verdicts.setdefault(id(sample), "wrong")
        return verdicts

    @property
    def exact_share(self) -> float:
        total = self.exact + self.windowed
        return self.exact / total if total else 1.0


# -- one run ------------------------------------------------------------------


@dataclass
class Slice:
    """One slice of the fixed-rate open loop and the server CPU it cost."""

    samples: List[client.Sample]
    cpu_seconds: float


@dataclass
class Phases:
    setup: List[float]
    warmup: List[client.Sample]
    slices: List[Slice]
    pss_mb: float
    metrics_before: dict
    metrics_after: dict


def _first_of(factory: RequestFactory, op: str) -> dict:
    for _ in range(10 * len(factory.deck)):
        request = factory.read()
        if request["op"] == op:
            return request
    raise ValueError(f"op {op!r} is not among the workload's ops")


def _tree_cpu(pid: int) -> float:
    return sum(common.cpu_seconds(common.descendants(pid)).values())


def drive(spec: ServeSpec, store: str, checkpoint: str, factory: RequestFactory,
          probe: dict, probe_body: bytes, seconds: float, spawns: int,
          spans: Optional[str] = None) -> Phases:
    """Set up, warm up, run the open loop slice by slice; stop the server.

    Medians over slices keep a few slow seconds on a shared host from
    moving a metric.
    """
    protocol = client.PROTOCOLS[spec.protocol]
    argv = server_argv(spec, store, checkpoint, spans)
    slice_requests = max(int(spec.rate * seconds / SLICES), 1)
    setup: List[float] = []
    slices: List[Slice] = []
    proc = None
    try:
        for attempt in range(spawns):
            proc, port, elapsed = spawn_server(
                argv, spec, probe, lambda sample: sample.body == probe_body)
            setup.append(elapsed)
            if attempt < spawns - 1:
                common.stop(proc)
                proc = None
        # Warm-up touches every op first (the predict model loads lazily),
        # then runs open-loop traffic so caches reach their steady state.
        warm_requests = [_first_of(factory, op) for op in spec.ops]
        warm_requests += factory.stream(int(spec.rate * WARMUP_SECONDS))
        warm = asyncio.run(client.open_loop(
            "127.0.0.1", port, protocol, warm_requests, spec.rate, serial_op="triples"))
        metrics_before = fetch_metrics(port, spec.protocol)
        for _ in range(SLICES):
            requests = factory.stream(slice_requests)
            if spans is not None:
                # Traced runs tag requests so spans can be joined per request.
                requests = [dict(r, rid=f"{len(slices)}.{i}") for i, r in enumerate(requests)]
            cpu_before = _tree_cpu(proc.pid)
            samples = asyncio.run(client.open_loop(
                "127.0.0.1", port, protocol, requests, spec.rate, serial_op="triples"))
            slices.append(Slice(samples, _tree_cpu(proc.pid) - cpu_before))
        pss = common.pss_mb(common.descendants(proc.pid))
        metrics_after = fetch_metrics(port, spec.protocol)
    finally:
        if proc is not None:
            common.stop(proc)
    return Phases(setup, warm, slices, pss, metrics_before, metrics_after)


# -- metrics ------------------------------------------------------------------

#: the ops whose answers ``LiveGraph`` keeps in support-set caches
CACHED_OPS = ("ppr", "ego", "paths")


def repeat_shares(samples: Sequence[client.Sample]) -> Dict[str, float]:
    """How often the stream repeats a cached read: bounds on its cache hits.

    Over the reads of :data:`CACHED_OPS` in send order, ``repeat_share``
    is the share whose request was sent before at any point of the run (an
    upper bound on the hit share of an unbounded cache) and
    ``repeat_since_ingest_share`` the share sent before with no ingest in
    between (what a cache that every ingest emptied could still hit).
    """
    ever, since = set(), set()
    reads = repeats = repeats_since = 0
    for sample in sorted(samples, key=lambda s: s.sent):
        if sample.op == "triples":
            since.clear()
            continue
        if sample.op not in CACHED_OPS:
            continue
        key = json.dumps({k: v for k, v in sample.request.items() if k != "rid"},
                         sort_keys=True)
        reads += 1
        repeats += key in ever
        repeats_since += key in since
        ever.add(key)
        since.add(key)
    return {"reads": reads,
            "repeat_share": repeats / reads if reads else 0.0,
            "repeat_since_ingest_share": repeats_since / reads if reads else 0.0}



@dataclass
class Measured:
    spec: ServeSpec
    phases: Phases
    verdicts: Dict[int, str]
    exact_share: float

    @property
    def counted(self) -> List[client.Sample]:
        return [s for piece in self.phases.slices for s in piece.samples]

    @property
    def all_samples(self) -> List[client.Sample]:
        return self.phases.warmup + self.counted

    def of(self, verdict: str, samples: Sequence[client.Sample]) -> List[client.Sample]:
        return [sample for sample in samples if self.verdicts[id(sample)] == verdict]

    def reads(self) -> List[client.Sample]:
        return [s for s in self.counted if s.op != "triples"]

    def ingests(self) -> List[client.Sample]:
        return [s for s in self.counted if s.op == "triples"]

    def latency_ms(self, q: float) -> float:
        """Median over the slices of each slice's read-latency percentile."""
        return statistics.median([
            common.percentile([s.latency * 1e3 for s in piece.samples if s.op != "triples"], q)
            for piece in self.phases.slices
        ])

    def cpu_ms_per_op(self) -> float:
        """Median over the slices of server CPU per request."""
        return statistics.median([
            piece.cpu_seconds * 1e3 / len(piece.samples) for piece in self.phases.slices
        ])


def measure(spec: ServeSpec, store: str, checkpoint: str, factory: RequestFactory,
            seconds: float, spawns: int, spans: Optional[str] = None) -> Measured:
    """One server's set-up + phases, every answer checked against a fresh oracle.

    The oracle exists only before and after the server runs (see
    :class:`RequestFactory` on why the store must not stay mapped here).
    """
    probe = {"op": "ppr", "graph": GRAPH,
             "target": int(factory.rng.integers(factory.num_nodes)), "k": 16}
    oracle = Oracle(store, checkpoint, compact_every=spec.compact_every)
    probe_body = (oracle.ndjson_line(probe) if spec.protocol == "tcp"
                  else oracle.http_body(probe))
    oracle.close()
    phases = drive(spec, store, checkpoint, factory, probe, probe_body, seconds, spawns, spans)
    oracle = Oracle(store, checkpoint, compact_every=spec.compact_every)
    try:
        checker = Checker(oracle, spec.protocol)
        verdicts = checker.check(
            phases.warmup + [s for piece in phases.slices for s in piece.samples])
    finally:
        oracle.close()
    return Measured(spec, phases, verdicts, checker.exact_share)


def _summary(m: Measured) -> Tuple[dict, dict]:
    """(correct/attempted/failed, diagnostics) of one measured server."""
    wrong = m.of("wrong", m.all_samples)
    counted = m.counted
    status = {
        "correct": not wrong,
        "attempted": len(counted),
        "failed": len(counted) - len(m.of("ok", counted)),
    }
    ingest_ms = [s.latency * 1e3 for s in m.ingests()]
    diagnostics = {
        "open_loop": {"rate": m.spec.rate, "slo_ms": m.spec.slo_ms,
                      "reads": len(m.reads()), "ingests": len(ingest_ms),
                      "generator_lag": client.lag_summary(counted)},
        "setup_samples_s": m.phases.setup,
        "read_p50_ms": m.latency_ms(0.50),
        "read_p95_ms": m.latency_ms(0.95),
        "server_pss_mb": m.phases.pss_mb,
        "exact_check_share": m.exact_share,
        "stream": repeat_shares(m.all_samples),
        "open_p50_ms_by_op": {
            op: common.percentile([s.latency * 1e3 for s in counted if s.op == op], 0.5)
            for op in sorted({s.op for s in counted})
        },
        "slices": [
            {"p50_ms": common.percentile(ms, 0.5), "p95_ms": common.percentile(ms, 0.95),
             "cpu_ms_per_op": piece.cpu_seconds * 1e3 / len(piece.samples)}
            for piece in m.phases.slices
            for ms in [[s.latency * 1e3 for s in piece.samples if s.op != "triples"]]
        ],
        "verdicts": {v: len(m.of(v, counted)) for v in ("ok", "refused", "wrong")},
        "wrong": [(s.request, s.body[:300].decode("utf-8", "replace")) for s in wrong[:3]],
    }
    if ingest_ms:
        diagnostics["ingest_ms"] = {"p50": common.percentile(ingest_ms, 0.5),
                                    "p95": common.percentile(ingest_ms, 0.95)}
    return status, diagnostics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SPECS[workload]
    store, checkpoint = prepare()
    oracle = Oracle(store, checkpoint, compact_every=spec.compact_every)
    try:
        factory = RequestFactory(oracle, spec, seed)
    finally:
        oracle.close()
    if trace:
        return traced_run(spec, store, checkpoint, factory, seconds)
    m = measure(spec, store, checkpoint, factory, seconds, SETUP_SPAWNS)
    reads = m.reads()
    within = [s for s in m.of("ok", reads) if s.latency * 1e3 <= spec.slo_ms]
    metrics = common.end_to_end({
        "setup_s": statistics.median(m.phases.setup),
        "slo_share": len(within) / len(reads),
        "ok_share": len(m.of("ok", m.counted)) / len(m.counted),
        "cpu_ms_per_op": m.cpu_ms_per_op(),
    })
    status, diagnostics = _summary(m)
    return {**status, "metrics": metrics,
            "diagnostics": {"workload": workload, "seed": seed, **diagnostics}}


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return float(after) - float(before)


def _share(hits: float, misses: float) -> Optional[float]:
    return hits / (hits + misses) if hits + misses else None


def traced_run(spec: ServeSpec, store: str, checkpoint: str, factory: RequestFactory,
               seconds: float) -> dict:
    """Half the time untraced, half under the span launcher; per-layer metrics."""
    import shutil

    import tracing

    plain = measure(spec, store, checkpoint, factory, seconds / 2, spawns=1)
    spans_path = os.path.join(common.OUT, f"spans-{spec.name}.json")
    for stale in (spans_path, spans_path + ".workers"):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
        elif os.path.exists(stale):
            os.remove(stale)
    traced = measure(spec, store, checkpoint, factory, seconds / 2, spawns=1,
                     spans=spans_path)
    with open(spans_path) as handle:
        dumps = [json.load(handle)]
    # Pool workers dump their own spans (and their live caches) beside it.
    workers = tracing.worker_dumps(spans_path + ".workers")
    dumps += workers
    values: Dict[str, Optional[float]] = dict(
        tracing.time_metrics(*[dump["spans"] for dump in dumps]))
    for name in ("serve.coalesce.wait_ms", "sampling.ppr.batch_targets",
                 "serve.transport.frame_bytes"):
        values[name] = tracing.counter_median(dumps, name)
    before, after = traced.phases.metrics_before, traced.phases.metrics_after
    graph_after, graph_before = after["graphs"][GRAPH], before["graphs"][GRAPH]
    batches = _delta(after, before, "coalescing", "batches")
    requests = _delta(graph_after, graph_before, "endpoint", "requests")
    values.update({
        "serve.coalesce.batch_occupancy":
            _delta(after, before, "coalescing", "batched_items") / batches if batches else None,
        "serve.service.queue_depth_peak": after["admission"]["queue_depth_peak"],
        "serve.service.rejected": _delta(after, before, "admission", "rejected"),
        "serve.registry.predict_cache_hit_share": _share(
            _delta(after, before, "predict", "cache", "hits"),
            _delta(after, before, "predict", "cache", "misses")),
        "kg.cache.builds": graph_after["artifact_cache"]["builds"],
        "sparql.endpoint.rows_returned":
            _delta(graph_after, graph_before, "endpoint", "rows_returned") / requests
            if requests else None,
        "sparql.endpoint.bytes_shipped":
            _delta(graph_after, graph_before, "endpoint", "bytes_shipped") / requests
            if requests else None,
        f"serve.{spec.protocol}.response_bytes_per_op":
            statistics.median([len(s.body) for s in traced.counted]),
        "trace.overhead_ratio": traced.latency_ms(0.5) / plain.latency_ms(0.5),
        "process.memory_mb": plain.phases.pss_mb,
    })
    ingest_ms = [s.latency * 1e3 for s in traced.ingests()]
    if ingest_ms:
        values["serve.http.ingest_p50_ms"] = common.percentile(ingest_ms, 0.50)
        values["serve.http.ingest_p95_ms"] = common.percentile(ingest_ms, 0.95)
    if spec.workers:
        # The serving caches are the workers' (the parent's sit idle).  A
        # worker's counters cover its whole life: set-up probe, warm-up
        # and the traced window.
        lives = [live for dump in workers for live in dump["live"]]
        extends = sum(len(tracing.self_times(dump["spans"]).get(name, []))
                      for dump in workers
                      for name in ("kg.epoch.extend_ms", "kg.epoch.compact_ms"))
        for cache in ("ppr", "ego", "paths"):
            values[f"kg.epoch.{cache}_cache.hit_share"] = _share(
                sum(live[f"{cache}_cache"]["hits"] for live in lives),
                sum(live[f"{cache}_cache"]["misses"] for live in lives))
        if extends:
            values["kg.epoch.invalidated_per_ingest"] = sum(
                live[f"{cache}_cache"]["invalidated"]
                for live in lives for cache in ("ppr", "ego", "paths")) / extends
    else:
        live_after, live_before = graph_after["live"], graph_before["live"]
        for cache in ("ppr", "ego", "paths"):
            values[f"kg.epoch.{cache}_cache.hit_share"] = _share(
                _delta(live_after, live_before, f"{cache}_cache", "hits"),
                _delta(live_after, live_before, f"{cache}_cache", "misses"))
        ingests = len(traced.ingests())
        if ingests:
            values["kg.epoch.invalidated_per_ingest"] = sum(
                _delta(live_after, live_before, f"{cache}_cache", "invalidated")
                for cache in ("ppr", "ego", "paths")) / ingests
    status_plain, _ = _summary(plain)
    status, diagnostics = _summary(traced)
    return {
        "correct": status["correct"] and status_plain["correct"],
        "attempted": status["attempted"] + status_plain["attempted"],
        "failed": status["failed"] + status_plain["failed"],
        "metrics": tracing.report(values),
        "diagnostics": {"workload": spec.name, "layers": tracing.layer_table(values),
                        "worker_dumps": len(workers), "traced": diagnostics,
                        "untraced_p50_ms": plain.latency_ms(0.5)},
    }
