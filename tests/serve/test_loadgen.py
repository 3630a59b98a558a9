"""The closed-loop load generator: every mode answers like serial.

One parametrized test drives each read op through ``compare_serving``
against the serial baseline, in every candidate mode that can serve it:
in-process coalescing, the HTTP front end (for the ops with an
``/<op>`` route) and a one-worker pool.  ``compare_serving`` raises on
the first request position whose answer diverges.
"""

import numpy as np
import pytest

from repro.core.tasks import LinkPredictionTask, Split
from repro.models import ModelConfig, RGCNLinkPredictor, RGCNNodeClassifier
from repro.nn.checkpoint import save_checkpoint
from repro.serve import WorkerPool, compare_serving, http

CONFIG = ModelConfig(hidden_dim=16, num_layers=2, dropout=0.0, lr=0.05, batch_size=16, seed=3)

QUERIES = [
    "select ?s ?p ?o where { ?s ?p ?o }",
    "select ?s ?p ?o where { ?s ?p ?o } limit 5 offset 2",
    "select ?p ?a where { ?p <hasAuthor> ?a }",
]

LOAD_OPS = ("ppr", "ego", "paths", "predict", "sparql", "count")
CASES = (
    [(op, "coalesced") for op in LOAD_OPS]
    + [(op, "http") for op in LOAD_OPS if f"/{op}" in http._OP_ROUTES]
    + [(op, "pooled") for op in LOAD_OPS]
)


def _trained(model):
    rng = np.random.default_rng(0)
    for _ in range(3):
        model.train_epoch(rng)
    return model


def _lp_task(kg):
    papers = np.asarray([kg.node_vocab.id(f"p{i}") for i in range(6)])
    authors = np.asarray([kg.node_vocab.id(f"a{i}") for i in range(3)])
    return LinkPredictionTask(
        name="HA",
        predicate=kg.relation_vocab.id("hasAuthor"),
        head_class=kg.class_vocab.id("Paper"),
        tail_class=kg.class_vocab.id("Author"),
        edges=np.stack([papers, np.repeat(authors, 2)], axis=1),
        split=Split(np.arange(4), np.asarray([4]), np.asarray([5])),
    )


def _requests(op, kg, task):
    targets = [int(t) for t in task.target_nodes]
    if op == "ppr":
        return [{"op": "ppr", "target": t, "k": 8} for t in targets * 3]
    if op == "ego":
        return [
            {"op": "ego", "root": root, "depth": 2, "fanout": 2, "salt": salt}
            for root in range(kg.num_nodes) for salt in (0, 1)
        ]
    if op == "paths":
        return [
            {"op": "paths", "src": src, "dst": dst, "max_hops": 3, "max_paths": 4}
            for src in targets for dst in targets
        ]
    if op == "predict":
        heads = [int(h) for h in _lp_task(kg).edges[:, 0]]
        return (
            [{"op": "predict", "task": "PV", "node": t, "k": 3} for t in targets * 2]
            + [{"op": "predict", "task": "HA", "head": h, "k": 3, "candidates": 4}
               for h in heads * 2]
        )
    return [{"op": op, "query": query} for query in QUERIES * 3]


@pytest.fixture
def checkpoints(toy_kg, toy_task, tmp_path):
    nc = str(tmp_path / "nc.ckpt")
    save_checkpoint(_trained(RGCNNodeClassifier(toy_kg, toy_task, CONFIG)), nc)
    lp = str(tmp_path / "lp.ckpt")
    save_checkpoint(_trained(RGCNLinkPredictor(toy_kg, _lp_task(toy_kg), CONFIG)), lp)
    return [nc, lp]


@pytest.mark.parametrize("op,mode", CASES)
def test_compare_serving_matches_serial(toy_kg, toy_task, checkpoints, op, mode):
    requests = _requests(op, toy_kg, toy_task)
    common = {"concurrency": 4, "checkpoints": checkpoints if op == "predict" else ()}
    if mode == "pooled":
        with WorkerPool(workers=1) as pool:
            serial, candidate, speedup = compare_serving(
                toy_kg, requests, {"coalesce": False}, {"pool": pool}, **common
            )
    else:
        serial, candidate, speedup = compare_serving(
            toy_kg, requests, {"coalesce": False}, {"http": mode == "http"}, **common
        )
    prefix = "" if op == "ppr" else f"{op}-"
    assert (serial.mode, candidate.mode) == (f"{prefix}serial", f"{prefix}{mode}")
    assert len(candidate.results) == candidate.requests == len(requests)
    assert serial.rejected == candidate.rejected == 0
    assert speedup > 0
