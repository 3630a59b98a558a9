"""High-level TOSG extraction façade.

``extract_tosg`` is the one call a downstream user needs: pick a method
(``"sparql"`` — the paper's default — ``"brw"`` or ``"ibs"``), a pattern
(d, h), and get back the TOSG **with the task already remapped** into the
subgraph's id space, plus extraction timing for the cost breakdowns of
Table IV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.kg.graph import KnowledgeGraph, SubgraphMapping
from repro.core.brw import BiasedRandomWalkSampler
from repro.core.ibs import InfluenceBasedSampler
from repro.core.pattern import GraphPattern
from repro.core.sparql_method import SparqlTOSGExtractor
from repro.core.tasks import GNNTask, remap_task
from repro.sparql.endpoint import SparqlEndpoint

_METHODS = ("sparql", "brw", "ibs")


@dataclass
class TOSGResult:
    """Everything produced by one TOSG extraction."""

    method: str
    subgraph: KnowledgeGraph
    mapping: SubgraphMapping
    task: GNNTask  # remapped into `subgraph` ids
    extraction_seconds: float
    source_kg_name: str
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def reduction_ratio(self) -> float:
        """KG′ edges / FG edges — how much structure the TOSG retains."""
        full_edges = self.params.get("source_num_edges")
        if not full_edges:
            return float("nan")
        return self.subgraph.num_edges / full_edges


def extract_tosg(
    kg: KnowledgeGraph,
    task: GNNTask,
    method: str = "sparql",
    direction: int = 1,
    hops: int = 1,
    rng: Optional[np.random.Generator] = None,
    endpoint: Optional[SparqlEndpoint] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    walk_length: Optional[int] = None,
    top_k: int = 16,
    alpha: float = 0.25,
    eps: float = 2e-4,
) -> TOSGResult:
    """Extract a task-oriented subgraph of ``kg`` for ``task``.

    Parameters
    ----------
    method:
        ``"sparql"`` (Algorithm 3, the paper's default), ``"brw"``
        (Algorithm 1) or ``"ibs"`` (Algorithm 2).
    direction / hops:
        The generic graph pattern's (d, h) — SPARQL method only.
    walk_length:
        BRW walk length ``h`` (defaults to 3, the paper's setting).
    batch_size:
        SPARQL page size, or the bs target-batch for BRW/IBS (defaults:
        100 000 rows / all targets).
    workers:
        SPARQL request-handler threads (default 4); the other methods
        run vectorized kernels and take no threads.
    rng:
        Required for the stochastic methods (BRW, IBS target choice).

    Returns
    -------
    :class:`TOSGResult` with the subgraph, mapping, remapped task and the
    extraction wall time.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    start = time.perf_counter()
    params: Dict[str, Any] = {
        "source_num_edges": kg.num_edges,
        "source_num_nodes": kg.num_nodes,
    }

    if method == "sparql":
        pattern = GraphPattern(direction=direction, hops=hops)
        endpoint = endpoint if endpoint is not None else SparqlEndpoint(kg)
        extractor = SparqlTOSGExtractor(
            endpoint,
            batch_size=batch_size if batch_size is not None else 100_000,
            workers=workers if workers is not None else 4,
        )
        subgraph, mapping, stats = extractor.extract(task, pattern)
        params.update(
            pattern=pattern.label,
            subqueries=stats.subqueries,
            pages=stats.pages,
            rows_fetched=stats.rows_fetched,
            triples_after_dedup=stats.triples_after_dedup,
        )
        method_label = f"KG-TOSA{pattern.label}"
    elif method == "brw":
        if rng is None:
            rng = np.random.default_rng(0)
        sampler = BiasedRandomWalkSampler(
            kg,
            walk_length=walk_length if walk_length is not None else 3,
            batch_size=batch_size if batch_size is not None else max(len(task.target_nodes), 1),
        )
        sampled = sampler.sample(task, rng)
        subgraph, mapping = sampled.subgraph, sampled.mapping
        params.update(walk_length=sampler.walk_length, batch_size=sampler.batch_size)
        method_label = "BRW"
    else:  # ibs
        if rng is None:
            rng = np.random.default_rng(0)
        sampler = InfluenceBasedSampler(
            kg,
            top_k=top_k,
            batch_size=batch_size if batch_size is not None else max(len(task.target_nodes), 1),
            alpha=alpha,
            eps=eps,
        )
        sampled = sampler.sample(task, rng)
        subgraph, mapping = sampled.subgraph, sampled.mapping
        params.update(top_k=top_k, alpha=alpha, eps=eps, batch_size=sampler.batch_size)
        method_label = "IBS"

    remapped = remap_task(task, subgraph, mapping)
    elapsed = time.perf_counter() - start
    return TOSGResult(
        method=method_label,
        subgraph=subgraph,
        mapping=mapping,
        task=remapped,
        extraction_seconds=elapsed,
        source_kg_name=kg.name,
        params=params,
    )
