"""One entry point per table / figure of the paper.

Every function builds the relevant synthetic workload, runs the relevant
methods on the full graph (FG) and/or extracted TOSGs, and returns a
structured result the ``benchmarks/`` modules print and sanity-check.

Absolute numbers differ from the paper (synthetic KGs, numpy substrate);
the assertions in ``benchmarks/`` check the paper's *shapes*: who wins,
what gets reduced, where OOM happens, how convergence compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core import extract_tosg
from repro.core.quality import QualityReport, evaluate_quality
from repro.core.tasks import remap_task
from repro.datasets import catalog
from repro.kg.cache import artifacts_for
from repro.kg.stats import compute_statistics
from repro.models import ModelConfig
from repro.sampling.urw import UniformRandomWalkSampler
from repro.training import TrainConfig
from repro.bench.harness import MethodRun, run_lp_method, run_nc_method

# Bench-default hyper-parameters (paper settings scaled down; Section V-A3).
NC_MODEL_CONFIG = ModelConfig(hidden_dim=24, num_layers=2, dropout=0.1, lr=0.02, batch_size=256)
NC_TRAIN_CONFIG = TrainConfig(epochs=10, eval_every=2)
LP_MODEL_CONFIG = ModelConfig(
    hidden_dim=32, num_layers=1, dropout=0.0, lr=0.03, batch_size=512, margin=2.0
)
LP_TRAIN_CONFIG = TrainConfig(epochs=40, eval_every=10, num_eval_negatives=40)


@dataclass
class ExperimentResult:
    """A named collection of method runs / reports, per figure or table."""

    name: str
    sections: Dict[str, List[MethodRun]] = field(default_factory=dict)
    quality: Dict[str, List[QualityReport]] = field(default_factory=dict)
    tables: Dict[str, List[List[str]]] = field(default_factory=dict)
    notes: str = ""


def _extract(kg, task, method: str, direction: int = 1, hops: int = 1, seed: int = 0, **kw):
    return extract_tosg(
        kg, task, method=method, direction=direction, hops=hops,
        rng=np.random.default_rng(seed), **kw,
    )


# ---------------------------------------------------------------------------
# Figure 1 — motivation: FG vs handcrafted OGBN-MAG vs KG-TOSA d1h1
# ---------------------------------------------------------------------------


def fig1_motivation(scale="tiny", seed: int = 7) -> ExperimentResult:
    """PV on MAG with ShaDowSAINT and SeHGNN on three graphs.

    Paper shape: the handcrafted subset cuts time/memory but trades
    accuracy; KG-TOSA cuts time/memory while *improving* accuracy.
    """
    bundle = catalog.mag(scale, seed)
    task = bundle.task("PV")
    handcrafted = catalog.ogbn_mag_subset(bundle)
    tosa = _extract(bundle.kg, task, "sparql", direction=1, hops=1)

    graphs = [
        ("FG", bundle.kg, task, 0.0),
        ("OGBN-MAG", handcrafted.kg, handcrafted.task("PV"), 0.0),
        ("KG-TOSAd1h1", tosa.subgraph, tosa.task, tosa.extraction_seconds),
    ]
    result = ExperimentResult(name="fig1_motivation")
    for method in ("ShaDowSAINT", "SeHGNN"):
        runs = [
            run_nc_method(
                method, graph, graph_task, NC_MODEL_CONFIG, NC_TRAIN_CONFIG,
                graph_label=label, preprocess_seconds=pre,
            )
            for label, graph, graph_task, pre in graphs
        ]
        result.sections[method] = runs
    return result


# ---------------------------------------------------------------------------
# Figures 2 & 5 / Table III — subgraph quality of the samplers
# ---------------------------------------------------------------------------

_QUALITY_TASKS: List[Tuple[str, str, str]] = [
    # (section label, dataset, task)
    ("CG/YAGO", "yago4", "CG"),
    ("PC/YAGO", "yago4", "PC"),
    ("PV/DBLP", "dblp", "PV"),
    ("PV/MAG", "mag", "PV"),
]


def _dataset(name: str, scale, seed: int) -> catalog.DatasetBundle:
    maker = getattr(catalog, name)
    return maker(scale, seed)


def _urw_quality(
    bundle, task, seed: int, walk_length: int = 2, num_roots: int = 20
) -> QualityReport:
    sampler = UniformRandomWalkSampler(bundle.kg, walk_length=walk_length, num_roots=num_roots)
    sampled = sampler.sample(np.random.default_rng(seed))
    remapped = remap_task(task, sampled.subgraph, sampled.mapping)
    return evaluate_quality(sampled.subgraph, remapped, sampler="URW")


def fig2_urw_pathology(scale="small", seed: int = 7, num_roots: int = 20) -> ExperimentResult:
    """URW samples: low target ratio + disconnected vertices (Figure 2)."""
    result = ExperimentResult(name="fig2_urw_pathology")
    for label, dataset, task_name in _QUALITY_TASKS[:1] + _QUALITY_TASKS[2:]:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        result.quality[label] = [_urw_quality(bundle, task, seed, num_roots=num_roots)]
    return result


def fig5_brw_quality(scale="small", seed: int = 7) -> ExperimentResult:
    """BRW samples: high target ratio, everything reachable (Figure 5)."""
    result = ExperimentResult(name="fig5_brw_quality")
    for label, dataset, task_name in _QUALITY_TASKS[:1] + _QUALITY_TASKS[2:]:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        tosg = _extract(bundle.kg, task, "brw", seed=seed, batch_size=20, walk_length=2)
        result.quality[label] = [
            evaluate_quality(tosg.subgraph, tosg.task, sampler="BRW"),
            _urw_quality(bundle, task, seed),
        ]
    return result


def table3_subgraph_quality(
    scale="small", seed: int = 7, train_epochs: int = 6
) -> ExperimentResult:
    """URW vs BRW vs IBS vs KG-TOSA d1h1 quality indicators + accuracy."""
    result = ExperimentResult(name="table3_subgraph_quality")
    train_config = TrainConfig(epochs=train_epochs, eval_every=max(train_epochs // 2, 1))
    for label, dataset, task_name in _QUALITY_TASKS:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        reports: List[QualityReport] = []
        runs: List[MethodRun] = []

        sampler = UniformRandomWalkSampler(bundle.kg, walk_length=3, num_roots=64)
        sampled = sampler.sample(np.random.default_rng(seed))
        urw_task = remap_task(task, sampled.subgraph, sampled.mapping)
        reports.append(evaluate_quality(sampled.subgraph, urw_task, sampler="URW"))
        runs.append(
            run_nc_method(
                "GraphSAINT", sampled.subgraph, urw_task, NC_MODEL_CONFIG,
                train_config, graph_label="URW",
            )
        )

        for method, kwargs in (
            ("brw", {"walk_length": 3, "batch_size": 20000}),
            ("ibs", {"top_k": 16, "eps": 2e-3}),
            ("sparql", {"direction": 1, "hops": 1}),
        ):
            tosg = _extract(bundle.kg, task, method, seed=seed, **kwargs)
            reports.append(evaluate_quality(tosg.subgraph, tosg.task, sampler=tosg.method))
            runs.append(
                run_nc_method(
                    "GraphSAINT", tosg.subgraph, tosg.task, NC_MODEL_CONFIG,
                    train_config, graph_label=tosg.method,
                    preprocess_seconds=tosg.extraction_seconds,
                )
            )
        result.quality[label] = reports
        result.sections[label] = runs
    return result


# ---------------------------------------------------------------------------
# Figure 6 — NC tasks × methods × {FG, KG-TOSA d1h1}
# ---------------------------------------------------------------------------

_FIG6_TASKS = [("PV/MAG", "mag", "PV"), ("PV/DBLP", "dblp", "PV"), ("PC/YAGO", "yago4", "PC")]


def fig6_nc_tasks(
    scale="tiny",
    seed: int = 7,
    methods: Tuple[str, ...] = ("RGCN", "GraphSAINT", "ShaDowSAINT", "SeHGNN"),
) -> ExperimentResult:
    """The headline NC comparison (Figure 6)."""
    result = ExperimentResult(name="fig6_nc_tasks")
    for label, dataset, task_name in _FIG6_TASKS:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        tosa = _extract(bundle.kg, task, "sparql", direction=1, hops=1)
        runs: List[MethodRun] = []
        for method in methods:
            runs.append(
                run_nc_method(
                    method, bundle.kg, task, NC_MODEL_CONFIG, NC_TRAIN_CONFIG,
                    graph_label="FG",
                )
            )
            runs.append(
                run_nc_method(
                    method, tosa.subgraph, tosa.task, NC_MODEL_CONFIG, NC_TRAIN_CONFIG,
                    graph_label="KG-TOSAd1h1", preprocess_seconds=tosa.extraction_seconds,
                )
            )
        result.sections[label] = runs
    return result


# ---------------------------------------------------------------------------
# Figure 7 — LP tasks × methods × {FG, KG-TOSA d2h1}, with OOM semantics
# ---------------------------------------------------------------------------


def fig7_lp_tasks(scale="small", seed: int = 7) -> ExperimentResult:
    """LP comparison with the paper's resource-exhaustion shape.

    Budgets mirror the paper's VM limits proportionally: on the DBLP task
    full-batch RGCN exceeds the budget (the paper's 3 TB OOM) while KG′
    fits easily; LHGNN exceeds it on both larger KGs ("did not finish").
    """
    workloads = [
        # (label, dataset, task, methods, budget MB)
        ("CA/YAGO3-10", "yago3_10", "CA", ("RGCN", "MorsE", "LHGNN"), None),
        ("PO/wikikg2", "wikikg2", "PO", ("RGCN", "MorsE", "LHGNN"), 64.0),
        ("AA/DBLP", "dblp", "AA", ("RGCN", "MorsE", "LHGNN"), 12.0),
    ]
    result = ExperimentResult(name="fig7_lp_tasks")
    for label, dataset, task_name, methods, budget_mb in workloads:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        tosa = _extract(bundle.kg, task, "sparql", direction=2, hops=1)
        budget = int(budget_mb * 1e6) if budget_mb is not None else None
        runs: List[MethodRun] = []
        for method in methods:
            runs.append(
                run_lp_method(
                    method, bundle.kg, task, LP_MODEL_CONFIG, LP_TRAIN_CONFIG,
                    graph_label="FG", budget_bytes=budget,
                )
            )
            runs.append(
                run_lp_method(
                    method, tosa.subgraph, tosa.task, LP_MODEL_CONFIG, LP_TRAIN_CONFIG,
                    graph_label="KG-TOSAd2h1", preprocess_seconds=tosa.extraction_seconds,
                    budget_bytes=budget,
                )
            )
        result.sections[label] = runs
    return result


# ---------------------------------------------------------------------------
# Figure 8 — extraction methods: BRW vs IBS vs the four (d, h) variations
# ---------------------------------------------------------------------------

_FIG8_TASKS = [("PV/MAG", "mag", "PV"), ("PV/DBLP", "dblp", "PV"), ("PC/YAGO", "yago4", "PC")]


def fig8_extraction_methods(
    scale="small", seed: int = 7, train_epochs: int = 6
) -> ExperimentResult:
    """Accuracy / total time / memory per extraction method (Figure 8)."""
    variants = [
        ("brw", {"walk_length": 3, "batch_size": 20000}),
        ("ibs", {"top_k": 16, "eps": 2e-3}),
        ("sparql", {"direction": 1, "hops": 1}),
        ("sparql", {"direction": 2, "hops": 1}),
        ("sparql", {"direction": 1, "hops": 2}),
        ("sparql", {"direction": 2, "hops": 2}),
    ]
    train_config = TrainConfig(epochs=train_epochs, eval_every=max(train_epochs // 2, 1))
    result = ExperimentResult(name="fig8_extraction_methods")
    for label, dataset, task_name in _FIG8_TASKS:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        runs: List[MethodRun] = []
        for method, kwargs in variants:
            tosg = _extract(bundle.kg, task, method, seed=seed, **kwargs)
            runs.append(
                run_nc_method(
                    "GraphSAINT", tosg.subgraph, tosg.task, NC_MODEL_CONFIG, train_config,
                    graph_label=tosg.method, preprocess_seconds=tosg.extraction_seconds,
                )
            )
        result.sections[label] = runs
    return result


# ---------------------------------------------------------------------------
# Figure 9 — convergence traces, FG vs KG′, six NC tasks
# ---------------------------------------------------------------------------

_ALL_NC_TASKS = [
    ("PV/MAG", "mag", "PV"),
    ("PD/MAG", "mag", "PD"),
    ("PV/DBLP", "dblp", "PV"),
    ("AC/DBLP", "dblp", "AC"),
    ("PC/YAGO", "yago4", "PC"),
    ("CG/YAGO", "yago4", "CG"),
]


def fig9_convergence(scale="small", seed: int = 7, epochs: int = 10) -> ExperimentResult:
    """GraphSAINT accuracy-vs-time traces on all six NC tasks."""
    train_config = TrainConfig(epochs=epochs, eval_every=1)
    result = ExperimentResult(name="fig9_convergence")
    for label, dataset, task_name in _ALL_NC_TASKS:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        tosa = _extract(bundle.kg, task, "sparql", direction=1, hops=1)
        runs = [
            run_nc_method(
                "GraphSAINT", bundle.kg, task, NC_MODEL_CONFIG, train_config,
                graph_label="FG",
            ),
            run_nc_method(
                "GraphSAINT", tosa.subgraph, tosa.task, NC_MODEL_CONFIG, train_config,
                graph_label="KG-TOSAd1h1", preprocess_seconds=tosa.extraction_seconds,
            ),
        ]
        result.sections[label] = runs
    return result


# ---------------------------------------------------------------------------
# Table I / Table II — benchmark statistics and task summaries
# ---------------------------------------------------------------------------


def table1_benchmark_stats(scale="small", seed: int = 7) -> ExperimentResult:
    """Table I: per-KG node/edge/type counts."""
    result = ExperimentResult(name="table1_benchmark_stats")
    rows = []
    for name, bundle in catalog.benchmark_kgs(scale, seed).items():
        stats = compute_statistics(bundle.kg)
        rows.append(stats.as_row())
    result.tables["table1"] = rows
    return result


def table2_task_summary(scale="small", seed: int = 7) -> ExperimentResult:
    """Table II: task type, KG, split schema/ratio, metric."""
    result = ExperimentResult(name="table2_task_summary")
    rows: List[List[str]] = []
    for name, bundle in catalog.benchmark_kgs(scale, seed).items():
        for task_name, task in sorted(bundle.tasks.items()):
            if task.task_type not in ("NC", "LP"):
                continue  # extensions (multi-label PK) are not Table II rows
            train, valid, test = task.split.ratios()
            rows.append(
                [
                    task.task_type,
                    task_name,
                    bundle.kg.name,
                    task.split.schema,
                    f"{train * 100:.0f}/{valid * 100:.0f}/{test * 100:.0f}",
                    task.metric,
                ]
            )
    result.tables["table2"] = rows
    return result


# ---------------------------------------------------------------------------
# Table IV — cost breakdown: extraction / transformation / training
# ---------------------------------------------------------------------------


def table4_cost_breakdown(scale="small", seed: int = 7, epochs: int = 8) -> ExperimentResult:
    """FG-vs-KG′ pipeline cost breakdown using GraphSAINT (Table IV)."""
    train_config = TrainConfig(epochs=epochs, eval_every=2)
    result = ExperimentResult(name="table4_cost_breakdown")
    rows: List[List[str]] = []
    for label, dataset, task_name in _ALL_NC_TASKS:
        bundle = _dataset(dataset, scale, seed)
        task = bundle.task(task_name)
        tosa = _extract(bundle.kg, task, "sparql", direction=1, hops=1)
        for graph_label, graph, graph_task, extract_seconds in (
            ("FG", bundle.kg, task, 0.0),
            ("KG'", tosa.subgraph, tosa.task, tosa.extraction_seconds),
        ):
            # Shared with the model construction below via the artifact cache.
            adjacency = artifacts_for(graph).hetero()
            run = run_nc_method(
                "GraphSAINT", graph, graph_task, NC_MODEL_CONFIG, train_config,
                graph_label=graph_label, preprocess_seconds=extract_seconds,
            )
            rows.append(
                [
                    label,
                    graph_label,
                    f"{extract_seconds:.2f}",
                    f"{adjacency.transform_seconds:.2f}",
                    f"{run.train_seconds:.2f}",
                    f"{run.metric:.3f}",
                    str(run.num_parameters),
                    f"{run.inference_seconds * 1e3:.0f}",
                    f"{run.memory_mb:.1f}",
                ]
            )
            result.sections.setdefault(label, []).append(run)
    result.tables["table4"] = rows
    return result
