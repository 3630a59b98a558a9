"""Measurement plumbing shared by all benchmark experiments.

``run_method`` (also named ``run_nc_method`` / ``run_lp_method``) wraps
(model construction + training + evaluation) into a :class:`MethodRun`
record carrying every quantity the paper reports, converting
modeled-memory budget violations into the ``oom``/``dnf`` outcomes of
Figure 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import LinkPredictionTask, NodeClassificationTask
from repro.models import ARCHITECTURES, ModelConfig, architectures
from repro.training import (
    OutOfModeledMemory,
    ResourceMeter,
    TrainConfig,
    train_link_predictor,
    train_node_classifier,
)
from repro.training.trainer import TracePoint, metric_name

#: Views of :data:`repro.models.ARCHITECTURES`, one per task type.
NC_MODELS: Dict[str, Type] = architectures("NC")
LP_MODELS: Dict[str, Type] = architectures("LP")

_TRAINERS = {"NC": train_node_classifier, "LP": train_link_predictor}


@dataclass
class MethodRun:
    """One (method × graph) measurement — a bar in the paper's figures."""

    method: str
    graph_label: str
    task_name: str
    metric: float = 0.0
    metric_name: str = "accuracy"
    train_seconds: float = 0.0
    preprocess_seconds: float = 0.0
    inference_seconds: float = 0.0
    memory_mb: float = 0.0
    num_parameters: int = 0
    epochs: int = 0
    oom: bool = False
    trace: List[TracePoint] = field(default_factory=list)
    # The trained model itself (None after an OOM) — carried so callers
    # can persist it (`repro train --save-checkpoint`); never rendered.
    model: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def total_seconds(self) -> float:
        """Extraction/transformation + training (Figure 8's time bars)."""
        return self.preprocess_seconds + self.train_seconds

    def cells(self) -> List[str]:
        if self.oom:
            return [
                self.method,
                self.graph_label,
                "OOM",
                "-",
                f"{self.memory_mb:.1f}*",
                "-",
                "-",
            ]
        return [
            self.method,
            self.graph_label,
            f"{self.metric:.3f}",
            f"{self.total_seconds:.1f}s",
            f"{self.memory_mb:.1f}",
            f"{self.num_parameters}",
            f"{self.inference_seconds * 1e3:.0f}ms",
        ]


RUN_HEADERS = ["method", "graph", "metric", "time", "mem(MB)", "#params", "infer"]


def run_method(
    method: str,
    kg: KnowledgeGraph,
    task: Union[NodeClassificationTask, LinkPredictionTask],
    model_config: ModelConfig,
    train_config: TrainConfig,
    graph_label: str,
    preprocess_seconds: float = 0.0,
    budget_bytes: Optional[int] = None,
    **model_kwargs,
) -> MethodRun:
    """Construct, train and measure one method on one graph.

    ``task``'s type (NC or LP) picks the architecture named ``method`` and
    the training loop.
    """
    meter = ResourceMeter(budget_bytes=budget_bytes)
    model_cls = ARCHITECTURES[(task.task_type, method)]
    try:
        model = model_cls(kg, task, model_config, meter=meter, **model_kwargs)
        result = _TRAINERS[task.task_type](model, task, train_config, meter)
    except OutOfModeledMemory as oom:
        return MethodRun(
            method=method,
            graph_label=graph_label,
            task_name=task.name,
            preprocess_seconds=preprocess_seconds,
            memory_mb=oom.requested / 1e6,
            metric_name=metric_name(task, train_config),
            oom=True,
        )
    return MethodRun(
        method=method,
        graph_label=graph_label,
        task_name=task.name,
        metric=result.test_metric,
        metric_name=result.metric_name,
        train_seconds=result.train_seconds,
        preprocess_seconds=preprocess_seconds,
        inference_seconds=result.inference_seconds,
        memory_mb=meter.peak_bytes / 1e6,
        num_parameters=result.num_parameters,
        epochs=result.epochs_run,
        trace=result.trace,
        model=model,
    )


#: The names callers use per task type; the task decides which it is.
run_nc_method = run_lp_method = run_method


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Plain ASCII table (the harness's figure/table output format)."""
    headers = [str(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    border = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines.append(border)
    lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append(border)
    for row in str_rows:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    lines.append(border)
    return "\n".join(lines)


def render_series(
    series: Dict[str, List[Tuple[float, float]]],
    title: str = "",
    x_label: str = "seconds",
    y_label: str = "metric",
) -> str:
    """Numeric rendering of convergence curves (Figure 9 style)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for name, points in series.items():
        rendered = " ".join(f"({x:.1f}{x_label[0]}, {y:.3f})" for x, y in points)
        lines.append(f"  {name}: {rendered}")
    return "\n".join(lines)
