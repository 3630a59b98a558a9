"""Versioned, CRC-checked model checkpoints (the serving parameter artifact).

The artifact store (``repro/kg/store.py``) made the *graph* a first-class
on-disk artifact; this module does the same for *trained parameters* so the
serving layer can run GNN inference without retraining.  A checkpoint is
one self-contained file holding

* the model's ``state_dict`` (every parameter as a flat little-endian
  section, each with its own CRC-32),
* the task definition it was trained for (target nodes / labels / edges /
  split — enough to rebuild the exact task object on any process that has
  the graph), and
* the identity metadata the model registry routes on: architecture name,
  graph name, :class:`~repro.models.base.ModelConfig` hyper-parameters,
  construction kwargs, and the recorded training metrics.

Because every model derives its non-parameter state (embedding init,
SeHGNN metapath features, ShaDowSAINT ego scopes and sampling salt)
deterministically from ``config.rng()``, rebuilding the model from
``(graph, task, config)`` and loading the saved parameters reproduces the
trained model's predictions **bit for bit** — the property the serving
oracle tests assert.

The file is a :mod:`repro.sections` container of the ``CHECKPOINT``
kind, whose module docstring gives the byte layout: its JSON header holds
``architecture``, ``graph``, ``config``, ``model_kwargs``, ``metrics`` and
``task``, and every section carries a CRC-32 that :func:`load_checkpoint`
verifies.

Every structural failure mode — missing file, wrong magic, unsupported
version, corrupted header, truncated or bit-flipped parameter sections —
raises the structured :class:`CheckpointError`; a skewed-but-readable
state dict additionally fails loudly inside
:meth:`~repro.nn.layers.Module.load_state_dict`
(:class:`~repro.nn.layers.StateDictMismatch`), never as silent NaNs.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import sections

class CheckpointError(RuntimeError):
    """A structured checkpoint failure (missing/corrupt/incompatible file)."""


CHECKPOINT = sections.Kind(
    magic=b"TOSGCKP1",
    error=CheckpointError,
    noun="checkpoint",
    remedy="re-save with `repro train --save-checkpoint`",
    missing="no checkpoint at {path}; create one with `repro train --save-checkpoint`",
    section_crc=True,
)


def _task_header(task) -> Dict[str, object]:
    """The task's scalar fields (its arrays become sections)."""
    common = {
        "type": task.task_type,
        "name": task.name,
        "metric": task.metric,
        "kg_name": task.kg_name,
        "split_schema": task.split.schema,
    }
    if task.task_type == "NC":
        common.update(
            target_class=int(task.target_class), num_labels=int(task.num_labels)
        )
    elif task.task_type == "LP":
        common.update(
            predicate=int(task.predicate),
            head_class=int(task.head_class),
            tail_class=int(task.tail_class),
        )
    else:
        raise CheckpointError(
            f"cannot checkpoint a model for task type {task.task_type!r}; "
            "only NC and LP tasks serve through /predict"
        )
    return common


def _task_arrays(task) -> Dict[str, np.ndarray]:
    arrays = {
        "task/split/train": task.split.train,
        "task/split/valid": task.split.valid,
        "task/split/test": task.split.test,
    }
    if task.task_type == "NC":
        arrays["task/target_nodes"] = task.target_nodes
        arrays["task/labels"] = task.labels
    else:
        arrays["task/edges"] = task.edges
    return arrays


def _rebuild_task(header: Dict[str, object], arrays: Dict[str, np.ndarray]):
    from repro.core.tasks import (
        LinkPredictionTask,
        NodeClassificationTask,
        Split,
    )

    spec = header["task"]
    split = Split(
        train=np.asarray(arrays["task/split/train"], dtype=np.int64),
        valid=np.asarray(arrays["task/split/valid"], dtype=np.int64),
        test=np.asarray(arrays["task/split/test"], dtype=np.int64),
        schema=spec["split_schema"],
    )
    if spec["type"] == "NC":
        return NodeClassificationTask(
            name=spec["name"],
            target_class=int(spec["target_class"]),
            target_nodes=arrays["task/target_nodes"],
            labels=arrays["task/labels"],
            num_labels=int(spec["num_labels"]),
            split=split,
            metric=spec["metric"],
            kg_name=spec["kg_name"],
        )
    return LinkPredictionTask(
        name=spec["name"],
        predicate=int(spec["predicate"]),
        head_class=int(spec["head_class"]),
        tail_class=int(spec["tail_class"]),
        edges=arrays["task/edges"].reshape(-1, 2),
        split=split,
        metric=spec["metric"],
        kg_name=spec["kg_name"],
    )


@dataclass
class Checkpoint:
    """One loaded checkpoint: identity metadata + task + parameter arrays."""

    path: str
    architecture: str
    graph_name: str
    config: "object"  # ModelConfig (kept untyped to avoid an import cycle)
    model_kwargs: Dict[str, object]
    metrics: Dict[str, object]
    task: "object"  # NodeClassificationTask | LinkPredictionTask
    state: Dict[str, np.ndarray]

    @property
    def task_type(self) -> str:
        return self.task.task_type

    @property
    def key(self) -> tuple:
        """Registry identity: (task name, architecture)."""
        return (self.task.name, self.architecture)

    def build_model(self, kg):
        """Reconstruct the trained model over ``kg``, bit-identically.

        The architecture is rebuilt from ``(kg, task, config)`` — which
        regenerates all derived non-parameter state from ``config.rng()``
        exactly as training did — then the saved parameters replace the
        fresh ones.  Any skew raises
        :class:`~repro.nn.layers.StateDictMismatch`.
        """
        if kg.name != self.graph_name:
            raise CheckpointError(
                f"{self.path}: checkpoint was trained on graph "
                f"{self.graph_name!r} but is being loaded over {kg.name!r}"
            )
        from repro.models import ARCHITECTURES

        model_cls = ARCHITECTURES.get((self.task_type, self.architecture))
        if model_cls is None:
            known = sorted({arch for _, arch in ARCHITECTURES})
            raise CheckpointError(
                f"unknown architecture {self.architecture!r} for task type "
                f"{self.task_type!r}; this build knows {known}"
            )
        model = model_cls(kg, self.task, self.config, **self.model_kwargs)
        model.load_state_dict(self.state)
        model.eval()
        return model


def save_checkpoint(
    model,
    path: str,
    architecture: Optional[str] = None,
    model_kwargs: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write ``model``'s trained state as one checkpoint file, atomically.

    ``model`` must carry the repo-wide model attributes (``kg``, ``task``,
    ``config``, class-level ``name``); the construction kwargs its class
    lists in ``checkpoint_kwargs`` (ShaDowSAINT depth/fanout, SeHGNN
    feature_dim, PathScore max_hops/max_paths) are captured automatically
    unless overridden via ``model_kwargs``; no architecture takes any other
    constructor option.
    Returns a small manifest dict (``path`` / ``nbytes`` / ``parameters``).
    """
    architecture = architecture or getattr(model, "name", type(model).__name__)
    kwargs = dict(model_kwargs or {})
    for attribute in getattr(model, "checkpoint_kwargs", ()):
        if attribute not in kwargs:
            kwargs[attribute] = getattr(model, attribute)

    state = model.state_dict()
    arrays = _task_arrays(model.task)
    for name, array in state.items():
        arrays[f"param/{name}"] = array
    header = {
        "architecture": architecture,
        "graph": model.kg.name,
        "config": dataclasses.asdict(model.config),
        "model_kwargs": kwargs,
        "metrics": dict(metrics or {}),
        "task": _task_header(model.task),
    }
    nbytes = sections.write(path, CHECKPOINT, header, arrays)
    return {
        "path": path,
        "nbytes": nbytes,
        "parameters": int(sum(a.size for a in state.values())),
    }


def _read_file(path: str) -> bytes:
    if not os.path.exists(path):
        raise CheckpointError(CHECKPOINT.missing.format(path=path))
    with open(path, "rb") as handle:
        return handle.read()


def read_checkpoint_meta(path: str) -> Dict[str, object]:
    """Identity metadata only, O(header) — no parameter bytes are read.

    The model registry and the pool parent route on this (architecture,
    task, recorded metric, parameter count) without paying a full load.
    """
    with sections.map_file(path, CHECKPOINT) as buffer:
        header = sections.read_header(buffer, path, CHECKPOINT)
        nbytes = len(buffer)
    parameters = sum(
        math.prod(spec["shape"])
        for name, spec in header["sections"].items()
        if name.startswith("param/")
    )
    return {
        "path": path,
        "architecture": header["architecture"],
        "graph": header["graph"],
        "task_name": header["task"]["name"],
        "task_type": header["task"]["type"],
        "metrics": header.get("metrics", {}),
        "num_parameters": parameters,
        "nbytes": nbytes,
    }


def load_checkpoint(path: str) -> Checkpoint:
    """Read, verify and decode a checkpoint file.

    Every section is bounds-checked against the file and verified against
    its recorded CRC-32, so a truncated or bit-flipped parameter block is a
    :class:`CheckpointError` naming the section — never a silently wrong
    prediction.
    """
    from repro.models.base import ModelConfig

    header, arrays = sections.read(_read_file(path), path, CHECKPOINT)
    try:
        config = ModelConfig(**header["config"])
        task = _rebuild_task(header, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: inconsistent checkpoint contents: {exc}") from exc
    state = {
        name[len("param/") :]: array
        for name, array in arrays.items()
        if name.startswith("param/")
    }
    return Checkpoint(
        path=path,
        architecture=header["architecture"],
        graph_name=header["graph"],
        config=config,
        model_kwargs=dict(header.get("model_kwargs", {})),
        metrics=dict(header.get("metrics", {})),
        task=task,
        state=state,
    )
