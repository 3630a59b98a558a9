"""Training loops with convergence tracing.

Models plug in through two small duck-typed protocols:

* **NC models** implement ``train_epoch(rng) -> float`` and
  ``predict_logits() -> np.ndarray`` (logits for every task target
  position);
* **LP models** implement ``train_epoch(rng) -> float``,
  ``score_pairs(heads, tails) -> np.ndarray`` (higher = better) and
  ``candidate_pool() -> np.ndarray`` (tail-candidate node ids).

The trainer produces the quantities the paper reports: the metric, wall
training time, a per-epoch (time, metric) convergence trace (Figure 9),
inference time and model size (Table IV), and the peak modeled memory of
the attached :class:`~repro.training.resources.ResourceMeter`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.tasks import LinkPredictionTask, NodeClassificationTask
from repro.nn.functional import accuracy
from repro.nn.tensor import no_grad
from repro.training.metrics import hits_at_k, rank_of_true
from repro.training.resources import ResourceMeter


@dataclass
class TrainConfig:
    """Hyper-parameters shared by all trainer runs."""

    epochs: int = 30
    eval_every: int = 1
    patience: Optional[int] = None  # epochs without valid improvement
    seed: int = 0
    hits_k: int = 10
    num_eval_negatives: int = 50
    max_eval_examples: Optional[int] = None  # subsample heavy LP evals


@dataclass
class TracePoint:
    """One convergence-trace sample (Figure 9 plots metric vs. seconds)."""

    epoch: int
    seconds: float
    train_loss: float
    valid_metric: float


@dataclass
class TrainResult:
    """Everything measured about one training run."""

    test_metric: float
    valid_metric: float
    train_seconds: float
    inference_seconds: float
    epochs_run: int
    num_parameters: int
    peak_memory_bytes: int
    trace: List[TracePoint] = field(default_factory=list)
    metric_name: str = "accuracy"

    def summary(self) -> str:
        return (
            f"{self.metric_name}={self.test_metric:.3f} "
            f"time={self.train_seconds:.1f}s mem={self.peak_memory_bytes / 1e6:.1f}MB "
            f"params={self.num_parameters} epochs={self.epochs_run}"
        )


def _evaluate_nc(model, task: NodeClassificationTask, positions: np.ndarray) -> float:
    if len(positions) == 0:
        return 0.0
    with no_grad():
        logits = model.predict_logits()
    return accuracy(logits[positions], task.labels[positions])


def metric_name(task, config: TrainConfig) -> str:
    """What a model trained for ``task`` is scored by: accuracy or Hits@k."""
    return f"hits@{config.hits_k}" if task.task_type == "LP" else "accuracy"


def _fit(model, task, config: TrainConfig, meter, evaluate) -> TrainResult:
    """The one epoch / eval / early-stop loop; ``evaluate(positions)`` scores."""
    rng = np.random.default_rng(config.seed)
    trace: List[TracePoint] = []
    best_valid = -np.inf
    stale = 0
    start = time.perf_counter()
    epochs_run = 0
    for epoch in range(1, config.epochs + 1):
        loss = model.train_epoch(rng)
        epochs_run = epoch
        if epoch % config.eval_every == 0:
            valid = evaluate(task.split.valid)
            trace.append(
                TracePoint(epoch, time.perf_counter() - start, float(loss), valid)
            )
            if valid > best_valid + 1e-9:
                best_valid = valid
                stale = 0
            else:
                stale += 1
            if config.patience is not None and stale > config.patience:
                break
    train_seconds = time.perf_counter() - start

    infer_start = time.perf_counter()
    test_metric = evaluate(task.split.test)
    inference_seconds = time.perf_counter() - infer_start

    return TrainResult(
        test_metric=test_metric,
        valid_metric=max(best_valid, 0.0),
        train_seconds=train_seconds,
        inference_seconds=inference_seconds,
        epochs_run=epochs_run,
        num_parameters=model.num_parameters(),
        peak_memory_bytes=meter.peak_bytes if meter is not None else 0,
        trace=trace,
        metric_name=metric_name(task, config),
    )


def train_node_classifier(
    model,
    task: NodeClassificationTask,
    config: TrainConfig,
    meter: Optional[ResourceMeter] = None,
) -> TrainResult:
    """Train an NC model and measure the paper's reported quantities."""
    return _fit(model, task, config, meter, lambda positions: _evaluate_nc(model, task, positions))


def _sample_eval_pairs(
    edges: np.ndarray, pool: np.ndarray, config: TrainConfig, rng: np.random.Generator
):
    """Draw per-edge negative tails; returns flat (heads, tails, counts).

    The negatives for edge ``i`` occupy one contiguous segment of the flat
    arrays, with the true tail first.  One ``rng.integers`` call draws the
    whole ``(edges, negatives)`` index block; PCG64 fills it in C order, so
    row ``i`` holds exactly the words the scalar evaluator's ``i``-th
    ``rng.choice(pool, size=m)`` call would have drawn — same candidate
    sets, same generator state afterwards (asserted against
    :func:`_sample_eval_pairs_scalar` in the regression suite).
    """
    num_draws = min(config.num_eval_negatives, len(pool))
    true_tails = np.asarray(edges[:, 1], dtype=np.int64)
    draws = pool[rng.integers(0, len(pool), size=(len(edges), num_draws))]
    keep = draws != true_tails[:, None]
    counts = keep.sum(axis=1) + 1  # +1 for the true tail leading each segment
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    heads = np.repeat(np.asarray(edges[:, 0], dtype=np.int64), counts)
    tails = np.empty(int(counts.sum()), dtype=np.int64)
    tails[starts] = true_tails
    # A kept draw lands right after the draws kept before it in its row:
    # its running keep-count doubles as the 1-based offset past the true
    # tail, preserving draw order inside every segment.
    tails[(starts[:, None] + np.cumsum(keep, axis=1))[keep]] = draws[keep]
    return heads, tails, counts


def _sample_eval_pairs_scalar(
    edges: np.ndarray, pool: np.ndarray, config: TrainConfig, rng: np.random.Generator
):
    """Reference per-edge sampler (oracle for :func:`_sample_eval_pairs`).

    Kept verbatim so the regression suite can assert the one-shot block
    draw reproduces it bit-for-bit from the same generator state.
    """
    heads_parts = []
    tails_parts = []
    counts = np.empty(len(edges), dtype=np.int64)
    for i, (head, true_tail) in enumerate(edges):
        negatives = rng.choice(pool, size=min(config.num_eval_negatives, len(pool)))
        negatives = negatives[negatives != true_tail]
        heads_parts.append(np.full(len(negatives) + 1, head, dtype=np.int64))
        tails_parts.append(np.concatenate([[true_tail], negatives]).astype(np.int64))
        counts[i] = len(negatives) + 1
    return np.concatenate(heads_parts), np.concatenate(tails_parts), counts


def _evaluate_lp(
    model,
    task: LinkPredictionTask,
    positions: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """Hits@k of the true tail among sampled negative tails.

    One batched ``score_pairs`` call covers every (edge, candidate) pair;
    per-edge pessimistic ranks then come from a segmented ``>=`` reduction.
    Bit-identical to :func:`_evaluate_lp_scalar` (kept below as the
    regression oracle): scoring is per-pair so batching cannot change the
    values, and comparisons happen in float64 exactly as
    :func:`~repro.training.metrics.rank_of_true` does.
    """
    if len(positions) == 0:
        return 0.0
    if config.max_eval_examples is not None and len(positions) > config.max_eval_examples:
        positions = rng.choice(positions, size=config.max_eval_examples, replace=False)
    pool = model.candidate_pool()
    if len(pool) <= 1:
        return 0.0
    edges = task.edges[positions]
    heads, tails, counts = _sample_eval_pairs(edges, pool, config, rng)
    with no_grad():
        scores = np.asarray(model.score_pairs(heads, tails), dtype=np.float64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    true_scores = scores[starts]
    # Pessimistic rank = 1 + #{negatives scoring >= true}.  Comparing every
    # segment member against its segment's true score also compares the true
    # tail with itself (>= is True), which supplies exactly that +1.
    ranks = np.add.reduceat(scores >= np.repeat(true_scores, counts), starts)
    return hits_at_k(ranks.astype(np.int64), config.hits_k)


def _evaluate_lp_scalar(
    model,
    task: LinkPredictionTask,
    positions: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """Reference one-edge-at-a-time evaluator (oracle for :func:`_evaluate_lp`).

    Kept verbatim so the regression suite can assert the vectorized path
    reproduces it bit-for-bit from the same generator state.
    """
    if len(positions) == 0:
        return 0.0
    if config.max_eval_examples is not None and len(positions) > config.max_eval_examples:
        positions = rng.choice(positions, size=config.max_eval_examples, replace=False)
    pool = model.candidate_pool()
    if len(pool) <= 1:
        return 0.0
    edges = task.edges[positions]
    ranks = np.empty(len(edges), dtype=np.int64)
    with no_grad():
        for i, (head, true_tail) in enumerate(edges):
            negatives = rng.choice(pool, size=min(config.num_eval_negatives, len(pool)))
            negatives = negatives[negatives != true_tail]
            heads = np.full(len(negatives) + 1, head, dtype=np.int64)
            tails = np.concatenate([[true_tail], negatives]).astype(np.int64)
            scores = model.score_pairs(heads, tails)
            ranks[i] = rank_of_true(float(scores[0]), scores[1:])
    return hits_at_k(ranks, config.hits_k)


def train_link_predictor(
    model,
    task: LinkPredictionTask,
    config: TrainConfig,
    meter: Optional[ResourceMeter] = None,
) -> TrainResult:
    """Train an LP model; metric is Hits@k against sampled negatives."""
    eval_rng = np.random.default_rng(config.seed + 1)

    def evaluate(positions: np.ndarray) -> float:
        return _evaluate_lp(model, task, positions, config, eval_rng)

    return _fit(model, task, config, meter, evaluate)
