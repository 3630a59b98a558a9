"""Every model trains bit-identically with row-sparse gradients.

Each NC and LP architecture trains two epochs on a tiny catalog graph with
the program's code and again with :mod:`dense_oracle`'s dense forms swapped
in.  The state dicts, test metrics and predictions must be equal under
``==``, and the saved checkpoints byte-identical — so ``/predict`` answers
and any prepared checkpoint do not move — and a checkpoint rebuilt from
disk must predict what the trained model predicts.
"""

import contextlib

import numpy as np
import pytest

import dense_oracle
from repro.bench.harness import LP_MODELS, NC_MODELS
from repro.models import ModelConfig, PathScorePredictor
from repro.nn.checkpoint import load_checkpoint, save_checkpoint
from repro.training import TrainConfig, train_link_predictor, train_node_classifier

CONFIG = ModelConfig(hidden_dim=16, num_layers=2, lr=0.05, batch_size=16, seed=3)
TRAIN = TrainConfig(epochs=2, eval_every=1)

CASES = [("NC", name, cls) for name, cls in sorted(NC_MODELS.items())] + [
    ("LP", name, cls)
    for name, cls in sorted({**LP_MODELS, "PathScore": PathScorePredictor}.items())
]


def _predictions(model, task, task_type):
    if task_type == "NC":
        return model.predict_logits()
    return model.score_pairs(task.edges[:, 0], task.edges[:, 1])


def _train_and_save(model_cls, bundle, task, task_type, path, dense):
    with dense_oracle.dense_mode() if dense else contextlib.nullcontext():
        model = model_cls(bundle.kg, task, CONFIG)
        train = train_node_classifier if task_type == "NC" else train_link_predictor
        result = train(model, task, TRAIN)
        predictions = _predictions(model, task, task_type)
    save_checkpoint(model, str(path), metrics={"test_metric": result.test_metric})
    return model.state_dict(), result.test_metric, predictions


@pytest.mark.parametrize("task_type,name,model_cls", CASES, ids=[f"{t}-{n}" for t, n, _ in CASES])
def test_training_matches_the_dense_oracle(
    task_type, name, model_cls, mag_tiny, wikikg_tiny, tmp_path
):
    bundle, task_name = (mag_tiny, "PV") if task_type == "NC" else (wikikg_tiny, "PO")
    task = bundle.task(task_name)
    new_path, old_path = tmp_path / "row_sparse.ckpt", tmp_path / "dense.ckpt"
    state, metric, predictions = _train_and_save(
        model_cls, bundle, task, task_type, new_path, dense=False
    )
    want_state, want_metric, want_predictions = _train_and_save(
        model_cls, bundle, task, task_type, old_path, dense=True
    )

    assert state.keys() == want_state.keys()
    for key in state:
        assert np.array_equal(state[key], want_state[key]), key
    assert metric == want_metric
    assert np.array_equal(predictions, want_predictions)
    assert new_path.read_bytes() == old_path.read_bytes()

    rebuilt = load_checkpoint(str(new_path)).build_model(bundle.kg)
    assert np.array_equal(_predictions(rebuilt, task, task_type), predictions)
