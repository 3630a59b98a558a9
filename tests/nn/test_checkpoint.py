"""Checkpoint artifact round-trips and structured corruption errors.

Mirrors ``tests/kg/test_store.py``: the happy path must be bit-exact
(save → load → rebuild → identical predictions), and every corrupted
byte pattern must surface as a :class:`CheckpointError` naming the
problem — never as silently wrong parameters.
"""

import json
import os
import zlib

import numpy as np
import pytest

from repro.models import (
    ModelConfig,
    RGCNLinkPredictor,
    RGCNNodeClassifier,
    SeHGNNClassifier,
    ShaDowSAINTClassifier,
)
from repro.nn import checkpoint as checkpoint_module
from repro.nn.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.nn.layers import StateDictMismatch

CONFIG = ModelConfig(hidden_dim=16, num_layers=2, dropout=0.0, lr=0.05, batch_size=16, seed=3)

NC_MODELS = [
    RGCNNodeClassifier,
    SeHGNNClassifier,
    ShaDowSAINTClassifier,
]


def _train_briefly(model, epochs=3):
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        model.train_epoch(rng)
    return model


# -- round trips ----------------------------------------------------------


@pytest.mark.parametrize("model_cls", NC_MODELS)
def test_nc_round_trip_bit_identical(toy_kg, toy_task, model_cls, tmp_path):
    model = _train_briefly(model_cls(toy_kg, toy_task, CONFIG))
    expected = model.predict_logits()
    path = str(tmp_path / "model.ckpt")
    manifest = save_checkpoint(model, path, metrics={"test_metric": 0.5})
    assert manifest["parameters"] == model.num_parameters()

    rebuilt = load_checkpoint(path).build_model(toy_kg)
    assert rebuilt is not model
    np.testing.assert_array_equal(rebuilt.predict_logits(), expected)


def test_lp_round_trip_bit_identical(toy_kg, tmp_path):
    from repro.core.tasks import LinkPredictionTask, Split

    papers = np.asarray([toy_kg.node_vocab.id(f"p{i}") for i in range(6)])
    authors = np.asarray([toy_kg.node_vocab.id(f"a{i}") for i in range(3)])
    task = LinkPredictionTask(
        name="HA",
        predicate=toy_kg.relation_vocab.id("hasAuthor"),
        head_class=toy_kg.class_vocab.id("Paper"),
        tail_class=toy_kg.class_vocab.id("Author"),
        edges=np.stack([papers, np.repeat(authors, 2)], axis=1),
        split=Split(np.arange(4), np.asarray([4]), np.asarray([5])),
    )
    model = _train_briefly(RGCNLinkPredictor(toy_kg, task, CONFIG))
    pool = model.candidate_pool()
    heads = np.repeat(papers[:2], len(pool))
    tails = np.tile(pool, 2)
    expected = model.score_pairs(heads, tails)

    path = str(tmp_path / "lp.ckpt")
    save_checkpoint(model, path)
    rebuilt = load_checkpoint(path).build_model(toy_kg)
    np.testing.assert_array_equal(rebuilt.score_pairs(heads, tails), expected)
    np.testing.assert_array_equal(rebuilt.candidate_pool(), pool)
    np.testing.assert_array_equal(rebuilt.task.edges, task.edges)


def test_round_trip_preserves_task_and_metadata(toy_kg, toy_task, tmp_path):
    model = ShaDowSAINTClassifier(toy_kg, toy_task, CONFIG, depth=1, fanout=2)
    path = str(tmp_path / "shadow.ckpt")
    save_checkpoint(model, path, metrics={"test_metric": 0.75, "metric": "accuracy"})

    checkpoint = load_checkpoint(path)
    assert checkpoint.architecture == "ShaDowSAINT"
    assert checkpoint.graph_name == "toy"
    assert checkpoint.model_kwargs == {"depth": 1, "fanout": 2}
    assert checkpoint.metrics["test_metric"] == 0.75
    assert checkpoint.config == CONFIG
    task = checkpoint.task
    assert task.task_type == "NC"
    assert task.name == toy_task.name
    np.testing.assert_array_equal(task.target_nodes, toy_task.target_nodes)
    np.testing.assert_array_equal(task.labels, toy_task.labels)
    np.testing.assert_array_equal(task.split.train, toy_task.split.train)

    rebuilt = checkpoint.build_model(toy_kg)
    assert rebuilt.depth == 1 and rebuilt.fanout == 2
    assert not rebuilt.training  # served models come back in eval mode


def test_read_checkpoint_meta_is_header_only(toy_kg, toy_task, tmp_path):
    model = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    path = str(tmp_path / "meta.ckpt")
    save_checkpoint(model, path, metrics={"test_metric": 0.9})
    meta = read_checkpoint_meta(path)
    assert meta["architecture"] == "RGCN"
    assert meta["graph"] == "toy"
    assert meta["task_name"] == "PV"
    assert meta["task_type"] == "NC"
    assert meta["num_parameters"] == model.num_parameters()
    assert meta["metrics"]["test_metric"] == 0.9
    assert meta["nbytes"] > 0


def test_read_checkpoint_meta_maps_instead_of_reading_the_file(
    toy_kg, toy_task, tmp_path, monkeypatch
):
    model = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    path = str(tmp_path / "meta.ckpt")
    save_checkpoint(model, path)

    def read_whole_file(_path):
        raise AssertionError("read_checkpoint_meta read every parameter byte")

    monkeypatch.setattr(checkpoint_module, "_read_file", read_whole_file)
    assert read_checkpoint_meta(path)["nbytes"] == os.path.getsize(path)
    with pytest.raises(CheckpointError, match="repro train --save-checkpoint"):
        read_checkpoint_meta(str(tmp_path / "nowhere.ckpt"))


def test_build_model_rejects_wrong_graph(toy_kg, toy_task, tmp_path):
    from repro.kg.graph import KnowledgeGraph

    model = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    path = str(tmp_path / "g.ckpt")
    save_checkpoint(model, path)
    other = KnowledgeGraph.build(
        [(f"p{i}", "Paper") for i in range(6)]
        + [(f"a{i}", "Author") for i in range(3)]
        + [("v0", "Venue"), ("v1", "Venue")]
        + [(f"m{i}", "Movie") for i in range(4)],
        [("p0", "hasAuthor", "a0")],
        name="other",
    )
    with pytest.raises(CheckpointError, match="trained on graph 'toy'"):
        load_checkpoint(path).build_model(other)


def test_skewed_checkpoint_fails_loudly_not_nan(toy_kg, toy_task, tmp_path):
    """A checkpoint from a differently-sized model must raise, not half-load."""
    small = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    path = str(tmp_path / "skew.ckpt")
    save_checkpoint(small, path)
    checkpoint = load_checkpoint(path)
    wide = RGCNNodeClassifier(
        toy_kg, toy_task, ModelConfig(hidden_dim=32, num_layers=2, dropout=0.0)
    )
    with pytest.raises(StateDictMismatch, match="shape mismatch"):
        wide.load_state_dict(checkpoint.state)


# -- corruption: every structural failure is a CheckpointError ------------


@pytest.fixture
def saved(toy_kg, toy_task, tmp_path):
    model = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    path = str(tmp_path / "victim.ckpt")
    save_checkpoint(model, path)
    return path


def _corrupt(path, offset, value):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(value)


def _rewrite_header(path, mutate):
    """Parse, mutate and re-stamp the JSON header (valid CRC, skewed body)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    length = int(np.frombuffer(raw, dtype="<u4", count=1, offset=12)[0])
    header = json.loads(raw[20 : 20 + length].decode("utf-8"))
    mutate(header)
    body = raw[(20 + length + 63) // 64 * 64 :]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(raw[:8])
        handle.write(
            np.asarray([1, len(header_bytes), zlib.crc32(header_bytes)], dtype="<u4").tobytes()
        )
        handle.write(header_bytes)
        position = 20 + len(header_bytes)
        handle.write(b"\x00" * ((position + 63) // 64 * 64 - position))
        handle.write(body)


def test_missing_file_mentions_save_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="repro train --save-checkpoint"):
        load_checkpoint(str(tmp_path / "nowhere.ckpt"))


def test_short_file_mentions_preamble(tmp_path):
    path = tmp_path / "stub.ckpt"
    path.write_bytes(b"TOSG")
    with pytest.raises(CheckpointError, match="preamble"):
        load_checkpoint(str(path))


def test_bad_magic(saved):
    _corrupt(saved, 0, b"NOTACKPT")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(saved)


def test_unsupported_version(saved):
    _corrupt(saved, 8, np.asarray([99], dtype="<u4").tobytes())
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(saved)
    with pytest.raises(CheckpointError, match="version 99"):
        read_checkpoint_meta(saved)


def test_header_overrun(saved):
    _corrupt(saved, 12, np.asarray([2**30], dtype="<u4").tobytes())
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(saved)


def test_header_crc_mismatch(saved):
    _corrupt(saved, 24, b"X")
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(saved)


def test_truncated_sections(saved):
    with open(saved, "rb") as handle:
        raw = handle.read()
    with open(saved, "wb") as handle:
        handle.write(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(saved)


def test_flipped_parameter_bit_is_checksum_error(saved):
    with open(saved, "rb") as handle:
        raw = handle.read()
    _corrupt(saved, len(raw) - 8, b"\xff")  # inside the last parameter section
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(saved)


def test_inconsistent_section_spec(saved):
    def mutate(header):
        name = next(k for k in header["sections"] if k.startswith("param/"))
        header["sections"][name]["nbytes"] = 1

    _rewrite_header(saved, mutate)
    with pytest.raises(CheckpointError, match="internally inconsistent"):
        load_checkpoint(saved)


def test_unknown_architecture_rejected(saved, toy_kg):
    def mutate(header):
        header["architecture"] = "TransformerXL"

    _rewrite_header(saved, mutate)
    with pytest.raises(CheckpointError, match="unknown architecture 'TransformerXL'"):
        load_checkpoint(saved).build_model(toy_kg)


def test_save_is_atomic(toy_kg, toy_task, tmp_path, saved):
    """Re-saving over an existing checkpoint never leaves a torn file."""
    model = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    save_checkpoint(model, saved)
    checkpoint = load_checkpoint(saved)  # parses cleanly end to end
    assert checkpoint.architecture == "RGCN"
    assert not (tmp_path / "victim.ckpt.tmp").exists()
