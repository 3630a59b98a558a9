"""The shared file container: what the two kinds share, and what they do not."""

import numpy as np
import pytest

from repro import sections
from repro.kg.store import (
    ARTIFACT_FILENAME,
    STORE,
    ArtifactStoreError,
    open_artifacts,
    save_artifacts,
)
from repro.models import ModelConfig, RGCNNodeClassifier
from repro.nn.checkpoint import (
    CHECKPOINT,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

ARRAYS = {
    "ints": np.arange(7, dtype=np.int64),
    "matrix": np.linspace(0.0, 1.0, 12).reshape(3, 4),
    "empty": np.empty(0, dtype=np.int32),
    "bytes": np.frombuffer(b"a\nbc", dtype=np.uint8),
}


@pytest.mark.parametrize("kind", [STORE, CHECKPOINT], ids=["store", "checkpoint"])
def test_round_trip_keeps_header_dtype_and_shape(tmp_path, kind):
    path = str(tmp_path / "file.bin")
    nbytes = sections.write(path, kind, {"name": "x"}, ARRAYS)
    with open(path, "rb") as handle:
        raw = handle.read()
    assert nbytes == len(raw)
    header, arrays = sections.read(raw, path, kind)
    assert header["name"] == "x"
    assert sorted(arrays) == sorted(ARRAYS)
    for name, array in ARRAYS.items():
        assert arrays[name].dtype == array.dtype and arrays[name].shape == array.shape
        assert (arrays[name] == array).all()
        assert ("crc32" in header["sections"][name]) == kind.section_crc
    assert sections.read_header(raw, path, kind) == header


def test_a_store_file_is_not_a_checkpoint(tmp_path, toy_kg):
    save_artifacts(toy_kg, str(tmp_path))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(tmp_path / ARTIFACT_FILENAME))


def test_a_checkpoint_is_not_a_store(tmp_path, toy_kg, toy_task):
    model = RGCNNodeClassifier(toy_kg, toy_task, ModelConfig(hidden_dim=4, num_layers=1))
    save_checkpoint(model, str(tmp_path / ARTIFACT_FILENAME))
    with pytest.raises(ArtifactStoreError, match="magic"):
        open_artifacts(str(tmp_path))
