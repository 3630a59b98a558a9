"""HGNN methods evaluated in the paper (Section V-A3).

Re-implementations of the six state-of-the-art methods' *mechanisms* on the
:mod:`repro.nn` substrate:

* :class:`~repro.models.rgcn.RGCNNodeClassifier` /
  :class:`~repro.models.rgcn.RGCNLinkPredictor` — full-batch RGCN (Eq. 1);
* :class:`~repro.models.graphsaint.GraphSAINTClassifier` — subgraph-sampled
  minibatch training over uniform random walks (URW);
* :class:`~repro.models.shadowsaint.ShaDowSAINTClassifier` — decoupled
  depth/scope ego-subgraphs with root readout;
* :class:`~repro.models.sehgnn.SeHGNNClassifier` — one-shot pre-aggregated
  metapath features + semantic attention + MLP;
* :class:`~repro.models.morse.MorsEPredictor` — entity-independent meta
  initialisation with TransE scoring;
* :class:`~repro.models.lhgnn.LHGNNPredictor` — latent-channel
  heterogeneous GNN with DistMult scoring.

The link predictors share one training body,
:class:`~repro.models.base.LinkPredictor`: each declares its encoder and
its decoder (:func:`~repro.models.base.distmult` or
:func:`~repro.models.base.transe`).

Beyond the paper's six, :class:`~repro.models.pathscore.PathScorePredictor`
is the KagNet-style path-reasoning LP scorer built on the ``/paths``
extraction kernel (relation-sequence embedding + pooling).

:data:`ARCHITECTURES` is the one table from (task type, architecture
name) to model class; checkpoint loading, the bench harness and the CLI
all read it.
"""

from typing import Dict, Tuple

from repro.models.base import ModelConfig, RGCNLayer, RGCNStack
from repro.models.rgcn import RGCNNodeClassifier, RGCNLinkPredictor
from repro.models.rgcn_multilabel import RGCNMultiLabelClassifier
from repro.models.graphsaint import GraphSAINTClassifier
from repro.models.shadowsaint import ShaDowSAINTClassifier
from repro.models.sehgnn import SeHGNNClassifier
from repro.models.morse import MorsEPredictor
from repro.models.lhgnn import LHGNNPredictor
from repro.models.pathscore import PathScorePredictor

#: Every trainable, checkpointable architecture: (task type, name) -> class.
ARCHITECTURES: Dict[Tuple[str, str], type] = {
    ("NC", "RGCN"): RGCNNodeClassifier,
    ("NC", "GraphSAINT"): GraphSAINTClassifier,
    ("NC", "ShaDowSAINT"): ShaDowSAINTClassifier,
    ("NC", "SeHGNN"): SeHGNNClassifier,
    ("LP", "RGCN"): RGCNLinkPredictor,
    ("LP", "MorsE"): MorsEPredictor,
    ("LP", "LHGNN"): LHGNNPredictor,
    ("LP", "PathScore"): PathScorePredictor,
}


def architectures(task_type: str) -> Dict[str, type]:
    """The architectures of one task type, name -> class, in table order."""
    return {name: cls for (kind, name), cls in ARCHITECTURES.items() if kind == task_type}


__all__ = [
    "ARCHITECTURES",
    "architectures",
    "ModelConfig",
    "RGCNLayer",
    "RGCNStack",
    "RGCNNodeClassifier",
    "RGCNLinkPredictor",
    "RGCNMultiLabelClassifier",
    "GraphSAINTClassifier",
    "ShaDowSAINTClassifier",
    "SeHGNNClassifier",
    "MorsEPredictor",
    "LHGNNPredictor",
    "PathScorePredictor",
]
