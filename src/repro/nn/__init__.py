"""Numpy neural-network substrate.

The paper's HGNN methods are built on PyTorch/PyG; this package supplies
the equivalent pieces from scratch: a reverse-mode autograd
(:mod:`repro.nn.tensor`), sparse message-passing and loss functionals
(:mod:`repro.nn.functional`), module/layer abstractions
(:mod:`repro.nn.layers`), optimizers (:mod:`repro.nn.optim`) and Xavier
initialisation (:mod:`repro.nn.init`).
"""

from repro.nn.tensor import Tensor, no_grad, is_grad_enabled
from repro.nn.functional import (
    cross_entropy,
    nll_loss,
    bce_with_logits,
    margin_ranking_loss,
    accuracy,
)
from repro.nn.layers import (
    Module,
    Linear,
    Embedding,
    Dropout,
    ModuleList,
    Parameter,
    StateDictMismatch,
)
from repro.nn.optim import SGD, Adam
from repro.nn.init import xavier_uniform

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "cross_entropy",
    "nll_loss",
    "bce_with_logits",
    "margin_ranking_loss",
    "accuracy",
    "Module",
    "Linear",
    "Embedding",
    "Dropout",
    "ModuleList",
    "Parameter",
    "StateDictMismatch",
    "SGD",
    "Adam",
    "xavier_uniform",
]
