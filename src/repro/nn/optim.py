"""Optimizers: SGD (with momentum) and Adam.

Adam follows Kingma & Ba with bias correction — the default optimizer of
every GNN method in the paper's evaluation.

Both update ``parameter.data`` in place with persistent state and scratch
buffers, and take a row-sparse gradient (:meth:`Tensor.row_grad`, an
embedding table's gathered rows) without densifying it: the per-element
IEEE operations are those of the textbook dense update, so the result is
equal under ``==``; only the sign of a zero can differ.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base: holds the parameter list and clears gradients."""

    def __init__(self, parameters: List[Parameter]):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def _gradient(
    parameter: Parameter, weight_decay: float
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """``(rows, sums)`` for a row-sparse gradient, ``(None, dense)`` otherwise.

    ``(None, None)`` when the parameter has no gradient.  L2 decay touches
    every row, so ``weight_decay`` densifies.
    """
    sparse = None if weight_decay else parameter.row_grad()
    if sparse is not None:
        return sparse
    grad = parameter.grad
    if grad is not None and weight_decay:
        grad = grad + weight_decay * parameter.data
    return None, grad


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: List[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        # id(parameter) -> (velocity or None without momentum, scratch)
        self._state: Dict[int, Tuple[Optional[np.ndarray], np.ndarray]] = {}

    def step(self) -> None:
        """``v = momentum·v + g`` (with momentum), then ``p -= lr·v``."""
        for parameter in self.parameters:
            rows, grad = _gradient(parameter, self.weight_decay)
            if grad is None:
                continue
            state = self._state.get(id(parameter))
            if state is None:
                state = self._state[id(parameter)] = (
                    np.zeros_like(parameter.data) if self.momentum else None,
                    np.empty_like(parameter.data),
                )
            velocity, update = state
            if self.momentum:
                velocity *= self.momentum
                if rows is None:
                    velocity += grad
                else:
                    velocity[rows] += grad
                rows, grad = None, velocity
            if rows is None:
                parameter.data -= np.multiply(grad, self.lr, out=update)
            else:
                parameter.data[rows] -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moment estimates."""

    def __init__(
        self,
        parameters: List[Parameter],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        # id(parameter) -> (m, v, scratch, scratch)
        self._state: Dict[int, Tuple[np.ndarray, ...]] = {}

    def step(self) -> None:
        """``m = β1·m + (1-β1)·g``, ``v = β2·v + (1-β2)·g²``, then
        ``p -= lr·m̂ / (√v̂ + eps)`` with bias-corrected ``m̂``, ``v̂``.

        The moments decay densely; a row-sparse gradient adds only to the
        rows it touched, since for the others ``β·m + 0.0 == β·m``.
        """
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for parameter in self.parameters:
            rows, grad = _gradient(parameter, self.weight_decay)
            if grad is None:
                continue
            state = self._state.get(id(parameter))
            if state is None:
                state = self._state[id(parameter)] = (
                    np.zeros_like(parameter.data),
                    np.zeros_like(parameter.data),
                    np.empty_like(parameter.data),
                    np.empty_like(parameter.data),
                )
            m, v, update, denom = state
            m *= self.beta1
            v *= self.beta2
            if rows is None:
                m += np.multiply(grad, 1.0 - self.beta1, out=update)
                np.square(grad, out=update)
                update *= 1.0 - self.beta2
                v += update
            else:
                m[rows] += (1.0 - self.beta1) * grad
                v[rows] += (1.0 - self.beta2) * np.square(grad)
            np.divide(m, bias1, out=update)
            update *= self.lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            parameter.data -= update
