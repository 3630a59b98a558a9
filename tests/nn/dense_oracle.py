"""Dense-gradient oracles for the row-sparse autograd and in-place optimizers.

The dense forms :mod:`repro.nn` used before embedding gradients went
row-sparse: every gather scatters into a zero-filled full table, every
first gradient is ``zeros_like + +=``, and Adam / SGD rebuild their state
and the parameter with temporaries.  :func:`dense_mode` swaps them into the
program, so the same training run can be replayed the old way and compared
with ``==``.  Used by ``tests/nn`` and ``benchmarks/test_perf_training.py``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def accumulate(self, grad, fresh=False):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def gather_rows(self, index):
    index = np.asarray(index, dtype=np.int64)
    out_data = self.data[index]

    def backward(grad):
        if self.requires_grad:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

    return Tensor._make(out_data, (self,), backward)


def sgd_step(self):
    velocities = self.__dict__.setdefault("_dense_velocity", {})
    for parameter in self.parameters:
        if parameter.grad is None:
            continue
        grad = parameter.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * parameter.data
        if self.momentum:
            velocity = velocities.get(id(parameter))
            if velocity is None:
                velocity = np.zeros_like(parameter.data)
            velocity = self.momentum * velocity + grad
            velocities[id(parameter)] = velocity
            grad = velocity
        parameter.data = parameter.data - self.lr * grad


def adam_step(self):
    moments_m = self.__dict__.setdefault("_dense_m", {})
    moments_v = self.__dict__.setdefault("_dense_v", {})
    self._step += 1
    bias1 = 1.0 - self.beta1**self._step
    bias2 = 1.0 - self.beta2**self._step
    for parameter in self.parameters:
        if parameter.grad is None:
            continue
        grad = parameter.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * parameter.data
        key = id(parameter)
        m = moments_m.get(key)
        v = moments_v.get(key)
        if m is None:
            m = np.zeros_like(parameter.data)
            v = np.zeros_like(parameter.data)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad**2
        moments_m[key] = m
        moments_v[key] = v
        m_hat = m / bias1
        v_hat = v / bias2
        parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def moments(optimizer, parameter):
    """``(m, v)`` of ``parameter`` in either form of ``optimizer``."""
    if "_dense_m" in optimizer.__dict__:
        return optimizer._dense_m[id(parameter)], optimizer._dense_v[id(parameter)]
    m, v, *_ = optimizer._state[id(parameter)]
    return m, v


_PATCHES = (
    (Tensor, "_accumulate", accumulate),
    (Tensor, "gather_rows", gather_rows),
    (SGD, "step", sgd_step),
    (Adam, "step", adam_step),
)


@contextlib.contextmanager
def dense_mode():
    """Run the block with the dense oracles in place of the program's code."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in _PATCHES]
    try:
        for owner, name, oracle in _PATCHES:
            setattr(owner, name, oracle)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
