"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape-based autograd in the micrograd style, extended
with the operations heterogeneous GNNs need: sparse-matrix × dense-matrix
products (message passing), row gathers (embedding lookup / node selection),
index-add scatters (readout pooling), log-softmax, and the usual
elementwise/broadcast arithmetic.

Only :class:`Tensor` leaves created with ``requires_grad=True`` accumulate
gradients; scipy sparse matrices are always treated as constants (graph
structure is not learned).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

# Grad mode is per-thread (as in torch): the serving layer runs inference
# (predict_logits under no_grad) on asyncio.to_thread workers concurrently
# with training elsewhere, and a process-global flag would let one
# thread's no_grad exit clobber another's mode.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Whether new operations are recorded on the tape (this thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference mode)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


ArrayLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """A numpy array with an optional gradient tape entry."""

    __slots__ = ("data", "_grad", "_grad_rows", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad: Optional[np.ndarray] = None
        # A row-sparse gradient from gathers of this leaf, not yet in
        # ``_grad``: (unique rows, per-row sums); see ``row_grad``.
        self._grad_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.requires_grad = requires_grad and is_grad_enabled()
        self._backward = _backward
        self._parents = _parents if self.requires_grad or _parents else ()
        self.name = name

    # -- basics --

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, name={self.name})"

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    @property
    def grad(self) -> Optional[np.ndarray]:
        """The accumulated gradient as a dense array (None before any)."""
        if self._grad_rows is not None:
            self._densify()
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._grad = value
        self._grad_rows = None

    def row_grad(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(rows, sums)`` when only row gathers of this leaf made its gradient.

        ``rows`` are the unique rows touched, ascending, and ``sums[i]`` is
        row ``rows[i]`` of the dense gradient, bit for bit; every other row
        of it is zero.  None when the gradient is dense or absent.
        """
        return self._grad_rows

    def _densify(self) -> None:
        (rows, sums), self._grad_rows = self._grad_rows, None
        self._grad = np.zeros_like(self.data)
        self._grad[rows] = sums

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient.

        The first gradient is kept as is when ``fresh`` (the backward just
        made it, so nothing else holds it) and copied otherwise (it may be
        another tensor's gradient passed through); later ones add in place.
        """
        if self._grad_rows is not None:
            self._densify()
        if self._grad is None:
            if grad.shape == self.data.shape and grad.dtype == self.data.dtype:
                self._grad = grad if fresh else grad.copy()
                return
            self._grad = np.zeros_like(self.data)
        self._grad += grad

    def _accumulate_rows(self, rows: np.ndarray, sums: np.ndarray) -> None:
        """Add a gradient that is ``sums`` on the unique ``rows`` and zero elsewhere."""
        if self._grad is not None:
            self._grad[rows] += sums
        elif self._grad_rows is None:
            self._grad_rows = (rows, sums)
        else:
            # Per row 0 + held + new: the order dense ``+=`` adds them in.
            held_rows, held_sums = self._grad_rows
            merged, inverse = np.unique(np.concatenate([held_rows, rows]), return_inverse=True)
            total = np.zeros((len(merged),) + sums.shape[1:])
            np.add.at(total, inverse, np.concatenate([held_sums, sums]))
            self._grad_rows = (merged, total)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction helper --

    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)

    # -- backward pass --

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad)
        topo: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node._grad is not None:
                node._backward(node._grad)

    # -- arithmetic --

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, fresh=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape), fresh=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.data.shape),
                    fresh=True,
                )

        return Tensor._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T, fresh=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad, fresh=True)

        return Tensor._make(out_data, (self, other), backward)

    # -- shape ops --

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions --

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape).copy(), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities --

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -50.0, 50.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                softmax = np.exp(out_data)
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()

    # -- structured ops for GNNs --

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows ``self[index]`` with scatter-add backward.

        On a leaf (an embedding table) the gradient stays row-sparse: the
        unique rows ``index`` touches and their sums, added in index order
        as the full-table scatter would, so a step costs O(len(index)),
        not O(len(self)).  See :meth:`row_grad`.
        """
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if self._backward is None:
                rows, inverse = np.unique(index.reshape(-1), return_inverse=True)
                if not len(rows) or rows[0] >= 0:  # negative ids would alias rows
                    sums = np.zeros((len(rows),) + self.data.shape[1:])
                    np.add.at(sums, inverse, grad.reshape((-1,) + self.data.shape[1:]))
                    self._accumulate_rows(rows, sums)
                    return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def index_add(self, index: np.ndarray, num_segments: int) -> "Tensor":
        """Scatter-sum rows into ``num_segments`` buckets: ``out[index[i]] += self[i]``."""
        index = np.asarray(index, dtype=np.int64)
        out_shape = (num_segments,) + self.data.shape[1:]
        out_data = np.zeros(out_shape, dtype=self.data.dtype)
        np.add.at(out_data, index, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[index], fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator, training: bool = True) -> "Tensor":
        """Inverted dropout; identity when not training or rate == 0."""
        if not training or rate <= 0.0:
            return self
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        mask = (rng.random(self.data.shape) >= rate) / (1.0 - rate)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, fresh=True)

        return Tensor._make(out_data, (self,), backward)


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse @ dense message passing; the sparse matrix is a constant.

    Forward: ``A @ X``; backward: ``dX = Aᵀ @ dY``.
    """
    matrix = matrix.tocsr()
    out_data = matrix @ dense.data

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(matrix.T @ grad, fresh=True)

    return Tensor._make(np.asarray(out_data), (dense,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``, splitting gradients on the way back."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(lo, hi)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new ``axis`` (gradients un-stack)."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(moved[i])

    return Tensor._make(out_data, tuple(tensors), backward)
