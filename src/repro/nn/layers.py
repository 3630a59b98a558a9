"""Module / layer abstractions.

A minimal ``nn.Module`` equivalent: parameter registration by attribute
assignment, recursive ``parameters()``, train/eval mode propagation, and
the handful of layers the HGNN models need (Linear, Embedding, Dropout,
ModuleList).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (always requires grad).

    It owns a copy of ``data``: optimizers update it in place.
    """

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True, name=name)
        # Parameters must stay trainable even when constructed inside a
        # no_grad() block (e.g. lazy layer building during evaluation).
        self.requires_grad = True


class StateDictMismatch(KeyError, ValueError):
    """A checkpoint's state dict does not fit the model it is loaded into.

    Raised by :meth:`Module.load_state_dict` *before any parameter is
    touched*, so a skewed checkpoint can never half-apply.  The offending
    keys are carried structurally (``missing`` / ``unexpected`` names,
    ``mismatched`` ``(name, expected_shape, got_shape)`` triples, all
    sorted) and spelled out in the message.  Subclasses both ``KeyError``
    (key skew) and ``ValueError`` (shape skew) so existing handlers keep
    working.
    """

    def __init__(
        self,
        message: str,
        missing: Sequence[str] = (),
        unexpected: Sequence[str] = (),
        mismatched: Sequence[tuple] = (),
    ):
        super().__init__(message)
        self.missing = tuple(missing)
        self.unexpected = tuple(unexpected)
        self.mismatched = tuple(mismatched)

    def __str__(self) -> str:  # KeyError.__str__ would repr-quote the message
        return self.args[0]


class Module:
    """Base class with attribute-based parameter/submodule registration."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access --

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its submodules (depth-first)."""
        found: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            found.extend(module.parameters())
        return found

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield f"{prefix}{name}", parameter
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper's model-size metric)."""
        return int(sum(p.data.size for p in self.parameters()))

    def parameter_nbytes(self) -> int:
        """Bytes held by parameters (for modeled-memory accounting)."""
        return int(sum(p.data.nbytes for p in self.parameters()))

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- train / eval mode --

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict (save/load for tests and checkpoints) --

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the model's parameters, all-or-nothing.

        Every key and every shape is validated *before* the first
        assignment; any skew raises :class:`StateDictMismatch` naming the
        offending keys, so a stale or foreign checkpoint fails loudly
        instead of half-applying and predicting garbage.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        mismatched = []
        for name in sorted(set(own) & set(state)):
            expected = tuple(own[name].data.shape)
            got = tuple(np.asarray(state[name]).shape)
            if expected != got:
                mismatched.append((name, expected, got))
        if missing or unexpected or mismatched:
            parts = []
            if missing:
                parts.append(f"missing keys: {', '.join(missing)}")
            if unexpected:
                parts.append(f"unexpected keys: {', '.join(unexpected)}")
            if mismatched:
                shapes = ", ".join(
                    f"{name} expects {expected}, got {got}"
                    for name, expected, got in mismatched
                )
                parts.append(f"shape mismatches: {shapes}")
            raise StateDictMismatch(
                "state dict mismatch — " + "; ".join(parts),
                missing=missing,
                unexpected=unexpected,
                mismatched=mismatched,
            )
        for name, parameter in own.items():
            parameter.data = np.asarray(state[name]).copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform weights."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """A learnable lookup table with Xavier-uniform rows."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(xavier_uniform((num_embeddings, dim), rng), name="embedding")

    def forward(self, index: np.ndarray) -> Tensor:
        return self.weight.gather_rows(np.asarray(index, dtype=np.int64))

    def all(self) -> Tensor:
        """The whole table as a tensor (full-batch models)."""
        return self.weight


class Dropout(Module):
    """Inverted dropout driven by the module's train/eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return x.dropout(self.rate, self.rng, training=self.training)


class ModuleList(Module):
    """An indexable container whose items register as submodules."""

    def __init__(self, modules: Optional[Sequence[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        if modules:
            for module in modules:
                self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container; call its items instead")
