"""Weight initialisation.

The paper initialises node embeddings "randomly using Xavier weight"
(Section V-A3); layers use the matching Glorot fan-in/fan-out bounds.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]


def xavier_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform: ``U(-a, a)`` with ``a = gain * sqrt(6/(fan_in+fan_out))``."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)
