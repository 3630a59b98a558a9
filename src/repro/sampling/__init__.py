"""Graph sampling substrate.

The homogeneous-graph sampling machinery that HGNN methods adapted
(Section II-B of the paper): a vectorised random-walk engine, the uniform
random-walk (URW) subgraph sampler that GraphSAINT uses by default, and a
push-style approximate Personalized PageRank (Andersen, Chung, Lang —
FOCS 2006) that the paper's influence-based sampling builds on.
"""

from repro.sampling.walks import RandomWalkEngine
from repro.sampling.urw import UniformRandomWalkSampler, SampledSubgraph
from repro.sampling.ppr import approximate_ppr, ppr_top_k
from repro.sampling.paths import (
    enumerate_paths_batch,
    enumerate_paths_batch_with_support,
    enumerate_paths_scalar,
)

__all__ = [
    "RandomWalkEngine",
    "UniformRandomWalkSampler",
    "SampledSubgraph",
    "approximate_ppr",
    "ppr_top_k",
    "enumerate_paths_scalar",
    "enumerate_paths_batch",
    "enumerate_paths_batch_with_support",
]
