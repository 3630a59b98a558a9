"""Data transformation: RDF triples → adjacency matrices + features.

This is the mandatory middle step of the paper's Figure 4 workflow
(``KG' → CSV → AdjM``): GNN methods consume per-relation sparse adjacency
matrices and dense feature matrices, not triples.  The module also provides
the homogeneous-graph projections used by the random-walk and PPR samplers.
"""

from repro.transform.adjacency import (
    HeteroAdjacency,
    build_csr,
    build_hetero_adjacency,
)
from repro.transform.features import xavier_features, one_hot_type_features

__all__ = [
    "HeteroAdjacency",
    "build_csr",
    "build_hetero_adjacency",
    "xavier_features",
    "one_hot_type_features",
]
