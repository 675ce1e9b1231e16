"""Balanced k-ary semantic identifier trees for generative retrieval.

Construction over item embeddings with exact, greedy, or hybrid balanced
clustering; prefix-constrained beam-search decoding; the training losses with
analytic gradients; retrieval metrics; file formats; and a construction-time
benchmark harness.
"""

from .bench import BlobSpec, compare_methods, gen_blobs, time_builds
from .core import (
    CapacityBounds,
    ClusterAssignment,
    IdentifierTree,
    TreeBuildConfig,
    validate_tree,
)
from .decode import BeamConfig, beam_search, beam_search_batch, dot_scorer
from .metrics import EvalReport, evaluate_run, hit_at_k, ndcg_at_k, recall_at_k
from .objectives import (
    LossWeights,
    alignment_loss,
    generation_loss,
    ranking_loss,
    total_loss,
    triplet_sampler,
)
from .treebuild import build_tree, build_tree_with_stats, item_of, node_embeddings, path_of

__version__ = "0.1.0"

__all__ = [
    "BeamConfig",
    "BlobSpec",
    "CapacityBounds",
    "ClusterAssignment",
    "EvalReport",
    "IdentifierTree",
    "LossWeights",
    "TreeBuildConfig",
    "alignment_loss",
    "beam_search",
    "beam_search_batch",
    "build_tree",
    "build_tree_with_stats",
    "compare_methods",
    "dot_scorer",
    "evaluate_run",
    "gen_blobs",
    "generation_loss",
    "hit_at_k",
    "item_of",
    "ndcg_at_k",
    "node_embeddings",
    "path_of",
    "ranking_loss",
    "recall_at_k",
    "time_builds",
    "total_loss",
    "triplet_sampler",
    "validate_tree",
]
