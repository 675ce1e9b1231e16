"""Recursive balanced identifier construction and tree lookups.

A group of n > k items is split into k balanced clusters, one child per
cluster; a group of n <= k items becomes a leaf group whose items take the
sequential branch ordinals 0..n-1 in ascending item order. Shorter identifiers
are padded with the pad token (value k) to the uniform tree depth.

Every split derives its own RNG stream from (seed, node id), with node ids
assigned in breadth-first order, so a split's result depends only on its
items, the config and its place in the tree. Splits run one at a time: the
exact backend is pure Python, so threads would only queue on the interpreter
lock.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import cluster_level
from .core import EmbeddingMatrix, IdentifierTree, TreeBuildConfig, validate_embeddings


class InvalidEmbeddingsError(ValueError):
    """Input embeddings failed validation; the message lists the violations."""


@dataclass(frozen=True)
class BuildStats:
    """Byproducts of a build: summed per-split SSE and the split count."""

    total_sse: float
    n_splits: int


def _node_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(node_id,)))


def build_tree_with_stats(X, cfg: TreeBuildConfig) -> tuple[IdentifierTree, BuildStats]:
    """Build the identifier tree and report the summed assignment cost."""
    if isinstance(X, EmbeddingMatrix):
        m = X
    else:
        m = EmbeddingMatrix.from_array(X)
    res = validate_embeddings(m)
    if not res.ok:
        raise InvalidEmbeddingsError("; ".join(res.violations))
    pts = m.as_array().astype(np.float64)
    k = cfg.k

    leaves = []  # (member item indices ascending, token prefix) of each leaf group
    total_sse = 0.0
    n_splits = 0
    next_id = 1
    # (node id, member item indices ascending, token prefix)
    level = [(0, np.arange(m.n_items, dtype=np.int64), ())]

    while level:
        next_level = []
        for nid, items, prefix in level:
            n = items.size
            if n > k:
                a = cluster_level(pts[items], cfg, rng=_node_rng(cfg.seed, nid))
                total_sse += a.cost
                n_splits += 1
                # a stable sort keeps every child's items ascending
                grouped = items[np.argsort(a.cluster_of, kind="stable")]
                for j, child_items in enumerate(np.split(grouped, np.cumsum(a.sizes)[:-1])):
                    next_level.append((next_id, child_items, prefix + (j,)))
                    next_id += 1
            else:
                leaves.append((items, prefix))
                next_id += n
        level = next_level

    depth = max(len(prefix) for _, prefix in leaves) + 1
    matrix = np.full((m.n_items, depth), k, dtype=np.int32)
    for items, prefix in leaves:
        matrix[items, : len(prefix)] = prefix
        matrix[items, len(prefix)] = np.arange(items.size)
    tree = IdentifierTree.from_paths(k, matrix)
    return tree, BuildStats(total_sse=total_sse, n_splits=n_splits)


def build_tree(X, cfg: TreeBuildConfig) -> IdentifierTree:
    """Build a balanced k-ary identifier tree over the embedding rows."""
    tree, _ = build_tree_with_stats(X, cfg)
    return tree


def path_of(t: IdentifierTree, item: int) -> np.ndarray:
    """The stored token path of an item, padded to the tree depth."""
    if not 0 <= item < t.n_items:
        raise IndexError(f"item {item} out of range [0, {t.n_items})")
    return t.paths[item].copy()


def item_of(t: IdentifierTree, path) -> int | None:
    """The item at a leaf path, or None when the path does not reach a leaf.

    Accepts padded or unpadded token sequences. Any out-of-range token, a real
    token after a pad, or a walk that ends anywhere but a leaf yields None.
    """
    node, seen_pad = 0, False
    for tok in (int(x) for x in np.asarray(path).ravel()):
        if tok == t.k:
            seen_pad = True
        elif seen_pad or not 0 <= tok < t.children.shape[1] or t.children[node, tok] < 0:
            return None
        else:
            node = int(t.children[node, tok])
    item = int(t.node_item[node])
    return item if item >= 0 else None


def node_embeddings(t: IdentifierTree, X) -> np.ndarray:
    """Per-node vectors: item row at a leaf, mean of descendant leaves inside.

    X must be the matrix the tree was built from (same item count and a single
    consistent dimension).
    """
    pts = X.as_array() if isinstance(X, EmbeddingMatrix) else np.asarray(X)
    if pts.ndim != 2 or pts.shape[0] != t.n_items:
        raise ValueError(
            f"embedding matrix shape {pts.shape} does not cover the tree's {t.n_items} items"
        )
    n_nodes, dim = t.n_nodes, pts.shape[1]
    sums = np.zeros((n_nodes, dim), dtype=np.float64)
    counts = np.zeros(n_nodes, dtype=np.int64)
    sums[t.leaf_of_item] = pts  # exact widening to float64
    counts[t.leaf_of_item] = 1

    # Deepest level first; bincount adds each parent's children in id order
    # from zero, the order of a sequential per-child accumulation. Node ids
    # are breadth-first, so each depth is one contiguous id range.
    first = np.searchsorted(t.node_depth, np.arange(int(t.node_depth.max()) + 2))
    for d in range(len(first) - 2, 0, -1):
        lo, hi = first[d], first[d + 1]
        parent = t.parent[lo:hi]
        step = np.diff(parent, prepend=-1) != 0  # parents never decrease
        par, slot = parent[step], np.cumsum(step) - 1
        for c in range(dim):  # one column at a time keeps the temporaries small
            sums[par, c] = np.bincount(slot, weights=sums[lo:hi, c], minlength=par.size)
        counts[par] = np.bincount(slot, weights=counts[lo:hi], minlength=par.size)
    sums /= counts[:, None]
    return sums
