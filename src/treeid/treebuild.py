"""Level-synchronous balanced identifier construction and tree lookups.

A group of n > k items is split into k balanced clusters, one child per
cluster; a group of n <= k items becomes a leaf group whose items take the
sequential branch ordinals 0..n-1 in ascending item order. Shorter identifiers
are padded with the pad token (value k) to the uniform tree depth.

The tree is built one level at a time. A level is one permutation of its
items, group after group in node-id order with each group's items ascending,
plus the group sizes. Every group of the same size n > k is split in one
cluster_level call on a (G, n, d) stack, the level's path column is written
for all of its items at once, and a stable sort by (group, cluster) lays out
the next level. Node ids are breadth-first: a split group's children take k
consecutive ids and a leaf group's items take n.

Every split derives its own RNG stream from (seed, node id), so a split's
result depends only on its items, the config and its place in the tree, not
on which groups share its stack.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import cluster_level
from .core import IdentifierTree, TreeBuildConfig, check_embeddings

# Items per stacked split at most (a group larger than this is split alone),
# so a level's stacks keep the temporaries of clustering no larger than the
# root split's.
STACK_ROWS = 1 << 15


class InvalidEmbeddingsError(ValueError):
    """Input embeddings failed check_embeddings; the message names the violation."""


@dataclass(frozen=True)
class BuildStats:
    """Byproducts of a build: summed per-split SSE and the split count."""

    total_sse: float
    n_splits: int


def _node_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(node_id,)))


def build_tree_with_stats(X, cfg: TreeBuildConfig) -> tuple[IdentifierTree, BuildStats]:
    """Build the identifier tree and report the summed assignment cost."""
    pts = check_embeddings(X, InvalidEmbeddingsError)  # a stack is widened exactly as it is gathered
    k, n_items = cfg.k, pts.shape[0]

    columns = []  # one path column per level
    total_sse = 0.0
    n_splits = 0
    next_id = 1
    # the level's items group by group, each group's size and node id
    perm = np.arange(n_items, dtype=np.int64)
    sizes = np.array([n_items], dtype=np.int64)
    ids = np.zeros(1, dtype=np.int64)

    while True:
        split = sizes > k
        starts = np.cumsum(sizes) - sizes
        col = np.full(n_items, k, dtype=np.int32)
        costs = np.zeros(sizes.size)
        for n in np.unique(sizes[split]).tolist():
            same = np.nonzero(sizes == n)[0]
            per = max(1, STACK_ROWS // n)
            for gs in (same[i : i + per] for i in range(0, same.size, per)):
                members = perm[starts[gs][:, None] + np.arange(n)]
                rngs = [_node_rng(cfg.seed, nid) for nid in ids[gs].tolist()]
                a = cluster_level(pts[members].astype(np.float64), cfg, rng=rngs)
                col[members] = a.cluster_of
                costs[gs] = a.cost
        for cost in costs[split].tolist():  # node-id order
            total_sse += cost
        n_splits += int(split.sum())
        group = np.repeat(np.arange(sizes.size), sizes)
        inner = split[group]
        # a leaf group's items take the ordinals 0..n-1
        col[perm[~inner]] = (np.arange(perm.size) - starts[group])[~inner]
        columns.append(col)
        if not split.any():  # the next level would be empty
            break

        # a split group's children take k ids, a leaf group's items take n
        used = np.where(split, k, sizes)
        first_child = next_id + np.cumsum(used) - used
        next_id += int(used.sum())
        # a stable sort by (split group, cluster) keeps every child's items ascending
        rank = np.cumsum(split)[group[inner]] - 1
        key = rank * k + col[perm[inner]]
        perm = perm[inner][np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=int(split.sum()) * k)
        ids = (first_child[split][:, None] + np.arange(k)).ravel()

    tree = IdentifierTree.from_paths(k, np.stack(columns, axis=1))
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

    Accepts padded or unpadded token sequences. Any out-of-range token, a
    branch the node does not have, a real token after a pad, or a walk that
    ends anywhere but a leaf yields None.
    """
    node, seen_pad = 0, False
    for tok in (int(x) for x in np.asarray(path).ravel()):
        if tok == t.k:
            seen_pad = True
            continue
        lo, hi = t.child_start[node : node + 2]  # node's children: branch tok is lo + tok
        if seen_pad or not 0 <= tok < hi - lo:
            return None
        node = lo + tok
    item = int(t.node_item[node])
    return item if item >= 0 else None


def node_embeddings(t: IdentifierTree, X) -> np.ndarray:
    """Per-node vectors: item row at a leaf, mean of descendant leaves inside.

    X must be the matrix the tree was built from (same item count and a single
    consistent dimension).
    """
    pts = np.asarray(X)
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
