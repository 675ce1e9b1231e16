"""Build balanced k-ary identifier trees with the three clustering backends.

Every item gets a token path (its identifier). Splits are always balanced:
a group of n items produces k children whose sizes differ by at most one.
The exact backend solves each level's assignment optimally, the greedy
backend approximates it in O(N*k), and hybrid switches from greedy to exact
once groups shrink below the threshold.
"""

import numpy as np

from treeid import BlobSpec, TreeBuildConfig, build_tree_with_stats, gen_blobs, validate_tree
from treeid.treebuild import path_of

items = gen_blobs(BlobSpec(n_items=3000, dim=16, n_blobs=24, blob_spread=0.6, seed=42))
print(f"dataset: {items.shape[0]} items, dim {items.shape[1]}")

for method in ("constrained", "greedy", "hybrid"):
    cfg = TreeBuildConfig(
        k=8,
        method=method,
        greedy_threshold=500,  # hybrid: greedy above 500 items, exact below
        seed=7,
        outer_max_iters=5,
    )
    tree, stats = build_tree_with_stats(items, cfg)
    res = validate_tree(tree)
    sizes = np.bincount(tree.paths[:, 0], minlength=8)
    print(f"\n{method}:")
    print(f"  depth {tree.depth}, {tree.n_nodes} nodes, valid={res.ok}")
    print(f"  level-1 group sizes: {sizes.tolist()} (balanced: floor(3000/8)=375)")
    print(f"  summed split SSE: {stats.total_sse:.1f}")

# identifiers of a few items; pad token is k = 8
tree, _ = build_tree_with_stats(items, TreeBuildConfig(k=8, seed=7))
print("\nsample identifiers (pad token = 8):")
for item in (0, 1, 1500, 2999):
    print(f"  item {item}: {path_of(tree, item).tolist()}")

# same seed -> bit-identical tree; different seed -> different but still valid
again, _ = build_tree_with_stats(items, TreeBuildConfig(k=8, seed=7))
other, _ = build_tree_with_stats(items, TreeBuildConfig(k=8, seed=8))
print(f"\nrebuild with same seed identical: {np.array_equal(tree.paths, again.paths)}")
print(f"different seed still validates:    {validate_tree(other).ok}")
