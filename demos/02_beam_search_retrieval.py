"""Retrieve items by prefix-constrained beam search over the identifier tree.

The decoder walks the tree level by level, expanding only edges that exist,
so every hypothesis is a valid identifier prefix. A dot-product scorer over
mean node embeddings stands in for a trained model; the search needs at most
beam_width scorer calls per level instead of scoring the whole catalog.
"""

import numpy as np

from treeid import (
    BeamConfig,
    BlobSpec,
    TreeBuildConfig,
    beam_search,
    build_tree,
    dot_scorer,
    evaluate_run,
    gen_blobs,
    node_embeddings,
)

n = 5000
items = gen_blobs(BlobSpec(n_items=n, dim=16, n_blobs=250, blob_spread=0.3, seed=1))
tree = build_tree(items, TreeBuildConfig(k=8, seed=3, outer_max_iters=5))
embs = node_embeddings(tree, items)
scorer = dot_scorer(embs, tree)
print(f"tree: {n} items, k=8, depth {tree.depth}")

# queries are noisy copies of item embeddings; the true item is the target
rng = np.random.default_rng(9)
X = items.astype(np.float64)
query_items = rng.choice(n, size=100, replace=False)
queries = X[query_items] + rng.normal(0.0, 0.05, size=(100, X.shape[1]))

cfg = BeamConfig(beam_width=50, top_n=20)
calls = [0]


def counted(context, node):
    calls[0] += 1
    return scorer(context, node)


runs = []
for q, target in zip(queries, query_items):
    ranked = beam_search(tree, counted, q, cfg)
    runs.append(([item for item, _ in ranked], {int(target)}))

report = evaluate_run(runs, cutoffs=(1, 5, 20))
for c in (1, 5, 20):
    print(f"Hit@{c:<2d} = {report.value('hit', c):.2f}")
print(f"scorer calls per query: {calls[0] / 100:.1f} "
      f"(bound: beam * depth = {cfg.beam_width * tree.depth})")

# exhaustive scoring of all N leaves gives the ceiling the beam approximates
scores = queries @ X.T
exact_top1 = scores.argmax(axis=1)
beam_top1 = np.array([runs[i][0][0] for i in range(100)])
print(f"beam top-1 agrees with exhaustive dot scoring: {(exact_top1 == beam_top1).mean():.2f}")
