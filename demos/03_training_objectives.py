"""The three training losses and their analytic gradients.

Generation: cross-entropy of the target identifier under per-step child
scores. Alignment: a contrastive pull of each child embedding toward its
parent against sampled negatives. Ranking: a triplet hinge preferring items
that share a longer identifier prefix. Gradients are exact; the demo checks
one of each against central finite differences.
"""

import numpy as np

from treeid import (
    BlobSpec,
    LossWeights,
    TreeBuildConfig,
    alignment_loss,
    build_tree,
    gen_blobs,
    generation_loss,
    node_embeddings,
    ranking_loss,
    total_loss,
    triplet_sampler,
)

rng = np.random.default_rng(0)

# --- generation loss over a k=4, depth-3 identifier -------------------------
steps = [rng.normal(size=4) for _ in range(3)]
target = [2, 0, 3]
loss, grads = generation_loss(steps, target)
print(f"generation loss: {loss:.4f} (uniform-score reference: {3 * np.log(4):.4f})")

flat = np.concatenate(steps)
eps = 1e-5
num = np.empty_like(flat)
for i in range(flat.size):
    hi, lo = flat.copy(), flat.copy()
    hi[i] += eps
    lo[i] -= eps
    num[i] = (
        generation_loss([hi[:4], hi[4:8], hi[8:]], target)[0]
        - generation_loss([lo[:4], lo[4:8], lo[8:]], target)[0]
    ) / (2 * eps)
err = np.abs(np.concatenate(grads) - num).max()
print(f"  max |analytic - finite difference| = {err:.2e}")

# --- alignment loss between tree nodes --------------------------------------
items = gen_blobs(BlobSpec(n_items=400, dim=8, n_blobs=8, blob_spread=0.4, seed=5))
tree = build_tree(items, TreeBuildConfig(k=4, seed=1))
embs = node_embeddings(tree, items)

leaf = int(tree.leaf_of_item[0])
parent = int(tree.parent[leaf])
negatives = [embs[int(tree.parent[tree.leaf_of_item[i]])] for i in (50, 120, 333)]
ali, g_child, g_parent, g_negs = alignment_loss(embs[leaf], embs[parent], negatives, tau=1.0)
print(f"\nalignment loss (leaf vs its parent, 3 negatives): {ali:.4f}")
print(f"  |grad child| = {np.linalg.norm(g_child):.4f}")

# --- ranking loss from a prefix-aware triplet --------------------------------
pos, neg = triplet_sampler(tree, target=0, depth=1, seed=11)
X = items.astype(np.float64)
rank, *_ = ranking_loss(X[0], X[pos], X[neg], margin=1.0)
print(f"\ntriplet for item 0 at prefix depth 1: positive={pos}, negative={neg}")
print(f"ranking loss: {rank:.4f}")

# --- combined objective -------------------------------------------------------
w = LossWeights(lambda_a=0.5, lambda_r=0.1)
print(f"\ntotal = gen + {w.lambda_a}*ali + {w.lambda_r}*rank = "
      f"{total_loss(loss, ali, rank, w):.4f}")
