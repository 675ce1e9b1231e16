"""Forward values and analytic gradients of the three training losses.

These are the numeric pieces a trainer would backpropagate through: the
autoregressive generation cross-entropy over valid children, the contrastive
parent-child alignment loss, and the prefix-aware triplet ranking loss. Only
values and gradients live here; there is no optimizer and no model.

Similarity is the plain dot product throughout. Gradients are exact and
checkable against central finite differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import IdentifierTree, _items_below


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights and hyperparameters for the combined loss."""

    lambda_a: float = 1.0
    lambda_r: float = 1.0
    temperature: float = 1.0
    margin: float = 1.0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.margin < 0 or self.lambda_a < 0 or self.lambda_r < 0:
            raise ValueError("margin and weights must be >= 0")


def _logsumexp(x: np.ndarray) -> float:
    m = float(x.max())
    return m + float(np.log(np.exp(x - m).sum()))


def _softplus(a: float) -> float:
    """log(1 + exp(a)), keeping full relative accuracy when exp(a) is tiny."""
    return max(a, 0.0) + math.log1p(math.exp(-abs(a)))


def _nll(z: np.ndarray, target: int) -> float:
    """-log softmax(z)[target], as softplus(lse(others) - z[target]).

    Subtracting z[target] from lse(z) cancels when the target dominates; this
    form keeps the value's relative accuracy there. A lone logit gives 0.
    """
    if z.size == 1:
        return 0.0
    others = np.concatenate((z[:target], z[target + 1 :]))
    return _softplus(_logsumexp(others) - float(z[target]))


def generation_loss(step_scores, target, pad_token: int | None = None):
    """Cross-entropy of the target path under per-step child scores.

    step_scores holds one 1-D log-score vector per decoding step, with length
    equal to the child count at that tree position. target is the token path;
    steps whose target token equals pad_token contribute zero loss and zero
    gradient. Returns (loss, per-step gradients), gradients shaped like
    step_scores (softmax minus the one-hot target).
    """
    target = [int(x) for x in np.asarray(target).ravel()]
    if len(step_scores) < sum(1 for tok in target if tok != pad_token):
        raise ValueError("fewer score vectors than non-pad target steps")
    loss = 0.0
    grads = []
    for step, tok in enumerate(target):
        scores = np.asarray(step_scores[step], dtype=np.float64).ravel() if step < len(step_scores) else np.zeros(0)
        if pad_token is not None and tok == pad_token:
            grads.append(np.zeros_like(scores))
            continue
        if not 0 <= tok < scores.size:
            raise IndexError(f"target token {tok} out of range for {scores.size} children at step {step}")
        loss += _nll(scores, tok)
        g = np.exp(scores - _logsumexp(scores))
        g[tok] -= 1.0
        grads.append(g)
    return loss, grads


def alignment_loss(child, parent, negatives, tau: float = 1.0):
    """Contrastive loss pulling a child embedding toward its parent.

    loss = -log( exp(c.p / tau) / (exp(c.p / tau) + sum_j exp(c.n_j / tau)) )

    Returns (loss, grad_child, grad_parent, grad_negatives). Requires at least
    one negative and matching dimensions everywhere.
    """
    c = np.asarray(child, dtype=np.float64).ravel()
    p = np.asarray(parent, dtype=np.float64).ravel()
    negs = [np.asarray(v, dtype=np.float64).ravel() for v in negatives]
    if not negs:
        raise ValueError("alignment loss needs at least one negative")
    if p.size != c.size or any(v.size != c.size for v in negs):
        raise ValueError("child, parent, and negatives must share one dimension")
    if not tau > 0:
        raise ValueError(f"temperature must be > 0, got {tau}")

    z = np.empty(1 + len(negs))
    z[0] = c @ p / tau
    for j, v in enumerate(negs):
        z[1 + j] = c @ v / tau
    loss = _nll(z, 0)
    w = np.exp(z - _logsumexp(z))

    grad_child = ((w[0] - 1.0) * p + sum(w[1 + j] * v for j, v in enumerate(negs))) / tau
    grad_parent = (w[0] - 1.0) * c / tau
    grad_negs = [w[1 + j] * c / tau for j in range(len(negs))]
    return loss, grad_child, grad_parent, grad_negs


def ranking_loss(query, positive, negative, margin: float = 1.0):
    """Hinge loss pushing the positive dot product above the negative by margin.

    With s+ = q.p and s- = q.n: loss = max(0, margin - s+ + s-). The
    subgradient at the hinge point is taken as zero. Returns
    (loss, grad_query, grad_positive, grad_negative).
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    p = np.asarray(positive, dtype=np.float64).ravel()
    n = np.asarray(negative, dtype=np.float64).ravel()
    if p.size != q.size or n.size != q.size:
        raise ValueError("query, positive, and negative must share one dimension")
    gap = margin - float(q @ p) + float(q @ n)
    if gap <= 0.0:
        zero = np.zeros_like(q)
        return 0.0, zero, zero.copy(), zero.copy()
    return gap, n - p, -q, q.copy()


def triplet_sampler(t: IdentifierTree, target: int, depth: int, seed) -> tuple[int, int]:
    """Draw (positive, negative) items relative to a target's identifier prefix.

    The positive shares at least the first depth tokens with the target; the
    negative shares a strictly shorter prefix. Uniform over the eligible items
    on each side given the seed. Raises when either side is empty, which
    includes depth = 0 since no item can share a prefix shorter than zero.
    The items sharing the prefix are read from the arena, under the target's
    ancestor at that depth, so a call costs time in their number, not in the
    catalog's.
    """
    if not 0 <= target < t.n_items:
        raise IndexError(f"item {target} out of range [0, {t.n_items})")
    if not 0 <= depth <= t.depth:
        raise ValueError(f"prefix depth must be in [0, {t.depth}], got {depth}")
    node = int(t.leaf_of_item[target])
    for _ in range(t.node_depth[node] - depth):
        node = int(t.parent[node])
    # a leaf above depth stays put: its prefix ends in pads, which no other path shares
    shares = _items_below(t, node)
    positives = shares[shares != target]
    if positives.size == 0:
        raise ValueError(f"no item shares the depth-{depth} prefix of item {target}")
    if shares.size == t.n_items:
        raise ValueError(f"every item shares the depth-{depth} prefix of item {target}")
    rng = np.random.default_rng(seed)
    pos = int(positives[rng.integers(positives.size)])
    # the j-th item outside shares is j plus the number of shares below it
    j = rng.integers(t.n_items - shares.size)
    neg = int(j + np.searchsorted(shares - np.arange(shares.size), j, side="right"))
    return pos, neg


def total_loss(gen: float, ali: float, rank: float, w: LossWeights) -> float:
    """Weighted sum: generation + lambda_a * alignment + lambda_r * ranking."""
    return gen + w.lambda_a * ali + w.lambda_r * rank
