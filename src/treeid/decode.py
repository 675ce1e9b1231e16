"""Prefix-constrained beam search over an identifier tree.

Hypotheses only ever expand along edges that exist in the tree, so decoding
cannot leave the set of valid identifiers. Scores are summed log-scores from a
pluggable child scorer; scorers need not be normalized, only finite. A
per-node scorer(context, node) scores a node's children in ordinal order; a
batched scorer(contexts, nodes) maps (q, b) node ids (-1: none) to (q, b, width)
scores laid out like tree.children(nodes): child ids in token order, then -1.
"""

from dataclasses import dataclass

import numpy as np

from .core import IdentifierTree

_CELLS = 40_000  # (query, beam, child) cells per search: a dot scorer's gather stays a few MB


@dataclass(frozen=True)
class BeamConfig:
    """beam_width live hypotheses per level; top_n completed results returned."""

    beam_width: int
    top_n: int

    def __post_init__(self):
        if not 1 <= self.top_n <= self.beam_width:
            raise ValueError(
                f"require 1 <= top_n <= beam_width, got top_n={self.top_n}, "
                f"beam_width={self.beam_width}"
            )


class ScorerContractError(ValueError):
    """A child scorer returned the wrong arity or a non-finite score."""


def beam_search(t: IdentifierTree, scorer, context, cfg: BeamConfig) -> list[tuple[int, float]]:
    """Rank items for one query by beam search from the root.

    At each level every live hypothesis expands to all existing children of
    its node; the beam keeps the cfg.beam_width best accumulated scores, ties
    going to the lexicographically smaller path. Hypotheses that reach a leaf
    above the maximum depth complete immediately and are never rescored, so
    the per-node scorer runs at most beam_width times per level. Returns the
    top_n completed (item, log-score) pairs, best first.
    """

    def batched(_, nodes):
        real = t.children(nodes) >= 0
        out = np.zeros(real.shape)
        for pos in zip(*np.nonzero(nodes >= 0)):
            raw = np.asarray(scorer(context, int(nodes[pos])), dtype=np.float64).ravel()
            if raw.size != real[pos].sum():
                raise ScorerContractError(
                    f"scorer returned {raw.size} scores for a node with {real[pos].sum()} children"
                )
            out[pos][real[pos]] = raw
        return out

    return beam_search_batch(t, batched, [context], cfg)[0]


def beam_search_batch(
    t: IdentifierTree, scorer, contexts, cfg: BeamConfig
) -> list[list[tuple[int, float]]]:
    """beam_search for every context at once, with a batched scorer.

    Each query's beam is a row of node ids (-1: empty) in path order. A leaf
    slot stands for itself in the pool and a live slot for its children, so
    the pool is in path order too: its best scores, ties taken leftmost, are
    the best by (-score, path).
    """
    b = cfg.beam_width
    chunk = max(1, _CELLS // (b * min(t.k, t.n_items)))
    ranked = []
    for lo in range(0, len(contexts), chunk):
        ctx = contexts[lo : lo + chunk]
        node = np.zeros((len(ctx), 1), dtype=np.int64)
        score = np.zeros((len(ctx), 1))
        while True:
            live = (node >= 0) & (t.node_item[node] < 0)
            if not live.any():
                break
            raw = np.asarray(scorer(ctx, np.where(live, node, -1)), dtype=np.float64)
            child = t.children(node)  # a leaf's and an empty slot's rows are all -1
            if raw.shape != child.shape:
                raise ScorerContractError(f"scorer returned shape {raw.shape}, not {child.shape}")
            if not np.isfinite(raw[child >= 0]).all():
                raise ScorerContractError("scorer returned a non-finite score")
            child[..., 0] = np.where(live, child[..., 0], node)
            score = np.where(live[..., None], score[..., None] + raw, score[..., None])
            node, score = child.reshape(len(ctx), -1), score.reshape(len(ctx), -1)
            key = np.where(node >= 0, -score, np.inf)
            if key.shape[1] > b:
                cut = np.partition(key, b - 1, axis=1)[:, b - 1 : b]
                room = b - (key < cut).sum(axis=1, keepdims=True)
                keep = (key < cut) | ((key == cut) & (np.cumsum(key == cut, axis=1) <= room))
                cols = np.nonzero(keep)[1].reshape(len(ctx), b)
                node, score = np.take_along_axis(node, cols, 1), np.take_along_axis(score, cols, 1)
        order = np.argsort(np.where(node >= 0, -score, np.inf), axis=1, kind="stable")
        node = np.take_along_axis(node, order[:, : cfg.top_n], 1)
        score = np.take_along_axis(score, order[:, : cfg.top_n], 1)
        for n, s in zip(node, score):
            ranked.append(list(zip(t.node_item[n[n >= 0]].tolist(), s.tolist())))
    return ranked


def dot_scorer(node_embs: np.ndarray, t: IdentifierTree):
    """Child scorer scoring each child by the dot product with the query.

    node_embs is the per-node vector table (see treebuild.node_embeddings);
    stands in for a trained decoder's next-token scores at desk scale. Takes
    both contracts, multiplying whole tree.children rows in each, so a batch
    scores bit-identically to its queries one by one.
    """
    dim = node_embs.shape[1]

    def batch(context, node):
        q = np.asarray(context, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != dim:
            raise ValueError(f"query shape {q.shape} does not match node embedding dim {dim}")
        return (node_embs[t.children(node)] @ q[:, None, :, None])[..., 0]

    # scorer calls batch, not itself: a self-referencing closure is a cycle
    # that keeps node_embs alive until the cyclic garbage collector runs
    def scorer(context, node):
        if np.ndim(node) == 0:  # one node: the scores of its real children
            row = batch(np.reshape(context, (1, -1)), np.full((1, 1), node))[0, 0]
            return row[t.children(node) >= 0]
        return batch(context, node)

    return scorer
