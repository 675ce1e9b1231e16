"""Output checks written apart from the program under test.

Nothing here imports `treeid`: every expected value is computed from the raw
files (tree JSON, SEMB embeddings, ranking and eval CSVs) or from the loss
inputs, so a fault in the program cannot hide in its own checker. Each check
returns a list of human-readable problems; an empty list means the output
passed.
"""

import csv
import json
import struct

import numpy as np

TREE_FORMAT = "treeid-v1"
_SEMB_HEADER = struct.Struct("<4sIQI")


# --- embeddings -------------------------------------------------------------


def read_semb(path) -> np.ndarray:
    """Read a SEMB embedding file into an (n, d) float32 array."""
    with open(path, "rb") as f:
        magic, version, n, d = _SEMB_HEADER.unpack(f.read(_SEMB_HEADER.size))
        payload = f.read()
    if magic != b"SEMB" or version != 1 or len(payload) != n * d * 4:
        raise ValueError(f"{path}: not a version-1 SEMB file of {n}x{d}")
    return np.frombuffer(payload, dtype="<f4").reshape(n, d)


def write_semb(path, arr) -> None:
    """Write an (n, d) array as a SEMB embedding file (float32, little endian)."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as f:
        f.write(_SEMB_HEADER.pack(b"SEMB", 1, arr.shape[0], arr.shape[1]))
        f.write(arr.tobytes())


# --- trees ------------------------------------------------------------------


class TreeView:
    """A tree JSON document decoded into arrays, in canonical node order.

    Node ids follow the documented canonical order: the root is 0, then every
    level's nodes in lexicographic order of their token prefix. node_of[i, l]
    is the id of the depth-l node on item i's path (column 0 is the root) and
    -1 past the item's leaf. means[n] is the mean embedding of the items under
    node n, so means[leaf] is the item's own row.
    """

    def __init__(self, k, depth, paths, lengths, node_of, n_nodes):
        self.k = k
        self.depth = depth
        self.paths = paths
        self.lengths = lengths
        self.node_of = node_of
        self.n_nodes = n_nodes
        self.means = None

    @property
    def n_items(self) -> int:
        return self.paths.shape[0]


def load_tree_doc(path) -> dict:
    with open(path) as f:
        return json.load(f)


def check_tree_doc(doc) -> tuple[list[str], TreeView | None]:
    """Validate a tree document; return (problems, view or None when broken).

    Checks the header and shape, token range, the pad-suffix rule, uniqueness
    and prefix-freeness, the balance of every split of n > k items (k children
    of size floor(n/k) or floor(n/k)+1), the ordinals 0..n-1 of every leaf
    group, and that depth equals the longest path.
    """
    problems = []
    if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
        return [f"document is not a {TREE_FORMAT} object"], None
    keys = ["format", "k", "depth", "n_items", "pad_token", "paths"]
    if list(doc) != keys:
        return [f"keys {list(doc)} differ from {keys}"], None
    k, depth, n_items = doc["k"], doc["depth"], doc["n_items"]
    if not all(type(v) is int for v in (k, depth, n_items, doc["pad_token"])):
        return ["header fields must be integers"], None
    if k < 2 or doc["pad_token"] != k or n_items < 1 or depth < 1:
        return [f"bad header k={k} pad={doc['pad_token']} n={n_items} depth={depth}"], None
    rows = doc["paths"]
    if len(rows) != n_items or any(len(r) != depth for r in rows):
        return [f"paths are not {n_items} rows of {depth} tokens"], None
    if any(type(t) is not int for r in rows for t in r):
        return ["path tokens must be integers"], None
    paths = np.asarray(rows, dtype=np.int64)
    if ((paths < 0) | (paths > k)).any():
        return [f"a token lies outside [0, {k}]"], None
    is_pad = paths == k
    if (is_pad[:, :-1] & ~is_pad[:, 1:]).any():
        return ["a real token follows a pad token"], None
    lengths = depth - is_pad.sum(axis=1)
    if (lengths == 0).any():
        return ["an item has an all-pad path"], None
    if int(lengths.max()) != depth:
        problems.append(f"depth {depth} but the longest path has {int(lengths.max())} tokens")

    order = np.lexsort(paths.T[::-1])
    sp, sl = paths[order], lengths[order]
    rows = np.arange(n_items)
    node_of = np.full((n_items, depth + 1), -1, dtype=np.int64)
    node_of[:, 0] = 0
    # start[i]: sorted row i begins a new group of rows sharing a depth-l prefix
    start = np.zeros(n_items, dtype=bool)
    start[0] = True
    next_id = 1
    for level in range(depth + 1):
        gid = np.cumsum(start) - 1
        size = np.bincount(gid)[gid]
        ended = sl == level
        if (ended & (size > 1)).any():
            i = int(order[np.argmax(ended & (size > 1))])
            return [f"path of item {i} is a prefix of another path or a duplicate"], None
        if level == depth:
            break
        live = sl > level
        tok = sp[:, level]
        child_start = start.copy()
        child_start[1:] |= tok[1:] != tok[:-1]
        child_start &= live
        child_gid = np.cumsum(child_start) - 1
        first_row = np.nonzero(start)[0]
        # a leaf group of n <= k items ends here with ordinals 0..n-1
        bad = live & (size <= k) & ((sl != level + 1) | (tok != rows - first_row[gid]))
        if bad.any():
            i = int(order[np.argmax(bad)])
            problems.append(f"leaf group holding item {i} at depth {level} breaks the 0..n-1 ordinals")
        # a split of n > k items has k children of size floor(n/k) or floor(n/k)+1
        split_rows = live & (size > k)
        kid_starts = child_start & split_rows
        n = size[kid_starts]
        kid_size = np.bincount(child_gid[live])[child_gid[kid_starts]]
        bad_kid = (kid_size < n // k) | (kid_size > n // k + 1)
        is_split = np.zeros(first_row.size, dtype=bool)
        is_split[gid[split_rows]] = True
        bad_arity = is_split & (np.bincount(gid[kid_starts], minlength=first_row.size) != k)
        if bad_kid.any():
            i = int(order[np.nonzero(kid_starts)[0][np.argmax(bad_kid)]])
            problems.append(f"split at depth {level} above item {i} has a child of the wrong size")
        if bad_arity.any():
            i = int(order[first_row[np.argmax(bad_arity)]])
            problems.append(f"split at depth {level} above item {i} does not have {k} children")
        if problems:
            return problems, None
        node_of[order[live], level + 1] = next_id + child_gid[live]
        next_id += int(child_start.sum())
        start = child_start | ~live
    return problems, (None if problems else TreeView(k, depth, paths, lengths, node_of, next_id))


def attach_means(view: TreeView, X) -> None:
    """Fill view.means: per node, the float64 mean of the items beneath it."""
    X = np.asarray(X, dtype=np.float64)
    sums = np.zeros((view.n_nodes, X.shape[1]))
    counts = np.zeros(view.n_nodes)
    for level in range(view.depth + 1):
        ids = view.node_of[:, level]
        live = ids >= 0
        np.add.at(sums, ids[live], X[live])
        counts += np.bincount(ids[live], minlength=view.n_nodes)
    view.means = sums / counts[:, None]


def tree_sse(view: TreeView, X) -> float:
    """Sum over split nodes of ||x - m||^2, m the mean of x's child subtree.

    Leaf groups add nothing (each child is one item), so this is the sum over
    every non-root node on every item's path of the distance to its mean.
    """
    X = np.asarray(X, dtype=np.float64)
    total = 0.0
    for level in range(1, view.depth + 1):
        ids = view.node_of[:, level]
        live = ids >= 0
        diff = X[live] - view.means[ids[live]]
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


def path_scores(view: TreeView, queries, items) -> np.ndarray:
    """Beam score of each item per query: sum of q . (node mean) along its path."""
    q = np.asarray(queries, dtype=np.float64)
    ids = view.node_of[np.asarray(items), 1:]  # (Q, top, depth)
    node_dots = np.einsum("qtld,qd->qtl", view.means[np.maximum(ids, 0)], q)
    return np.where(ids >= 0, node_dots, 0.0).sum(axis=2)


def children_table(view: TreeView) -> np.ndarray:
    """kids[n, tok]: the id of node n's child on token tok, or -1."""
    kids = np.full((view.n_nodes, view.k), -1, dtype=np.int64)
    for level in range(1, view.depth + 1):
        on = view.node_of[:, level] >= 0
        kids[view.node_of[on, level - 1], view.paths[on, level - 1]] = view.node_of[on, level]
    return kids


def beam_rankings(view: TreeView, queries, beam: int, top: int, chunk: int = 200):
    """The documented beam search, redone on arrays: (items, ambiguous).

    Each level expands every live hypothesis to its node's children, scoring
    a child by q . (node mean); the pool of those and of the hypotheses that
    already reached a leaf keeps its `beam` best sums, and the search ends
    when no live hypothesis is left. items[q] are query q's `top` best
    leaves, best first. The program's node vectors can differ from
    view.means in the last bits, so where two sums a cut or the final order
    depends on lie within rounding of each other, ambiguous[q] is set and
    the query's ranking is not determined here.
    """
    kids = children_table(view)
    item_of = np.full(view.n_nodes, -1, dtype=np.int64)
    item_of[view.node_of[np.arange(view.n_items), view.lengths]] = np.arange(view.n_items)
    Q = np.asarray(queries, dtype=np.float64)
    items = np.empty((len(Q), top), dtype=np.int64)
    ambiguous = np.zeros(len(Q), dtype=bool)
    for lo in range(0, len(Q), chunk):
        q = Q[lo : lo + chunk]
        score = np.zeros((len(q), 1))
        node = np.zeros((len(q), 1), dtype=np.int64)
        amb = np.zeros(len(q), dtype=bool)
        while True:
            live = np.isfinite(score) & (item_of[node] < 0)
            if not live.any():
                break
            child = np.where(live[..., None], kids[node], -1)  # (q, B, k)
            dots = np.einsum("qbkd,qd->qbk", view.means[np.maximum(child, 0)], q)
            child_score = np.where(child >= 0, score[..., None] + dots, -np.inf)
            pool_score = np.concatenate([np.where(live, -np.inf, score), child_score.reshape(len(q), -1)], axis=1)
            pool_node = np.concatenate([node, child.reshape(len(q), -1)], axis=1)
            order = np.argsort(-pool_score, axis=1, kind="stable")
            ranked = np.take_along_axis(pool_score, order, axis=1)
            if ranked.shape[1] > beam:
                amb |= _near(ranked[:, beam - 1], ranked[:, beam])
            score, node = ranked[:, :beam], np.take_along_axis(pool_node, order[:, :beam], axis=1)
        if score.shape[1] < top or not np.isfinite(score[:, :top]).all():
            raise ValueError(f"the tree has fewer than {top} leaves a beam of {beam} reaches")
        # the final order of the top items, and which item comes in at rank top
        cut = min(top + 1, score.shape[1])
        amb |= _near(score[:, : cut - 1], score[:, 1:cut]).any(axis=1)
        items[lo : lo + chunk] = item_of[node[:, :top]]
        ambiguous[lo : lo + chunk] = amb
    return items, ambiguous


def _near(a, b):
    """Sums close enough that rounding of the node vectors could swap them."""
    with np.errstate(invalid="ignore"):  # -inf - -inf: empty slots, never near
        return np.isfinite(a) & np.isfinite(b) & (np.abs(a - b) <= 1e-9 * (1.0 + np.abs(a)))


# --- ranking and eval CSVs --------------------------------------------------


def read_ranking_csv(path):
    """Return (queries, ranks, items) int arrays and the score strings."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["query", "rank", "item", "score"]:
        raise ValueError(f"{path}: header is not query,rank,item,score")
    body = rows[1:]
    cols = np.asarray([r[:3] for r in body], dtype=np.int64).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2], [r[3] for r in body]


def six_digit_tolerance(expected) -> np.ndarray:
    """Half a unit in the sixth significant digit, plus a hair for rounding."""
    mag = np.abs(np.asarray(expected, dtype=np.float64))
    exp10 = np.floor(np.log10(np.maximum(mag, 1e-300)))
    return 0.5 * 10.0 ** (exp10 - 5) * (1 + 1e-6) + 1e-300


def check_ranking(path, view: TreeView, queries, top: int) -> list[str]:
    """Validate a ranking CSV against the path scores the tree implies."""
    qs, ranks, items, scores = read_ranking_csv(path)
    n_q = len(queries)
    if qs.size != n_q * top:
        return [f"{qs.size} ranking rows, expected {n_q} queries x {top}"]
    qs, ranks, items = qs.reshape(n_q, top), ranks.reshape(n_q, top), items.reshape(n_q, top)
    problems = []
    if (qs != np.arange(n_q)[:, None]).any():
        problems.append("query ids are not 0..Q-1 in order")
    if (ranks != np.arange(1, top + 1)[None, :]).any():
        problems.append(f"ranks do not run 1..{top}")
    if ((items < 0) | (items >= view.n_items)).any():
        return problems + ["an item id is out of range"]
    srt = np.sort(items, axis=1)
    if (srt[:, 1:] == srt[:, :-1]).any():
        problems.append("a query lists an item twice")
    got = np.asarray([float(s) for s in scores]).reshape(n_q, top)
    if (got[:, 1:] > got[:, :-1]).any():
        problems.append("scores increase down a ranking")
    want = path_scores(view, queries, items)
    bad = np.abs(got - want) > six_digit_tolerance(want)
    if bad.any():
        q, r = np.argwhere(bad)[0]
        problems.append(
            f"query {q} rank {r + 1}: score {scores[q * top + r]} but the path sums to {want[q, r]!r}"
        )
    return problems


def check_beam(path, view: TreeView, queries, beam: int, top: int) -> list[str]:
    """Each query's ranked items are the ones the documented beam search finds.

    A faster search that narrows the beam or prunes differently returns other
    items, with scores that still sum along their paths; this catches it.
    """
    _, _, items, _ = read_ranking_csv(path)
    if items.size != len(queries) * top:
        return [f"{items.size} ranking rows, expected {len(queries)} queries x {top}"]
    want, ambiguous = beam_rankings(view, queries, beam, top)
    bad = (items.reshape(len(queries), top) != want).any(axis=1) & ~ambiguous
    if bad.any():
        q = int(np.argmax(bad))
        return [f"{int(bad.sum())} queries (first: {q}) rank other items than a beam of {beam} finds"]
    return []


def hit_rate(path, truth_items, cutoff: int) -> float:
    """Share of queries whose source item appears in the first `cutoff` rows."""
    qs, ranks, items, _ = read_ranking_csv(path)
    hits = set()
    for q, r, it in zip(qs.tolist(), ranks.tolist(), items.tolist()):
        if r <= cutoff and it == truth_items[q]:
            hits.add(q)
    return len(hits) / len(truth_items)


def check_eval(path, ranking_path, truth_items, cutoffs) -> list[str]:
    """Recompute hit, recall and NDCG (one relevant item per query)."""
    qs, ranks, items, _ = read_ranking_csv(ranking_path)
    rank_of = np.full(len(truth_items), np.inf)
    for q, r, it in zip(qs.tolist(), ranks.tolist(), items.tolist()):
        if it == truth_items[q]:
            rank_of[q] = min(rank_of[q], r)
    want = {}
    for c in cutoffs:
        found = rank_of <= c
        want[("hit", c)] = want[("recall", c)] = float(found.mean())
        gains = np.where(found, 1.0 / np.log2(np.minimum(rank_of, c) + 1.0), 0.0)
        want[("ndcg", c)] = float(gains.mean())
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["metric", "cutoff", "value"]:
        return [f"{path}: header is not metric,cutoff,value"]
    got = {(m, int(c)): v for m, c, v in rows[1:]}
    if set(got) != set(want):
        return [f"eval rows {sorted(got)} differ from {sorted(want)}"]
    problems = []
    for key, value in sorted(want.items()):
        if abs(float(got[key]) - value) > float(six_digit_tolerance(value)):
            problems.append(f"{key[0]}@{key[1]} is {got[key]}, recomputed {value!r}")
    return problems


# --- losses -----------------------------------------------------------------


def softplus_gap(z, target: int) -> float:
    """-log softmax(z)[target], as log1p(sum_j exp(z_j - z_target)) for j != target.

    Stable where the target's logit leads by a wide margin: the small value
    is computed directly instead of as the difference of two large ones.
    """
    z = np.asarray(z, dtype=np.float64)
    gaps = np.delete(z, target) - z[target]
    top = float(gaps.max(initial=-np.inf))
    if top <= 0.0:
        return float(np.log1p(np.exp(gaps).sum()))
    # the target does not lead: factor out the largest logit instead
    return top + float(np.log(np.exp(-top) + np.exp(gaps - top).sum()))


def softmax(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def close(got, want, atol=0.0, rel=1e-6) -> bool:
    """Elementwise |got - want| <= atol + rel * |want|, shapes equal."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool((np.abs(got - want) <= atol + rel * np.abs(want)).all())


def generation_reference(step_scores, target, pad):
    """Stable generation value and gradients (softmax minus one-hot per step)."""
    value, grads = 0.0, []
    for step, tok in enumerate(target):
        z = np.asarray(step_scores[step] if step < len(step_scores) else [], dtype=np.float64)
        g = np.zeros_like(z)
        if tok != pad:
            value += softplus_gap(z, tok)
            g = softmax(z)
            g[tok] -= 1.0
        grads.append(g)
    return value, grads


def generation_value_exact(value, step_scores, target, pad) -> bool:
    """True when a generation value is within 1e-6 relative of the stable form."""
    want = generation_reference(step_scores, target, pad)[0]
    return abs(value - want) <= 1e-6 * abs(want)


def check_generation(step_scores, target, pad, loss, grads) -> list[str]:
    """Generation cross-entropy: gradients to 1e-6, the value to the rounding of its logits.

    Like the alignment value, a value that loses its relative accuracy to
    cancellation passes here and is judged by generation_value_exact.
    """
    want, want_grads = generation_reference(step_scores, target, pad)
    problems = []
    scale = sum(float(np.abs(np.asarray(z)).max(initial=0.0)) for z in step_scores)
    if not abs(loss - want) <= 1e-9 * (1.0 + scale):
        problems.append(f"generation loss {loss!r}, stable value {want!r}")
    for step, (g, w) in enumerate(zip(grads, want_grads)):
        if not close(g, w, atol=1e-12):
            problems.append(f"generation gradient at step {step} differs from softmax - one-hot")
    if len(grads) != len(want_grads):
        problems.append(f"{len(grads)} generation gradients for {len(want_grads)} steps")
    return problems


def alignment_reference(child, parent, negatives, tau):
    """Stable alignment value, the logits, and the gradients of the loss."""
    c = np.asarray(child, dtype=np.float64)
    p = np.asarray(parent, dtype=np.float64)
    n = np.asarray(negatives, dtype=np.float64)
    z = np.concatenate([[c @ p], n @ c]) / tau
    w = softmax(z)
    rest = w[1:].sum()  # 1 - w[0] without cancellation
    grads = ((-rest * p + w[1:] @ n) / tau, -rest * c / tau, w[1:, None] * c[None, :] / tau)
    return softplus_gap(z, 0), z, grads


def alignment_value_exact(value, child, parent, negatives, tau) -> bool:
    """True when an alignment value is within 1e-6 relative of the stable form."""
    want = alignment_reference(child, parent, negatives, tau)[0]
    return abs(value - want) <= 1e-6 * abs(want)


def check_alignment(child, parent, negatives, tau, result) -> list[str]:
    """Alignment loss: gradients to 1e-6, the value to the rounding of its logits.

    A value may lose its relative accuracy to cancellation and still pass
    here; alignment_value_exact judges that apart (see the README).
    """
    value, g_child, g_parent, g_negs = result
    want, z, (w_child, w_parent, w_negs) = alignment_reference(child, parent, negatives, tau)
    problems = []
    if not abs(value - want) <= 1e-9 * (1.0 + float(np.abs(z).max())):
        problems.append(f"alignment loss {value!r}, stable value {want!r}")
    atol = 1e-12 * max(float(np.abs(np.asarray(v)).max()) for v in (child, parent, negatives)) / tau
    for name, got, ref in (("child", g_child, w_child), ("parent", g_parent, w_parent),
                           ("negatives", np.asarray(g_negs), w_negs)):
        if not close(got, ref, atol=atol):
            problems.append(f"alignment gradient for the {name} differs")
    return problems


def check_ranking_loss(q, pos, neg, margin, result) -> list[str]:
    """Hinge max(0, margin - q.p + q.n), gradients (n - p, -q, q) while active."""
    value, g_q, g_p, g_n = result
    q, pos, neg = (np.asarray(v, dtype=np.float64) for v in (q, pos, neg))
    gap = margin - q @ pos + q @ neg
    zero = np.zeros_like(q)
    want = (gap, neg - pos, -q, q) if gap > 0 else (0.0, zero, zero, zero)
    scale = 1e-12 * (1.0 + float(np.abs(q).sum() * (np.abs(pos).max() + np.abs(neg).max())))
    if not close(value, want[0], atol=scale):
        return [f"ranking loss {value!r}, hinge {want[0]!r}"]
    if not all(close(g, w) for g, w in zip((g_q, g_p, g_n), want[1:])):
        return ["ranking loss gradients differ from the hinge's"]
    return []


def check_triplet(paths, target, depth, pos, neg) -> list[str]:
    """The positive shares >= depth prefix tokens with the target; the negative fewer."""
    prefix = paths[target, :depth]
    problems = []
    if pos == target or (paths[pos, :depth] != prefix).any():
        problems.append(f"positive {pos} does not share the depth-{depth} prefix of {target}")
    if (paths[neg, :depth] == prefix).all():
        problems.append(f"negative {neg} shares the depth-{depth} prefix of {target}")
    return problems
