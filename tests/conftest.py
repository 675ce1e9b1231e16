"""Shared test helpers: independent oracles kept deliberately naive."""

import numpy as np

from treeid.core import IdentifierTree, TreeBuildConfig
from treeid.treebuild import build_tree


def _feasible_totals(costs, m, M) -> np.ndarray:
    """Total cost of each of the k^N assignments that meet the load bounds."""
    costs = np.asarray(costs, dtype=np.int64)
    n, k = costs.shape
    grids = np.indices((k,) * n).reshape(n, -1).T  # (k^n, n)
    loads = np.stack([(grids == j).sum(axis=1) for j in range(k)], axis=1)
    feasible = (loads >= m).all(axis=1) & (loads <= M).all(axis=1)
    assert feasible.any(), "oracle called on an infeasible instance"
    return costs[np.arange(n)[None, :], grids].sum(axis=1)[feasible]


def brute_force_min_cost(costs, m, M) -> int:
    """Exhaustive minimum over all k^N assignments meeting the load bounds."""
    return int(_feasible_totals(costs, m, M).min())


def brute_force_optima(costs, m, M) -> int:
    """How many of the k^N assignments meeting the load bounds reach the minimum."""
    totals = _feasible_totals(costs, m, M)
    return int((totals == totals.min()).sum())


def central_diff(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at 1-D point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


def rel_err(analytic, numeric) -> float:
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(1e-12, float(np.abs(numeric).max()), float(np.abs(analytic).max()))
    return float(np.abs(analytic - numeric).max()) / denom


def rand_tree(rng, n, k, dim=4, method="greedy"):
    """A real built tree over random points (greedy keeps this fast)."""
    pts = rng.normal(size=(n, dim)).astype(np.float32)
    cfg = TreeBuildConfig(
        k=k,
        method=method,
        seed=int(rng.integers(1 << 31)),
        lloyd_max_iters=5,
        outer_max_iters=2,
        greedy_threshold=max(k, 64),
    )
    return build_tree(pts, cfg)


def sparse_tree():
    """A valid k = 3 tree over 4 items whose node (0,) has 2 of its 3 child slots.

    Nodes, breadth-first: the root 0, (0,) 1, (1,) 2, (2,) 3, then (0, 0) 4
    and (0, 1) 5. Items 0-3 sit at (0, 0), (0, 1), (1,) and (2,).
    """
    return IdentifierTree.from_paths(3, [[0, 0], [0, 1], [1, 3], [2, 3]])


def table_scorer(tree, rng, scale=1.0):
    """Random but fixed per-node child scores; pure per query by construction.

    Each node with children gets one score per child, in branch-ordinal
    order.
    """
    n_kids = np.diff(tree.child_start)
    table = {
        node: rng.normal(scale=scale, size=int(n))
        for node, n in enumerate(n_kids)
        if n
    }

    def scorer(context, node):
        return table[node]

    return scorer


def exhaustive_ranking(tree, scorer, context):
    """Score every leaf by walking its full path; rank by (-score, path)."""
    results = []
    for item in range(tree.n_items):
        tokens = [int(t) for t in tree.paths[item] if t != tree.k]
        node = 0
        score = 0.0
        path = ()
        for tok in tokens:
            score += float(np.asarray(scorer(context, node)).ravel()[tok])
            node = int(tree.children(node)[tok])
            path = path + (tok,)
        results.append((score, path, item))
    results.sort(key=lambda r: (-r[0], r[1]))
    return [(item, score) for score, _, item in results]


# --- naive trie walks: the reference for the array-built tree -------------


def trim_paths(paths, k):
    """Per-item token tuples truncated at the first pad."""
    rows = [[int(t) for t in row] for row in np.asarray(paths)]
    return [tuple(row[: _pad_at(row, k)]) for row in rows]


def _pad_at(row, k):
    return row.index(k) if k in row else len(row)


def naive_arena(k, paths):
    """Level-by-level Python walk: (parent, children tuples, node_item, leaf_of_item).

    Node ids come out breadth-first; children[n] lists child ids by branch
    ordinal, -1 where an ordinal below the largest is missing. Raises
    ValueError for duplicate paths and for a path that is a prefix of another.
    """
    paths = np.asarray(paths)
    n_items = paths.shape[0]
    trimmed = trim_paths(paths, k)
    parent, children, node_item = [-1], [{}], [-1]
    leaf_of_item = [-1] * n_items
    frontier = [(0, list(range(n_items)))]
    level = 0
    while frontier:
        next_frontier = []
        for node, items in frontier:
            groups = {}
            for it in items:
                p = trimmed[it]
                if len(p) == level:
                    if node_item[node] != -1 or groups:
                        raise ValueError(f"path of item {it} is a prefix of another path")
                    node_item[node] = it
                    leaf_of_item[it] = node
                else:
                    if node_item[node] != -1:
                        raise ValueError(f"path of item {node_item[node]} is a prefix of another path")
                    groups.setdefault(p[level], []).append(it)
            for tok in sorted(groups):
                child = len(parent)
                parent.append(node)
                children.append({})
                node_item.append(-1)
                children[node][tok] = child
                next_frontier.append((child, groups[tok]))
        frontier = next_frontier
        level += 1
    frozen = [tuple(d.get(t, -1) for t in range(max(d) + 1)) if d else () for d in children]
    return parent, frozen, node_item, leaf_of_item


def naive_violations(k, depth, paths):
    """The checks of validate_paths by a Python walk of the implicit trie."""
    paths = np.asarray(paths)
    n_items = paths.shape[0]
    if paths.dtype.kind not in "iu":
        return [f"tokens must be integers, got dtype {paths.dtype}"]
    bad = (paths < 0) | (paths > k)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [f"token {paths[i, j]} out of range at item {i}, position {j}"]
    violations = []
    rows = [[int(t) for t in row] for row in paths]
    for i, row in enumerate(rows):
        at = _pad_at(row, k)
        if any(t != k for t in row[at:]):
            violations.append(f"item {i} has a non-pad token after a pad token")
            break
    for i, row in enumerate(rows):
        if all(t == k for t in row):
            violations.append(f"item {i} has an all-pad path")
            break
    if violations:
        return violations

    trimmed = trim_paths(paths, k)
    longest = max(len(p) for p in trimmed)
    if longest != depth:
        violations.append(f"declared depth {depth} but longest path has {longest} tokens")
    seen = {}
    for it, p in enumerate(trimmed):
        if p in seen:
            return violations + [f"items {seen[p]} and {it} share the same path"]
        seen[p] = it

    frontier = [((), list(range(n_items)))]
    while frontier:
        next_frontier = []
        for prefix, items in frontier:
            n = len(items)
            level = len(prefix)
            groups = {}
            for it in items:
                p = trimmed[it]
                if len(p) == level:
                    if n > 1:
                        return violations + [f"path of item {it} is a prefix of another path"]
                else:
                    groups.setdefault(p[level], []).append(it)
            if not groups:
                continue
            sizes = {tok: len(g) for tok, g in groups.items()}
            if n > k:
                lo, hi = n // k, n // k + 1
                if len(groups) != k:
                    violations.append(
                        f"split of {n} items at prefix {prefix} has {len(groups)} children, expected {k}"
                    )
                for tok, s in sorted(sizes.items()):
                    if not lo <= s <= hi:
                        violations.append(
                            f"split of {n} items at prefix {prefix}: child {tok} has size {s}, "
                            f"outside [{lo}, {hi}]"
                        )
            else:
                if sorted(groups) != list(range(n)) or any(s != 1 for s in sizes.values()):
                    violations.append(
                        f"leaf group of {n} items at prefix {prefix} must use ordinals 0..{n - 1} once each"
                    )
                violations.extend(
                    f"leaf group of {n} items at prefix {prefix}: child {tok} is not a leaf"
                    for tok, g in sorted(groups.items())
                    if any(len(trimmed[it]) > level + 1 for it in g)
                )
            next_frontier.extend((prefix + (tok,), g) for tok, g in sorted(groups.items()))
        frontier = next_frontier
    return violations
