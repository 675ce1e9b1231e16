import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeid import treebuild
from treeid.clustering import cluster_level
from treeid.core import TreeBuildConfig, validate_tree
from treeid.treebuild import (
    InvalidEmbeddingsError,
    build_tree,
    build_tree_with_stats,
    item_of,
    node_embeddings,
    path_of,
)

from conftest import gapped_tree, rand_tree


def test_small_group_gets_sequential_identifiers():
    X = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=8))
    assert t.depth == 1
    assert t.paths.tolist() == [[0], [1], [2], [3], [4]]


def test_no_k_wide_allocation_after_the_last_split():
    X = np.random.default_rng(0).normal(size=(50, 4)).astype(np.float32)
    cfg = TreeBuildConfig(k=10**7, greedy_threshold=10**7)
    tracemalloc.start()
    try:
        t = build_tree(X, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.paths.tolist() == [[i] for i in range(50)]
    assert peak < 1 << 20


def test_level_one_sizes_forced_by_bounds():
    X = np.random.default_rng(1).normal(size=(10, 3)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=3, seed=2))
    sizes = np.bincount(t.paths[:, 0], minlength=3)
    assert sorted(sizes.tolist()) == [3, 3, 4]


def test_three_blobs_split_blob_pure():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.vstack([c + rng.normal(0, 0.05, size=(3, 2)) for c in centers]).astype(np.float32)
    labels = np.repeat(np.arange(3), 3)

    # independent oracle: the optimal balanced 3-partition is blob-pure
    best_cost, best_parts = None, None
    items = list(range(9))
    for g0 in itertools.combinations(items, 3):
        rest = [i for i in items if i not in g0]
        for g1 in itertools.combinations(rest, 3):
            g2 = tuple(i for i in rest if i not in g1)
            cost = sum(
                ((X[list(g)] - X[list(g)].mean(axis=0)) ** 2).sum() for g in (g0, g1, g2)
            )
            if best_cost is None or cost < best_cost:
                best_cost, best_parts = cost, (g0, g1, g2)
    oracle = {frozenset(g) for g in best_parts}
    assert oracle == {frozenset(np.nonzero(labels == b)[0].tolist()) for b in range(3)}

    for method in ("constrained", "greedy", "hybrid"):
        t = build_tree(X, TreeBuildConfig(k=3, method=method, seed=4, greedy_threshold=3))
        groups = {frozenset(np.nonzero(t.paths[:, 0] == j)[0].tolist()) for j in range(3)}
        assert groups == oracle, method


def test_path_round_trips():
    X = np.random.default_rng(3).normal(size=(40, 3)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=3, seed=1))
    seen = set()
    for i in range(40):
        p = path_of(t, i)
        seen.add(tuple(p.tolist()))
        assert item_of(t, p) == i
    assert len(seen) == 40


def test_path_of_range_check():
    X = np.random.default_rng(4).normal(size=(6, 2)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=8))
    with pytest.raises(IndexError):
        path_of(t, 6)


def test_item_of_absent_cases():
    X = np.random.default_rng(5).normal(size=(5, 2)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=3, seed=0))
    assert item_of(t, [9] + [t.k] * (t.depth - 1)) is None  # ordinal >= k
    assert item_of(t, [0, 1, 0, 0, 0]) is None  # wanders past the tree
    # every nonexistent extension of a valid internal prefix is absent
    for first in range(3):
        prefix_items = np.nonzero(t.paths[:, 0] == first)[0]
        real = {int(t.paths[i, 1]) for i in prefix_items if t.paths[i, 1] != t.k}
        for tok in set(range(3)) - real:
            assert item_of(t, [first, tok]) is None


def test_item_of_on_a_gapped_tree():
    t = gapped_tree()
    leaves = {(0, 0): 0, (0, 2): 1, (2, 1): 2}
    for length in range(4):  # -1 and 5 are out of range, 3 is a missing ordinal, 4 the pad
        for path in itertools.product(range(-1, 6), repeat=length):
            want = leaves.get(path[:2] if path[2:] == (4,) else path)
            assert item_of(t, path) == want, path


def test_item_of_internal_prefix_is_absent():
    X = np.random.default_rng(6).normal(size=(30, 2)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=2, seed=0))
    assert t.depth > 1
    assert item_of(t, [0]) is None


def test_node_embeddings_values():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [10.0, 10.0], [12.0, 10.0]], dtype=np.float32)
    t = build_tree(X, TreeBuildConfig(k=8))
    embs = node_embeddings(t, X)
    assert np.allclose(embs[0], X.mean(axis=0))  # root is the global mean
    for i in range(5):
        assert np.allclose(embs[t.leaf_of_item[i]], X[i])  # leaves are exact rows


def test_node_embeddings_internal_mean():
    # force {0,1,2} under one level-1 node: three tight points beat two far ones
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [100.0, 0.0], [102.0, 0.0], [104.0, 0.0]], dtype=np.float32)
    t = build_tree(X, TreeBuildConfig(k=2, seed=3))
    embs = node_embeddings(t, X)
    first = t.paths[0, 0]
    node = t.children(0)[first]
    group = np.nonzero(t.paths[:, 0] == first)[0]
    assert np.allclose(embs[node], X[group].mean(axis=0))


def test_node_embeddings_dimension_mismatch():
    X = np.random.default_rng(7).normal(size=(6, 2)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=8))
    with pytest.raises(ValueError):
        node_embeddings(t, X[:5])


def test_invalid_embeddings_rejected():
    X = np.random.default_rng(8).normal(size=(6, 2)).astype(np.float32)
    X[2, 1] = np.nan
    with pytest.raises(InvalidEmbeddingsError):
        build_tree(X, TreeBuildConfig(k=2))


def test_same_seed_bit_identical_and_threads_agree():
    X = np.random.default_rng(9).normal(size=(80, 4)).astype(np.float32)
    cfg = TreeBuildConfig(k=3, method="hybrid", greedy_threshold=20, seed=11)
    a = build_tree(X, cfg)
    b = build_tree(X, cfg)
    assert np.array_equal(a.paths, b.paths)


@pytest.mark.parametrize("method", ["greedy", "constrained", "hybrid"])
@pytest.mark.parametrize("scale", [1e0, 1e2, 1e4, 1e5, 1e6, 1e7, 1e8])
def test_builds_at_large_coordinate_scales(method, scale):
    # x1e5 once overflowed the exact backend's 64-bit costs, x1e6 the hybrid
    X = (np.random.default_rng(0).normal(size=(300, 8)) * scale).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=4, method=method, greedy_threshold=64, seed=1))
    assert validate_tree(t).ok


@settings(max_examples=25, deadline=None)
@given(
    method=st.sampled_from(["greedy", "constrained", "hybrid"]),
    exponent=st.integers(0, 8),
    n=st.integers(5, 120),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_any_scale_builds_a_balanced_tree(method, exponent, n, k, seed):
    rng = np.random.default_rng(seed)
    X = (rng.normal(size=(n, 3)) * 10.0**exponent).astype(np.float32)
    cfg = TreeBuildConfig(k=k, method=method, greedy_threshold=24, seed=seed, outer_max_iters=3)
    assert validate_tree(build_tree(X, cfg)).ok


def test_depth_bound():
    rng = np.random.default_rng(10)
    for _ in range(8):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(2, 9))
        X = rng.normal(size=(n, 2)).astype(np.float32)
        t = build_tree(X, TreeBuildConfig(k=k, seed=int(rng.integers(1 << 30)), lloyd_max_iters=5))
        assert t.depth <= int(np.ceil(np.log(n) / np.log(k))) + 1
        assert validate_tree(t).ok


def test_stats_sum_split_costs():
    X = np.random.default_rng(11).normal(size=(50, 3)).astype(np.float32)
    _, stats = build_tree_with_stats(X, TreeBuildConfig(k=4, seed=0))
    assert stats.total_sse > 0
    assert stats.n_splits >= 1


def loop_node_embeddings(t, X):
    """Per-child sequential sums, deepest level first: the reference order."""
    pts = np.asarray(X, dtype=np.float64)
    sums = np.zeros((t.n_nodes, pts.shape[1]))
    counts = np.zeros(t.n_nodes, dtype=np.int64)
    sums[t.leaf_of_item] = pts
    counts[t.leaf_of_item] = 1
    depth = [0] * t.n_nodes
    for nid in range(1, t.n_nodes):
        depth[nid] = depth[t.parent[nid]] + 1
    for d in range(max(depth), 0, -1):
        for nid in range(t.n_nodes):
            if depth[nid] == d:
                sums[t.parent[nid]] += sums[nid]
                counts[t.parent[nid]] += counts[nid]
    return sums / counts[:, None]


def test_node_embeddings_bit_identical_to_sequential_sums():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n, k = int(rng.integers(2, 500)), int(rng.integers(2, 9))
        X = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4)
        t = rand_tree(rng, n, k)
        assert np.array_equal(node_embeddings(t, X), loop_node_embeddings(t, X))


def loop_build(X, cfg):
    """The per-node build: one 2-D cluster_level call per split, breadth first.

    Returns (paths, total_sse, n_splits) as the reference for the
    level-synchronous build.
    """
    pts = np.asarray(X, dtype=np.float64)
    k = cfg.k
    leaves, total_sse, n_splits, next_id = [], 0.0, 0, 1
    level = [(0, np.arange(len(pts)), ())]  # (node id, items ascending, token prefix)
    while level:
        next_level = []
        for nid, items, prefix in level:
            if items.size > k:
                rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(nid,)))
                a = cluster_level(pts[items], cfg, rng=rng)
                total_sse += a.cost
                n_splits += 1
                grouped = items[np.argsort(a.cluster_of, kind="stable")]
                for j, child in enumerate(np.split(grouped, np.cumsum(a.sizes)[:-1])):
                    next_level.append((next_id, child, prefix + (j,)))
                    next_id += 1
            else:
                leaves.append((items, prefix))
                next_id += items.size
        level = next_level
    paths = np.full((len(pts), max(len(p) for _, p in leaves) + 1), k, dtype=np.int32)
    for items, prefix in leaves:
        paths[items, : len(prefix)] = prefix
        paths[items, len(prefix)] = np.arange(items.size)
    return paths, total_sse, n_splits


def assert_matches_loop_build(X, cfg):
    tree, stats = build_tree_with_stats(X, cfg)
    paths, total_sse, n_splits = loop_build(X, cfg)
    assert np.array_equal(tree.paths, paths)
    assert type(stats.total_sse) is float and stats.total_sse == total_sse
    assert stats.n_splits == n_splits


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    k=st.sampled_from([2, 3, 8, 32]),
    method=st.sampled_from(["greedy", "constrained", "hybrid"]),
    threshold=st.integers(0, 120),
    seed=st.integers(0, 2**31 - 1),
)
def test_level_build_equals_per_node_build(n, k, method, threshold, seed):
    # most n leave leaf groups at more than one depth: a level holds groups
    # of n // k and n // k + 1 items, on both sides of k
    X = np.random.default_rng(seed).normal(size=(n, 3)).astype(np.float32)
    cfg = TreeBuildConfig(
        k=k, method=method, greedy_threshold=max(k, threshold), seed=seed, outer_max_iters=3, lloyd_max_iters=20
    )
    assert_matches_loop_build(X, cfg)


def test_level_build_with_duplicates_and_mixed_depths():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(777, 4)).astype(np.float32)
    X[100:300] = X[100]  # one blob of identical rows: k-means++ runs out of distinct points
    for k in (2, 8):
        assert_matches_loop_build(X, TreeBuildConfig(k=k, method="hybrid", greedy_threshold=64, seed=3))


def test_stack_cap_does_not_change_the_tree(monkeypatch):
    X = np.random.default_rng(14).normal(size=(2500, 3)).astype(np.float32)
    cfg = TreeBuildConfig(k=8, method="greedy", seed=5)
    tree, stats = build_tree_with_stats(X, cfg)
    monkeypatch.setattr(treebuild, "STACK_ROWS", 40)  # one or two groups per stack
    capped, capped_stats = build_tree_with_stats(X, cfg)
    assert np.array_equal(capped.paths, tree.paths)
    assert capped_stats == stats
