import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeid import clustering, mincostflow
from treeid.clustering import (
    cluster_level,
    constrained_assign,
    greedy_assign,
    kmeanspp_init,
    lloyd,
    pairwise_sqdist,
    update_centroids,
)
from treeid.core import CapacityBounds, TreeBuildConfig, balanced_bounds
from treeid.mincostflow import CostOverflowError, InfeasibleBoundsError

LINE_POINTS = np.array([[6.0], [4.0], [11.0], [20.0]])
LINE_CENTROIDS = np.array([[0.0], [10.0]])


class TestKmeansppInit:
    def test_k_equals_n_is_permutation(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        cents = kmeanspp_init(pts, 6, seed=4)
        # every input point appears exactly once
        matched = set()
        for c in cents:
            hits = np.nonzero((pts == c).all(axis=1))[0]
            assert hits.size >= 1
            matched.add(int(hits[0]))
        assert matched == set(range(6))

    def test_deterministic(self):
        pts = np.random.default_rng(1).normal(size=(40, 5))
        a = kmeanspp_init(pts, 4, seed=9)
        b = kmeanspp_init(pts, 4, seed=9)
        assert np.array_equal(a, b)

    def test_duplicate_points_force_far_pick(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0]])
        for seed in range(25):
            cents = kmeanspp_init(pts, 2, seed=seed)
            assert any((c == [9.0, 9.0]).all() for c in cents)

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError):
            kmeanspp_init(np.zeros((3, 2)), 4, seed=0)


class TestLloyd:
    def test_two_blob_symmetry(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        cents = lloyd(pts, np.array([[0.0, 0.0], [10.0, 1.0]]), max_iters=50, tol=1e-9)
        assert np.allclose(sorted(cents.tolist()), [[0.0, 0.5], [10.0, 0.5]])

    def test_k_equals_n_zero_sse(self):
        pts = np.random.default_rng(2).normal(size=(5, 2))
        cents = lloyd(pts, pts.copy())
        assert np.allclose(cents, pts)
        assert pairwise_sqdist(pts, cents).min(axis=-1).sum() == pytest.approx(0.0, abs=1e-12)

    def test_sse_trace_non_increasing(self):
        pts = np.random.default_rng(3).normal(size=(12, 2))
        init = kmeanspp_init(pts, 2, seed=0)
        # the SSE after i iterations, for i = 0 (the initial centroids) to 30
        trace = [
            pairwise_sqdist(pts, lloyd(pts, init, max_iters=i, tol=1e-12)).min(axis=-1).sum()
            for i in range(31)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def reference_lloyd(pts, init, max_iters=100, tol=1e-4):
    """lloyd's loop with every assignment from pairwise_sqdist and argmin: the
    oracle for the certified assignment step."""
    pts = np.asarray(pts, dtype=np.float64)
    cents = np.array(init, dtype=np.float64, copy=True)
    n, k = pts.shape[0], cents.shape[0]
    norms = (pts * pts).sum(axis=-1)
    scale = max(1.0, float(np.sqrt(norms.max())))
    for _ in range(max_iters):
        d2 = pairwise_sqdist(pts, cents, norms)
        labels = np.argmin(d2, axis=1)
        sizes = np.bincount(labels, minlength=k)
        if not sizes.all():
            own = d2[np.arange(n), labels]
            for j in np.nonzero(sizes == 0)[0].tolist():
                idx = int(np.argmax(own))
                cents[j] = pts[idx]
                own[idx] = -1.0
            continue
        onehot = np.zeros((n, k))
        onehot[np.arange(n), labels] = 1.0
        new = (onehot.T @ pts) / sizes[:, None]
        moved = np.sqrt(((new - cents) ** 2).sum(axis=1)).max() / scale
        cents = new
        if moved < tol:
            break
    return cents


def count_sqdist_calls(monkeypatch):
    """Patch clustering.pairwise_sqdist to record the shape of every call."""
    calls = []
    inner = clustering.pairwise_sqdist

    def spy(pts, cents, pt_norms=None):
        calls.append(pts.shape)
        return inner(pts, cents, pt_norms)

    monkeypatch.setattr(clustering, "pairwise_sqdist", spy)
    return calls


@st.composite
def lloyd_cases(draw):
    """(G, n, d) stacks with k starting centroids, all scaled by 2^e: integer
    coordinates (exact ties), repeated rows, coincident centroids, and points
    that tie exactly but whose distances round differently."""
    groups, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    n, d = draw(st.integers(k, 24)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1, 3, 1000]))
    kind = draw(st.sampled_from(["grid", "normal", "mirror"]))
    if kind == "grid":
        pts = rng.integers(-span, span + 1, size=(groups, n, d)).astype(np.float64)
    else:
        pts = rng.normal(size=(groups, n, d)) * span
    if draw(st.booleans()):  # repeated points
        pts[:, n // 2 :] = pts[:, : n - n // 2]
    # starting centroids drawn from the points, with repeats: coincident
    # centroids leave clusters empty, so the reseed runs
    init = np.take_along_axis(pts, rng.integers(0, n, size=(groups, k, 1)), axis=1)
    if kind == "mirror" and k >= 2:
        # every point lies on the plane that bisects centroids 0 and 1, so
        # its two distances are equal, but their expanded forms round apart;
        # a has 22 bits, so a +- 8 and each product a * (a +- 8) are exact
        a = rng.integers(2**21, 2**22) / 2**20
        pts[:, :, 0] = a
        init[:, 1] = init[:, 0]
        init[:, 0, 0], init[:, 1, 0] = a + 8.0, a - 8.0
    e = draw(st.integers(-30, 30))
    return np.ldexp(pts, e), np.ldexp(init, e), draw(st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(case=lloyd_cases())
def test_certified_lloyd_equals_argmin_loop(case):
    pts, init, iters = case
    stacked = lloyd(pts, init, max_iters=iters)
    for g in range(pts.shape[0]):
        want = reference_lloyd(pts[g], init[g], max_iters=iters)
        assert np.array_equal(stacked[g], want), g
        assert np.array_equal(lloyd(pts[g], init[g], max_iters=iters), want), g


def test_certified_labels_are_argmin_labels():
    # one point per call, on or a few ulps off the plane that bisects
    # centroids 0 and 1: its two distances tie or nearly do, and the two
    # expanded forms round them differently
    rng = np.random.default_rng(29)
    proven = refused = 0
    for _ in range(3000):
        d, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        a = rng.integers(2**21, 2**22) / 2**20  # 22 bits: a +- 8 is exact
        x = rng.normal(size=(1, 1, d)) * 3.0
        x[0, 0, 0] = a + rng.integers(-2, 3) * 2.0**-51  # the spacing of floats in [2, 4)
        c = rng.normal(size=(1, k, d)) * 3.0
        c[0, 1] = c[0, 0]
        c[0, 0, 0], c[0, 1, 0] = a + 8.0, a - 8.0
        e = rng.integers(-30, 31)
        x, c = np.ldexp(x, e), np.ldexp(c, e)
        labels = clustering._certified_labels(x, c, np.sqrt((x * x).sum(axis=2)).max(axis=1))
        if labels is None:
            refused += 1
        else:
            proven += 1
            assert np.array_equal(labels, np.argmin(pairwise_sqdist(x, c), axis=2))
    assert proven > 300 and refused > 300


def test_certified_step_runs_and_falls_back(monkeypatch):
    calls = count_sqdist_calls(monkeypatch)
    rng = np.random.default_rng(5)
    # well-separated blobs: every label is proven, no distance matrix is formed
    blobs = rng.normal(size=(2, 40, 3)) + 50.0 * rng.integers(0, 4, size=(2, 40, 1))
    init = blobs[:, [0, 10, 20, 30]]
    got = lloyd(blobs, init, max_iters=5, tol=0.0)
    assert not calls
    for g in range(2):
        assert np.array_equal(got[g], reference_lloyd(blobs[g], init[g], max_iters=5, tol=0.0))
    # integer points on a line with a centroid halfway between two: exact ties
    line = np.arange(12, dtype=np.float64)[:, None]
    init = np.array([[2.0], [4.0], [9.0]])
    assert np.array_equal(lloyd(line, init, max_iters=1), reference_lloyd(line, init, max_iters=1))
    assert calls == [(1, 12, 1)]


def test_certified_step_at_wide_k(monkeypatch):
    # k >= 128: a near-centroid count of any 8-bit type would wrap
    calls = count_sqdist_calls(monkeypatch)
    rng = np.random.default_rng(11)
    k = 130
    # spread points: every step is proven; a grid of 36 points ties, so every step falls back
    for pts, fallbacks in ((rng.normal(size=(400, 2)) * 100.0, 0), (rng.integers(0, 6, size=(400, 2)) * 1.0, 6)):
        init = pts[rng.choice(400, size=k, replace=False)]
        assert np.array_equal(lloyd(pts, init, max_iters=6), reference_lloyd(pts, init, max_iters=6))
        assert calls == [(1, 400, 2)] * fallbacks


@pytest.mark.parametrize("tied", [False, True])
def test_lloyd_counts_each_assignment_once(tied, monkeypatch):
    calls = count_sqdist_calls(monkeypatch)
    rng = np.random.default_rng(23)
    groups, n, k, iters = 3, 30, 4, 7
    # separated blobs: every label is proven
    pts = rng.normal(size=(groups, n, 2)) + 40.0 * rng.integers(0, 4, size=(groups, n, 1))
    if tied:  # one group of equal points ties every centroid, so each step falls back
        pts[0] = 1.0
    init = pts[:, :k].copy()
    init[:, 1] = 1e4  # far from every point: cluster 1 empties and is reseeded
    before = clustering.distance_eval_count()
    lloyd(pts, init, max_iters=iters, tol=-1.0)  # a negative tol never stops early
    assert clustering.distance_eval_count() - before == iters * groups * n * k
    # untied, only the reseed needed the distance matrix, and it was counted once
    assert calls == [(groups, n, 2)] * (iters if tied else 1)


class TestConstrainedAssign:
    def test_line_instance(self):
        a = constrained_assign(LINE_POINTS, LINE_CENTROIDS, CapacityBounds(2, 2))
        assert a.sizes.tolist() == [2, 2]
        assert a.cost == pytest.approx(153.0)
        assert a.cluster_of.tolist() == [0, 0, 1, 1]  # {6,4} with 0, {11,20} with 10

    def test_separated_blobs_stay_pure(self):
        rng = np.random.default_rng(4)
        blob0 = rng.normal(0, 0.1, size=(6, 2))
        blob1 = rng.normal(0, 0.1, size=(6, 2)) + 50.0
        pts = np.vstack([blob0, blob1])
        cents = np.array([[0.0, 0.0], [50.0, 50.0]])
        a = constrained_assign(pts, cents, CapacityBounds(6, 6))
        assert a.cluster_of.tolist() == [0] * 6 + [1] * 6

    def test_unconstrained_equals_nearest(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        cents = rng.normal(size=(4, 3))
        a = constrained_assign(pts, cents, CapacityBounds(0, 30))
        d2 = clustering.pairwise_sqdist(pts, cents)
        assert a.cluster_of.tolist() == d2.argmin(axis=1).tolist()


class TestGreedyAssign:
    def test_line_instance_hand_trace(self):
        a = greedy_assign(LINE_POINTS, LINE_CENTROIDS, CapacityBounds(2, 2))
        # 6 -> c1, 4 -> c0, 11 -> c1 (now full), 20 falls back to c0
        assert a.cluster_of.tolist() == [1, 0, 1, 0]
        assert a.cost == pytest.approx(433.0)

    def test_unconstrained_matches_constrained(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(25, 2))
        cents = rng.normal(size=(3, 2))
        g = greedy_assign(pts, cents, CapacityBounds(0, 25))
        c = constrained_assign(pts, cents, CapacityBounds(0, 25))
        assert g.cluster_of.tolist() == c.cluster_of.tolist()

    def test_identical_points_fill_by_index(self):
        pts = np.ones((6, 2))
        cents = np.zeros((3, 2))
        a = greedy_assign(pts, cents, CapacityBounds(0, 2))
        assert a.cluster_of.tolist() == [0, 0, 1, 1, 2, 2]
        assert a.sizes.tolist() == [2, 2, 2]

    def test_min_size_topup(self):
        # two coincident centroids: everything wants cluster 0 first
        pts = np.array([[0.0], [0.1], [0.2], [0.3]])
        cents = np.array([[0.0], [100.0]])
        a = greedy_assign(pts, cents, CapacityBounds(2, 2))
        assert a.sizes.tolist() == [2, 2]
        # cheapest moves are the two points closest to 100
        assert a.cluster_of.tolist() == [0, 0, 1, 1]

    def test_infeasible(self):
        with pytest.raises(InfeasibleBoundsError):
            greedy_assign(LINE_POINTS, LINE_CENTROIDS, CapacityBounds(0, 1))

    def test_distance_eval_budget(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(60, 2))
        cents = rng.normal(size=(5, 2))
        before = clustering.distance_eval_count()
        greedy_assign(pts, cents, balanced_bounds(60, 5))
        assert clustering.distance_eval_count() - before <= 60 * 5

    def test_stack_counts_every_group(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(4, 60, 2))
        cents = rng.normal(size=(4, 5, 2))
        before = clustering.distance_eval_count()
        greedy_assign(pts, cents, balanced_bounds(60, 5))
        assert clustering.distance_eval_count() - before == 4 * 60 * 5

    def test_stack_equals_separate_calls_with_repairs(self):
        # points near 0 and centroids far apart on a line: every item fills
        # the nearest clusters to max_size first, so the last ones need top-ups
        rng = np.random.default_rng(15)
        n, k = 4 * 6 + 1, 4
        pts = rng.random((3, n, 1))
        cents = np.array([[[0.0], [10.0], [20.0], [30.0]]] * 3) + rng.random((3, 1, 1))
        bounds = balanced_bounds(n, k)
        stacked = greedy_assign(pts, cents, bounds)
        for g in range(3):
            one = greedy_assign(pts[g], cents[g], bounds)
            assert np.array_equal(stacked.cluster_of[g], one.cluster_of)
            assert np.array_equal(stacked.sizes[g], one.sizes)
            assert stacked.cost[g] == one.cost
            assert one.sizes.tolist() == [7, 6, 6, 6]


def test_dominance_greedy_vs_constrained():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(6, 50))
        k = int(rng.integers(2, 6))
        pts = rng.normal(size=(n, int(rng.integers(1, 5))))
        cents = rng.normal(size=(k, pts.shape[1]))
        bounds = balanced_bounds(n, k)
        g = greedy_assign(pts, cents, bounds)
        c = constrained_assign(pts, cents, bounds)
        assert g.cost >= c.cost - 1e-9


class TestUpdateCentroids:
    def test_singletons(self):
        pts = np.random.default_rng(9).normal(size=(3, 2))
        a = constrained_assign(pts, pts.copy(), CapacityBounds(1, 1))
        cents = update_centroids(pts, a, 3)
        assert np.allclose(np.sort(cents, axis=0), np.sort(pts, axis=0))

    def test_pair_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        a = constrained_assign(pts, np.array([[1.0, 0.0]]), CapacityBounds(2, 2))
        assert np.allclose(update_centroids(pts, a, 1), [[1.0, 0.0]])

    def test_matches_independent_means(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(40, 3))
        cents = rng.normal(size=(4, 3))
        a = constrained_assign(pts, cents, balanced_bounds(40, 4))
        got = update_centroids(pts, a, 4)
        for j in range(4):
            assert np.allclose(got[j], pts[a.cluster_of == j].mean(axis=0))

    def test_bit_identical_to_per_cluster_mean(self):
        rng = np.random.default_rng(14)
        for dim in (1, 2, 16):
            pts = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-4, 5, size=(300, 1))
            cents = pts[:6].copy()
            a = constrained_assign(pts, cents, balanced_bounds(300, 6))
            got = update_centroids(pts, a, 6)
            for j in range(6):
                assert np.array_equal(got[j], pts[a.cluster_of == j].mean(axis=0))

    def test_empty_cluster_needs_prev(self):
        pts = np.zeros((2, 1))
        a = constrained_assign(pts, np.array([[0.0], [5.0]]), CapacityBounds(0, 2))
        with pytest.raises(ValueError):
            update_centroids(pts, a, 2)
        prev = np.array([[0.0], [5.0]])
        assert np.allclose(update_centroids(pts, a, 2, prev=prev)[1], [5.0])


class TestDiscretize:
    def test_default_scale_whenever_it_fits(self):
        d2 = np.random.default_rng(12).random((50, 4)) * 1e6
        assert np.array_equal(clustering._discretize(d2), np.rint(d2 * clustering.COST_SCALE))

    @pytest.mark.parametrize("top", [1e15, 1e17, 1e25, 1e100, 1e305, 1.7e308])
    def test_largest_power_of_two_that_fits(self, top):
        n = 300
        d2 = np.random.default_rng(13).random((n, 4)) * top
        d2[7, 2] = top
        costs = clustering._discretize(d2)
        assert n * int(costs.max()) <= 1 << 62
        ratio = costs[7, 2] / top  # the scale, up to rounding
        scale = 2.0 ** np.round(np.log2(ratio))
        assert scale < clustering.COST_SCALE
        assert np.array_equal(costs, np.rint(d2 * scale))
        assert n * int(np.rint(top * (2 * scale))) > 1 << 62

    def test_non_finite_distances_raise(self):
        with pytest.raises(CostOverflowError):
            clustering._discretize(np.array([[1.0, np.inf]]))


class TestClusterLevel:
    def test_greedy_method_equals_zero_threshold_hybrid(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 3))
        a = cluster_level(pts, TreeBuildConfig(k=4, method="greedy", seed=2))
        b = cluster_level(pts, TreeBuildConfig(k=4, method="hybrid", greedy_threshold=4, seed=2))
        assert a.cluster_of.tolist() == b.cluster_of.tolist()

    def test_hybrid_dispatch(self, monkeypatch):
        calls = []
        real_greedy, real_constrained = clustering.greedy_assign, clustering.constrained_assign
        monkeypatch.setattr(
            clustering, "greedy_assign", lambda *a, **k: calls.append("greedy") or real_greedy(*a, **k)
        )
        monkeypatch.setattr(
            clustering,
            "constrained_assign",
            lambda *a, **k: calls.append("constrained") or real_constrained(*a, **k),
        )
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(500, 2))
        cluster_level(pts, TreeBuildConfig(k=4, method="hybrid", greedy_threshold=2000, seed=0, outer_max_iters=2))
        assert "constrained" in calls and "greedy" not in calls
        calls.clear()
        cluster_level(pts, TreeBuildConfig(k=4, method="hybrid", greedy_threshold=499, seed=0))
        assert calls == ["greedy"]

    def test_constrained_alternation_improves_or_ties_first_iterate(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(60, 2))
        cfg1 = TreeBuildConfig(k=3, method="constrained", seed=5, outer_max_iters=1)
        cfgN = TreeBuildConfig(k=3, method="constrained", seed=5, outer_max_iters=10)
        assert cluster_level(pts, cfgN).cost <= cluster_level(pts, cfg1).cost + 1e-9

    def test_requires_more_points_than_k(self):
        with pytest.raises(ValueError):
            cluster_level(np.zeros((3, 2)), TreeBuildConfig(k=3))

    def test_sizes_balanced(self):
        rng = np.random.default_rng(14)
        for method in ("greedy", "constrained"):
            pts = rng.normal(size=(23, 2))
            a = cluster_level(pts, TreeBuildConfig(k=4, method=method, seed=1, outer_max_iters=3))
            assert sorted(a.sizes.tolist()) == [5, 6, 6, 6]


def _node_rngs(seeds):
    return [np.random.default_rng(np.random.SeedSequence(5, spawn_key=(s,))) for s in seeds]


@pytest.mark.parametrize("method", ["greedy", "constrained", "hybrid"])
@pytest.mark.parametrize("n,k", [(25, 8), (4 * 6 + 1, 4), (3 * 9 + 1, 3), (40, 2)])
def test_stacked_split_equals_separate_splits(method, n, k, caplog, monkeypatch):
    short_groups = []
    top_up = clustering._top_up

    def spy(d2, assign, loads, own, m):
        short_groups.append(int((loads < m).any(axis=1).sum()))
        top_up(d2, assign, loads, own, m)

    monkeypatch.setattr(clustering, "_top_up", spy)
    rng = np.random.default_rng(16)
    groups = [
        rng.normal(size=(n, 3)),
        np.tile(rng.normal(size=(1, 3)), (n, 1)),  # all rows identical
        np.repeat(rng.normal(size=(2, 3)), [n - 1, 1], axis=0),  # two distinct rows
        np.round(rng.normal(size=(n, 3))),  # many exact ties
        rng.normal(size=(n, 3)) * 1e4,
    ]
    pts = np.stack(groups)
    cfg = TreeBuildConfig(k=k, method=method, greedy_threshold=n if method == "hybrid" else 2000, seed=5, outer_max_iters=4)
    seeds = list(range(10, 10 + len(groups)))
    with caplog.at_level(logging.DEBUG, logger="treeid.clustering"):
        stacked = cluster_level(pts, cfg, rng=_node_rngs(seeds))
    assert any("reseeding" in r.getMessage() for r in caplog.records)
    if method == "greedy":
        assert short_groups[0] > 1  # the stacked repair pass ran for several groups at once
    for g, (p, r) in enumerate(zip(pts, _node_rngs(seeds))):
        one = cluster_level(p, cfg, rng=r)
        assert np.array_equal(stacked.cluster_of[g], one.cluster_of), g
        assert np.array_equal(stacked.sizes[g], one.sizes), g
        assert stacked.cost[g] == one.cost, g
    assert stacked.cluster_of.shape == (len(groups), n) and stacked.sizes.shape == (len(groups), k)


def test_stacked_init_and_lloyd_equal_separate_calls():
    rng = np.random.default_rng(17)
    pts = np.stack([rng.normal(size=(30, 2)), np.zeros((30, 2)), np.repeat(rng.normal(size=(3, 2)), 10, axis=0)])
    cents = kmeanspp_init(pts, 4, [1, 2, 3])
    for g, seed in enumerate([1, 2, 3]):
        assert np.array_equal(cents[g], kmeanspp_init(pts[g], 4, seed))
    # every intermediate iterate, not only the last, matches the single-group call
    for i in range(16):
        stacked = lloyd(pts, cents, max_iters=i)
        for g in range(3):
            assert np.array_equal(stacked[g], lloyd(pts[g], cents[g], max_iters=i)), (i, g)


def test_stack_needs_one_seed_per_group():
    with pytest.raises(ValueError):
        kmeanspp_init(np.zeros((3, 5, 2)), 2, [1, 2])


def cold_exact_split(pts, cents, bounds, outer_max_iters):
    """The constrained alternation with every solve cold: the reference for
    the warm re-solves of cluster_level."""
    k = cents.shape[0]
    a = constrained_assign(pts, cents, bounds)
    best = a
    for _ in range(outer_max_iters - 1):
        cents = update_centroids(pts, a, k, prev=cents)
        nxt = constrained_assign(pts, cents, bounds)
        if nxt.cost < best.cost:
            best = nxt
        stable = np.array_equal(nxt.cluster_of, a.cluster_of)
        a = nxt
        if stable:
            break
    return best


@pytest.mark.parametrize("method", ["constrained", "hybrid"])
@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("outer_max_iters", [1, 2, 20])
def test_warm_outer_loop_equals_cold_loop(method, k, outer_max_iters, monkeypatch):
    certified = []
    cancel = mincostflow._cancel_cycles

    def spy(*args):
        out = cancel(*args)
        certified.append(out is not None)
        return out

    monkeypatch.setattr(mincostflow, "_cancel_cycles", spy)
    rng = np.random.default_rng(19 + k)
    n = 12 * k + 5
    groups = [
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)) * 50.0,
        np.repeat(rng.normal(size=(4, 3)), [n - 3 * (n // 4), n // 4, n // 4, n // 4], axis=0),  # duplicates
        np.tile(rng.normal(size=(1, 3)), (n, 1)),  # all rows identical: every optimum is tied
        np.round(rng.normal(size=(n, 3))),  # many exact ties
    ]
    cfg = TreeBuildConfig(k=k, method=method, greedy_threshold=n, seed=3, outer_max_iters=outer_max_iters)
    for g, pts in enumerate(groups):
        for seed in (1, 2):
            got = cluster_level(pts, cfg, rng=np.random.default_rng(seed))
            r = np.random.default_rng(seed)
            cents = lloyd(pts, kmeanspp_init(pts, k, r), max_iters=cfg.lloyd_max_iters, tol=cfg.lloyd_tol)
            want = cold_exact_split(pts, cents, balanced_bounds(n, k), outer_max_iters)
            assert np.array_equal(got.cluster_of, want.cluster_of), (g, seed)
            assert np.array_equal(got.sizes, want.sizes), (g, seed)
            assert type(got.cost) is float and got.cost == want.cost, (g, seed)
    if outer_max_iters == 1:
        assert not certified  # a group's first solve is always cold
    else:
        assert True in certified  # warm re-solves were accepted
        assert False in certified  # and the duplicate groups forced the fallback
