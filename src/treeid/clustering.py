"""Centroid computation plus the exact and greedy capacity-respecting assignments.

All operations are pure functions of (points, config, seed) and single
threaded, so results never depend on a worker count. Points are (n, d)
arrays, promoted to float64 for the math.

kmeanspp_init, lloyd, greedy_assign and cluster_level also take a (G, n, d)
stack of G equal-size groups and treat every group exactly as a separate
(n, d) call would, bit for bit: a 2-D call is the G = 1 case. Only the
scalar random draws, Lloyd's reseeds and the exact solves loop over groups.

The functions that measure distances accept pt_norms, the squared point
norms (pts * pts).sum(axis=-1); cluster_level computes them once per split
and passes them to every step.
"""

import logging
import math

import numpy as np

from .core import CapacityBounds, ClusterAssignment, TreeBuildConfig, balanced_bounds
from .mincostflow import COST_BUDGET, CostOverflowError, TransportInstance, check_bounds, solve_balanced_transport

log = logging.getLogger(__name__)

# Distances are discretized for the integer flow solver at this scale, about
# 5 decimal digits of fidelity, unless that would overflow (see _discretize).
COST_SCALE = 1 << 16

# rows of the greedy capacity pass converted to Python lists at a time
_FILL_BLOCK = 4096

_dist_evals = 0


def distance_eval_count() -> int:
    """Point-to-centroid distance evaluations since import (instrumentation)."""
    return _dist_evals


def _as_points(X) -> np.ndarray:
    pts = np.asarray(X, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got ndim={pts.ndim}")
    return pts


def _as_stack(X) -> tuple[np.ndarray, bool]:
    """(G, n, d) float64 points, and whether X was a single (n, d) group."""
    if np.ndim(X) != 3:
        return _as_points(X)[None], True
    return np.asarray(X, dtype=np.float64), False


def _rngs(seed, single: bool, groups: int) -> list:
    """One generator per group: seed for a single group, a sequence of G seeds for a stack."""
    rngs = [np.random.default_rng(s) for s in ([seed] if single else seed)]
    if len(rngs) != groups:
        raise ValueError(f"a stack of {groups} groups needs {groups} seeds, got {len(rngs)}")
    return rngs


def _unstack(a: ClusterAssignment) -> ClusterAssignment:
    return ClusterAssignment(cluster_of=a.cluster_of[0], sizes=a.sizes[0], cost=float(a.cost[0]))


def pairwise_sqdist(pts: np.ndarray, cents: np.ndarray, pt_norms: np.ndarray | None = None) -> np.ndarray:
    """Squared euclidean distances, (..., n, k) float64, clipped at zero.

    pts is (..., n, d) and cents (..., k, d). pt_norms, when given, must be
    (pts * pts).sum(axis=-1); callers that reuse one point set pass it to
    skip recomputing it.
    """
    global _dist_evals
    _dist_evals += math.prod(pts.shape[:-1]) * cents.shape[-2]
    if pt_norms is None:
        pt_norms = (pts * pts).sum(axis=-1)
    # in place, the same operations as norms - 2 * dot + centroid norms
    sq = pts @ cents.swapaxes(-1, -2)
    sq *= -2.0
    sq += pt_norms[..., None]
    sq += (cents * cents).sum(axis=-1)[..., None, :]
    return np.maximum(sq, 0.0, out=sq)


def _norms(pts: np.ndarray, pt_norms: np.ndarray | None) -> np.ndarray:
    """(G, n) squared norms of a (G, n, d) stack: pt_norms reshaped, or computed."""
    if pt_norms is None:
        return (pts * pts).sum(axis=-1)
    return np.reshape(pt_norms, pts.shape[:-1])


def kmeanspp_init(X, k: int, seed, pt_norms: np.ndarray | None = None) -> np.ndarray:
    """Pick k distinct starting centroids by squared-distance-weighted sampling.

    seed may be an int or a numpy Generator; for a (G, n, d) stack it is a
    sequence of G of them, one stream per group, and the result is (G, k, d).
    The same seed always yields the same centroids. Points already chosen
    carry zero weight; when every remaining point coincides with a chosen
    one, the lowest unchosen index is taken so the result stays a set of k
    distinct items. pt_norms is as in pairwise_sqdist.
    """
    pts, single = _as_stack(X)
    groups, n, _ = pts.shape
    if k > n:
        raise ValueError(f"cannot draw k={k} centroids from {n} points")
    rngs = _rngs(seed, single, groups)

    global _dist_evals
    rows = np.arange(groups)
    norms = _norms(pts, pt_norms)
    chosen = np.empty((groups, k), dtype=np.int64)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    taken = np.zeros((groups, n), dtype=bool)
    taken[rows, chosen[:, 0]] = True
    d2 = np.full((groups, n), np.inf)
    for c in range(1, k):
        last = pts[rows, chosen[:, c - 1]]
        _dist_evals += groups * n
        to_last = (pts @ last[:, :, None])[:, :, 0]
        to_last *= -2.0
        to_last += norms
        to_last += (last[:, None, :] @ last[:, :, None])[:, :, 0]
        np.minimum(d2, np.maximum(to_last, 0.0, out=to_last), out=d2)
        d2[rows, chosen[:, c - 1]] = 0.0  # earlier picks are already 0 and stay so
        total = d2.sum(axis=1)
        idx = np.argmin(taken, axis=1)
        draw = np.nonzero(total > 0.0)[0]
        u = np.array([rngs[g].random() for g in draw.tolist()], dtype=np.float64)
        # cumulative sums never decrease, so counting the ones at or below
        # the target is searchsorted(..., side="right")
        below = d2[draw].cumsum(axis=1) <= (u * total[draw])[:, None]
        idx[draw] = np.minimum(below.sum(axis=1), n - 1)
        chosen[:, c] = idx
        taken[rows, idx] = True
    cents = pts[rows[:, None], chosen]
    return cents[0] if single else cents


def lloyd(
    X, init: np.ndarray, max_iters: int = 100, tol: float = 1e-4, pt_norms: np.ndarray | None = None
) -> np.ndarray:
    """Standard k-means iteration from the given starting centroids.

    Alternates nearest-centroid assignment (ties to the lower index) with the
    mean update until the largest centroid move, divided by the group's
    largest point norm floored at 1 (max(1, max ||x||)), drops below tol or
    max_iters is hit. The floor makes the test absolute for data within the
    unit ball: there a move must fall below tol itself. A cluster that
    empties is reseeded from the point currently farthest from its own
    centroid; reseeds are logged at debug level since they can bump the
    otherwise non-increasing SSE. Returns the centroids.

    For a (G, n, d) stack, init is (G, k, d), the result is (G, k, d), and
    each group stops on its own. pt_norms is as in pairwise_sqdist.
    """
    pts, single = _as_stack(X)
    cents = np.array(init, dtype=np.float64, copy=True)
    if single:
        cents = cents[None]
    groups, n, _ = pts.shape
    k = cents.shape[1]
    if k > n:
        raise ValueError(f"more centroids ({k}) than points ({n})")
    norms = _norms(pts, pt_norms)
    scale = np.maximum(1.0, np.sqrt(norms.max(axis=1)))

    # the groups still iterating, compacted whenever some of them stop
    live = np.arange(groups)
    p, nrm, c, sc = pts, norms, cents, scale
    onehot = np.zeros((groups, n, k))  # cleared again after every mean step
    cell = np.arange(groups * n).reshape(groups, n) * k
    for _ in range(max_iters):
        d2 = pairwise_sqdist(p, c, nrm)
        labels = np.argmin(d2, axis=2)
        hot = cell[: live.size] + labels  # flat one-hot index of every item
        per_group = labels + k * np.arange(live.size)[:, None]
        sizes = np.bincount(per_group.ravel(), minlength=live.size * k).reshape(live.size, k)
        reseed = ~sizes.all(axis=1)
        if reseed.any():
            own = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
            for g, j in np.argwhere(sizes == 0).tolist():
                idx = int(np.argmax(own[g]))
                log.debug("lloyd: reseeding empty cluster %d from point %d", j, idx)
                c[g, j] = p[g, idx]
                own[g, idx] = -1.0

        # one-hot matmul computes all k means in two vector ops; a group that
        # just reseeded keeps its centroids and skips this step
        onehot.reshape(-1)[hot.ravel()] = 1.0
        new_cents = (onehot[: live.size].swapaxes(1, 2) @ p) / np.maximum(sizes, 1)[:, :, None]
        onehot.reshape(-1)[hot.ravel()] = 0.0
        done = np.sqrt(((new_cents - c) ** 2).sum(axis=2)).max(axis=1) / sc < tol
        new_cents[reseed] = c[reseed]
        done &= ~reseed
        c = new_cents
        if done.any():
            cents[live[done]] = c[done]
            keep = ~done
            live, p, nrm, c, sc = live[keep], p[keep], nrm[keep], c[keep], sc[keep]
            if not live.size:
                break
    cents[live] = c
    return cents[0] if single else cents


def _discretize(d2: np.ndarray) -> np.ndarray:
    """Round d2 * scale to the solver's integer costs.

    scale is COST_SCALE unless N times the largest cost would overflow the
    solver's COST_BUDGET; then it is the largest power of two that fits, so
    large coordinates lose low-order digits instead of failing.
    """
    top = float(d2.max(initial=0.0))
    if not np.isfinite(top):
        raise CostOverflowError("squared distances are not finite")
    # top < 2^e: top * 2^(63-e) stays finite, and no larger scale fits the budget
    scale = math.ldexp(1.0, min(COST_SCALE.bit_length() - 1, 63 - math.frexp(top)[1]))
    while d2.shape[0] * round(top * scale) > COST_BUDGET:
        scale /= 2.0
    return np.rint(d2 * scale).astype(np.int64)


def constrained_assign(
    X,
    centroids: np.ndarray,
    bounds: CapacityBounds,
    start: np.ndarray | None = None,
    pt_norms: np.ndarray | None = None,
) -> ClusterAssignment:
    """Cost-optimal assignment under the load bounds, via the exact flow solver.

    The reported cost is the real-valued SSE of the returned assignment, not
    the discretized objective the solver minimizes. start, a feasible
    assignment such as the previous iterate's, is handed to the solver to
    re-solve from; it never changes the result. pt_norms is as in
    pairwise_sqdist.
    """
    pts = _as_points(X)
    cents = np.asarray(centroids, dtype=np.float64)
    d2 = pairwise_sqdist(pts, cents, pt_norms)
    inst = TransportInstance(_discretize(d2), bounds)
    assign, _ = solve_balanced_transport(inst, start=start)
    n, k = d2.shape
    return ClusterAssignment(
        cluster_of=assign,
        sizes=np.bincount(assign, minlength=k).astype(np.int64),
        cost=float(d2[np.arange(n), assign].sum()),
    )


def greedy_assign(
    X, centroids: np.ndarray, bounds: CapacityBounds, pt_norms: np.ndarray | None = None
) -> ClusterAssignment:
    """Sequential nearest-available assignment under the load bounds.

    Items are processed in ascending index order; each takes its nearest
    centroid whose load is still below max_size, falling back to the next
    nearest (distance ties prefer the lower cluster index). A repair pass then
    tops up any cluster left below min_size by repeatedly applying the
    cheapest single-item move out of an over-minimum cluster, ties broken by
    (cost delta, item index, cluster index). Linear in N*k distance work.

    For a (G, n, d) stack, centroids is (G, k, d) and the result holds (G, n)
    labels, (G, k) sizes and (G,) costs; the repair pass moves one item in
    every group that still has a deficit at each step. pt_norms is as in
    pairwise_sqdist.
    """
    pts, single = _as_stack(X)
    cents = np.asarray(centroids, dtype=np.float64)
    if single:
        cents = cents[None]
    groups, n, _ = pts.shape
    k = cents.shape[1]
    m, big = bounds.min_size, bounds.max_size
    check_bounds(n, k, bounds)

    d2 = pairwise_sqdist(pts, cents, _norms(pts, pt_norms))
    assign, loads = _fill_in_order(np.argsort(d2, axis=2, kind="stable"), big)
    own = np.take_along_axis(d2, assign[:, :, None], axis=2)[:, :, 0]
    _top_up(d2, assign, loads, own, m)
    a = ClusterAssignment(cluster_of=assign, sizes=loads, cost=own.sum(axis=1))
    return _unstack(a) if single else a


def _fill_in_order(order: np.ndarray, big: int) -> tuple[np.ndarray, np.ndarray]:
    """The capacity pass over (G, n, k) nearest-first cluster orders.

    Each group's items, in index order, take their nearest cluster still
    below big. Until some cluster is full every item takes its nearest, so
    that prefix of a group is taken at once and only the rest goes item by
    item, its rows turned into lists a block at a time. Returns (G, n)
    labels and (G, k) loads.
    """
    groups, n, k = order.shape
    first = order[:, :, 0]
    # per item: how many items up to and including it have the same nearest
    seen = np.cumsum(first[:, :, None] == np.arange(k), axis=1, dtype=np.int32)
    over = np.take_along_axis(seen, first[:, :, None], axis=2)[:, :, 0] > big
    stop = np.where(over.any(axis=1), over.argmax(axis=1), n)
    assign = first.astype(np.int32)
    loads = seen[np.arange(groups), stop - 1].astype(np.int64)
    del seen, over
    for g in np.nonzero(stop < n)[0].tolist():
        load, picks = loads[g].tolist(), []
        for start in range(stop[g], n, _FILL_BLOCK):
            for row in order[g, start : start + _FILL_BLOCK].tolist():
                for j in row:
                    if load[j] < big:
                        picks.append(j)
                        load[j] += 1
                        break
        assign[g, stop[g] :] = picks
        loads[g] = load
    return assign, loads


def _top_up(d2: np.ndarray, assign: np.ndarray, loads: np.ndarray, own: np.ndarray, m: int) -> None:
    """The repair pass of greedy_assign, in place on its arrays.

    While a group has a cluster below m, apply its cheapest move of one item
    out of an over-minimum cluster into such a cluster, ties to the lower
    item, then the lower cluster.
    """
    short = np.nonzero((loads < m).any(axis=1))[0]
    if not short.size:
        return
    k = loads.shape[1]
    lo = loads[short]
    # delta[s, i, j]: the cost of moving item i into cluster j, inf unless the
    # move is allowed; donors and deficits only run out, so entries only
    # ever turn inf, and the moved items never donate again
    delta = d2[short]
    delta -= own[short][:, :, None]
    delta[~np.take_along_axis(lo > m, assign[short], axis=1)] = np.inf
    delta.swapaxes(1, 2)[lo >= m] = np.inf
    live = np.arange(short.size)
    while live.size:
        g = short[live]
        item, dest = np.divmod(delta.reshape(short.size, -1).argmin(axis=1)[live], k)
        src = assign[g, item]
        loads[g, src] -= 1
        loads[g, dest] += 1
        assign[g, item] = dest
        own[g, item] = d2[g, item, dest]
        delta[live, item] = np.inf
        filled = loads[g, dest] == m
        delta[live[filled], :, dest[filled]] = np.inf
        spent = loads[g, src] == m  # the rest of src's items stop donating
        rows, items = np.nonzero(assign[g[spent]] == src[spent][:, None])
        delta[live[spent][rows], items] = np.inf
        live = live[(loads[g] < m).any(axis=1)]


def update_centroids(X, a: ClusterAssignment, k: int, prev: np.ndarray | None = None) -> np.ndarray:
    """Mean step: centroid j becomes the mean of its items.

    An empty cluster keeps its previous centroid, which the caller must then
    supply via prev.
    """
    pts = _as_points(X)
    # a stable sort keeps each cluster's rows in index order, so every sum
    # equals pts[cluster_of == j].sum(axis=0) bit for bit
    grouped = pts[np.argsort(a.cluster_of, kind="stable")]
    ends = np.cumsum(np.bincount(a.cluster_of, minlength=k)[:k]).tolist()
    cents = np.empty((k, pts.shape[1]), dtype=np.float64)
    start = 0
    for j, end in enumerate(ends):
        if end > start:
            cents[j] = np.add.reduce(grouped[start:end], axis=0) / (end - start)
        elif prev is not None:
            cents[j] = prev[j]
        else:
            raise ValueError(f"cluster {j} is empty and no previous centroids were given")
        start = end
    return cents


def cluster_level(X, cfg: TreeBuildConfig, rng=None) -> ClusterAssignment:
    """One balanced k-way split of a group, dispatching on the configured method.

    Both backends start from the same k-means++ / Lloyd centroids for a given
    rng, so the exact backend's first iterate is directly comparable to the
    greedy result. hybrid picks greedy while the group is larger than
    greedy_threshold and the exact backend below it; greedy and constrained
    force their backend regardless of size.

    The constrained backend alternates optimal assignment with the mean
    update until the assignment stops changing or outer_max_iters assignment
    solves have run, and returns the lowest-cost iterate seen. Each solve
    after a group's first re-solves from the previous iterate.

    X may be a (G, n, d) stack of equal-size groups; rng is then a sequence
    of G generators, one per group, and the result is stacked as in
    greedy_assign. The exact backend solves the groups one at a time.
    """
    pts, single = _as_stack(X)
    groups, n, _ = pts.shape
    k = cfg.k
    if n <= k:
        raise ValueError(f"cluster_level needs more than k={k} points, got {n}")
    if rng is None:
        rng = cfg.seed if single else [cfg.seed] * groups
    rngs = _rngs(rng, single, groups)
    bounds = balanced_bounds(n, k)

    norms = (pts * pts).sum(axis=-1)
    cents = kmeanspp_init(pts, k, rngs, pt_norms=norms)
    cents = lloyd(pts, cents, max_iters=cfg.lloyd_max_iters, tol=cfg.lloyd_tol, pt_norms=norms)

    if cfg.method == "greedy" or (cfg.method == "hybrid" and n > cfg.greedy_threshold):
        a = greedy_assign(pts, cents, bounds, pt_norms=norms)
    else:
        splits = [_exact_split(*group, bounds, cfg.outer_max_iters) for group in zip(pts, cents, norms)]
        a = ClusterAssignment(
            cluster_of=np.stack([s.cluster_of for s in splits]),
            sizes=np.stack([s.sizes for s in splits]),
            cost=np.array([s.cost for s in splits]),
        )
    return _unstack(a) if single else a


def _exact_split(
    pts: np.ndarray, cents: np.ndarray, norms: np.ndarray, bounds: CapacityBounds, outer_max_iters: int
) -> ClusterAssignment:
    """The constrained backend's alternation for one group, from its Lloyd centroids.

    The first solve is cold; each later one starts from the previous iterate.
    """
    k = cents.shape[0]
    a = constrained_assign(pts, cents, bounds, pt_norms=norms)
    best = a
    for _ in range(outer_max_iters - 1):
        cents = update_centroids(pts, a, k, prev=cents)
        nxt = constrained_assign(pts, cents, bounds, start=a.cluster_of, pt_norms=norms)
        if nxt.cost < best.cost:
            best = nxt
        stable = np.array_equal(nxt.cluster_of, a.cluster_of)
        a = nxt
        if stable:
            break
    return best
