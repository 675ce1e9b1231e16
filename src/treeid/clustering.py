"""Centroid computation plus the exact and greedy capacity-respecting assignments.

All operations are pure functions of (points, config, seed) and single
threaded, so results never depend on a worker count. Points are accepted as
an EmbeddingMatrix or any (n, d) array and promoted to float64 for the math.
"""

import logging
import math

import numpy as np

from .core import CapacityBounds, ClusterAssignment, EmbeddingMatrix, TreeBuildConfig, balanced_bounds
from .mincostflow import CostOverflowError, InfeasibleBoundsError, TransportInstance, solve_balanced_transport

log = logging.getLogger(__name__)

# Distances are discretized for the integer flow solver at this scale, about
# 5 decimal digits of fidelity, unless that would overflow (see _discretize).
COST_SCALE = 1 << 16

_dist_evals = 0


def distance_eval_count() -> int:
    """Point-to-centroid distance evaluations since the last reset (instrumentation)."""
    return _dist_evals


def reset_distance_eval_count():
    global _dist_evals
    _dist_evals = 0


def _as_points(X) -> np.ndarray:
    if isinstance(X, EmbeddingMatrix):
        return X.as_array().astype(np.float64)
    pts = np.asarray(X, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got ndim={pts.ndim}")
    return pts


def pairwise_sqdist(pts: np.ndarray, cents: np.ndarray, pt_norms: np.ndarray | None = None) -> np.ndarray:
    """Squared euclidean distances, (n, k) float64, clipped at zero.

    pt_norms, when given, must be (pts * pts).sum(axis=1); callers that reuse
    one point set pass it to skip recomputing it.
    """
    global _dist_evals
    _dist_evals += pts.shape[0] * cents.shape[0]
    if pt_norms is None:
        pt_norms = (pts * pts).sum(axis=1)
    # in place, the same operations as norms - 2 * dot + centroid norms
    sq = pts @ cents.T
    sq *= -2.0
    sq += pt_norms[:, None]
    sq += (cents * cents).sum(axis=1)
    return np.maximum(sq, 0.0, out=sq)


def kmeanspp_init(X, k: int, seed) -> np.ndarray:
    """Pick k distinct starting centroids by squared-distance-weighted sampling.

    seed may be an int or a numpy Generator. The same seed always yields the
    same centroids. Points already chosen carry zero weight; when every
    remaining point coincides with a chosen one, the lowest unchosen index is
    taken so the result stays a set of k distinct items.
    """
    pts = _as_points(X)
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"cannot draw k={k} centroids from {n} points")
    rng = np.random.default_rng(seed)

    global _dist_evals
    norms = (pts * pts).sum(axis=1)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    d2 = np.full(n, np.inf)
    for c in range(1, k):
        last = pts[chosen[c - 1]]
        _dist_evals += n
        to_last = pts @ last
        to_last *= -2.0
        to_last += norms
        to_last += last @ last
        np.minimum(d2, np.maximum(to_last, 0.0, out=to_last), out=d2)
        d2[chosen[c - 1]] = 0.0  # earlier picks are already 0 and stay so
        total = float(d2.sum())
        if total > 0.0:
            cum = d2.cumsum()
            idx = int(cum.searchsorted(rng.random() * total, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(np.argmin(taken))
        chosen[c] = idx
        taken[idx] = True
    return pts[chosen].copy()


def lloyd(X, init: np.ndarray, max_iters: int = 100, tol: float = 1e-4, return_trace: bool = False):
    """Standard k-means iteration from the given starting centroids.

    Alternates nearest-centroid assignment (ties to the lower index) with the
    mean update until the largest centroid move, relative to the data scale,
    drops below tol or max_iters is hit. A cluster that empties is reseeded
    from the point currently farthest from its own centroid; reseeds are
    logged at debug level since they can bump the otherwise non-increasing
    SSE. With return_trace=True also returns the per-iteration SSE list.
    """
    pts = _as_points(X)
    cents = np.array(init, dtype=np.float64, copy=True)
    k = cents.shape[0]
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"more centroids ({k}) than points ({n})")
    norms = (pts * pts).sum(axis=1)
    scale = max(1.0, float(np.sqrt(norms.max())))
    trace = []

    for it in range(max_iters):
        d2 = pairwise_sqdist(pts, cents, norms)
        labels = np.argmin(d2, axis=1)
        sizes = np.bincount(labels, minlength=k)
        reseed = not sizes.all()
        if return_trace or reseed:
            own = d2[np.arange(n), labels]
            trace.append(float(own.sum()))
        if reseed:
            for j in np.nonzero(sizes == 0)[0]:
                idx = int(np.argmax(own))
                log.debug("lloyd: reseeding empty cluster %d from point %d", j, idx)
                cents[j] = pts[idx]
                own[idx] = -1.0
            continue

        # one-hot matmul computes all k means in two vector ops
        onehot = np.zeros((n, k))
        onehot[np.arange(n), labels] = 1.0
        new_cents = (onehot.T @ pts) / sizes[:, None]
        move = float(np.sqrt(((new_cents - cents) ** 2).sum(axis=1)).max())
        cents = new_cents
        if move / scale < tol:
            break

    return (cents, trace) if return_trace else cents


def _discretize(d2: np.ndarray) -> np.ndarray:
    """Round d2 * scale to the solver's integer costs.

    scale is COST_SCALE unless N times the largest cost would overflow the
    solver's 2^62 budget; then it is the largest power of two that fits, so
    large coordinates lose low-order digits instead of failing.
    """
    top = float(d2.max(initial=0.0))
    if not np.isfinite(top):
        raise CostOverflowError("squared distances are not finite")
    # top < 2^e: top * 2^(63-e) stays finite, and no larger scale fits in 2^62
    scale = math.ldexp(1.0, min(COST_SCALE.bit_length() - 1, 63 - math.frexp(top)[1]))
    while d2.shape[0] * round(top * scale) > 1 << 62:
        scale /= 2.0
    return np.rint(d2 * scale).astype(np.int64)


def constrained_assign(X, centroids: np.ndarray, bounds: CapacityBounds) -> ClusterAssignment:
    """Cost-optimal assignment under the load bounds, via the exact flow solver.

    The reported cost is the real-valued SSE of the returned assignment, not
    the discretized objective the solver minimizes.
    """
    pts = _as_points(X)
    cents = np.asarray(centroids, dtype=np.float64)
    d2 = pairwise_sqdist(pts, cents)
    inst = TransportInstance(_discretize(d2), bounds)
    assign, _ = solve_balanced_transport(inst)
    n, k = d2.shape
    return ClusterAssignment(
        cluster_of=assign,
        sizes=np.bincount(assign, minlength=k).astype(np.int64),
        cost=float(d2[np.arange(n), assign].sum()),
    )


def greedy_assign(X, centroids: np.ndarray, bounds: CapacityBounds) -> ClusterAssignment:
    """Sequential nearest-available assignment under the load bounds.

    Items are processed in ascending index order; each takes its nearest
    centroid whose load is still below max_size, falling back to the next
    nearest (distance ties prefer the lower cluster index). A repair pass then
    tops up any cluster left below min_size by repeatedly applying the
    cheapest single-item move out of an over-minimum cluster, ties broken by
    (cost delta, item index, cluster index). Linear in N*k distance work.
    """
    pts = _as_points(X)
    cents = np.asarray(centroids, dtype=np.float64)
    n = pts.shape[0]
    k = cents.shape[0]
    m, big = bounds.min_size, bounds.max_size
    if k * big < n:
        raise InfeasibleBoundsError(f"k*max_size = {k * big} < N = {n}")
    if k * m > n:
        raise InfeasibleBoundsError(f"k*min_size = {k * m} > N = {n}")

    d2 = pairwise_sqdist(pts, cents)
    order = np.argsort(d2, axis=1, kind="stable").tolist()
    assign = np.empty(n, dtype=np.int32)
    load = [0] * k
    for i in range(n):
        for j in order[i]:
            if load[j] < big:
                assign[i] = j
                load[j] += 1
                break

    own = d2[np.arange(n), assign]
    loads = np.asarray(load, dtype=np.int64)
    while True:
        deficits = np.nonzero(loads < m)[0]
        if deficits.size == 0:
            break
        donors = np.nonzero((loads > m)[assign])[0]
        delta = d2[np.ix_(donors, deficits)] - own[donors, None]
        flat = int(np.argmin(delta))
        item = int(donors[flat // deficits.size])
        dest = int(deficits[flat % deficits.size])
        loads[assign[item]] -= 1
        loads[dest] += 1
        assign[item] = dest
        own[item] = d2[item, dest]

    return ClusterAssignment(
        cluster_of=assign,
        sizes=np.bincount(assign, minlength=k).astype(np.int64),
        cost=float(own.sum()),
    )


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
    solves have run, and returns the lowest-cost iterate seen.
    """
    pts = _as_points(X)
    n = pts.shape[0]
    k = cfg.k
    if n <= k:
        raise ValueError(f"cluster_level needs more than k={k} points, got {n}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    bounds = balanced_bounds(n, k)

    cents = kmeanspp_init(pts, k, rng)
    cents = lloyd(pts, cents, max_iters=cfg.lloyd_max_iters, tol=cfg.lloyd_tol)

    use_greedy = cfg.method == "greedy" or (cfg.method == "hybrid" and n > cfg.greedy_threshold)
    if use_greedy:
        return greedy_assign(pts, cents, bounds)

    a = constrained_assign(pts, cents, bounds)
    best = a
    for _ in range(cfg.outer_max_iters - 1):
        cents = update_centroids(pts, a, k, prev=cents)
        nxt = constrained_assign(pts, cents, bounds)
        if nxt.cost < best.cost:
            best = nxt
        stable = np.array_equal(nxt.cluster_of, a.cluster_of)
        a = nxt
        if stable:
            break
    return best
