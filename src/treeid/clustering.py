"""Centroid computation plus the exact and greedy capacity-respecting assignments.

All operations are pure functions of (points, config, seed) and single
threaded, so results never depend on a worker count. Points are (n, d)
arrays, promoted to float64 for the math.

Every step also takes a (G, n, d) stack of G equal-size groups and treats
every group exactly as a separate (n, d) call would, bit for bit: a 2-D
call is the G = 1 case. Only the scalar random draws, Lloyd's reseeds and
the exact solves loop over groups. Lloyd and the exact alternation share
one mean step, and every distance matrix comes from pairwise_sqdist.

The functions that measure distances accept pt_norms, the squared point
norms (pts * pts).sum(axis=-1); cluster_level computes them once per split
and passes them to every step.

Lloyd's assignment step is certified: one (G, k, n) pass ranks the
centroids and proves, within a rounding-error bound, that each point's
nearest centroid is the one pairwise_sqdist and argmin would pick. A step
with any unproven label, or one that must reseed, computes pairwise_sqdist
as the fallback, so the centroids never depend on which path ran.
"""

import logging
import math

import numpy as np

from .core import CapacityBounds, ClusterAssignment, TreeBuildConfig, balanced_bounds
from .mincostflow import COST_BUDGET, CostOverflowError, InvalidStartError, TransportInstance
from .mincostflow import check_bounds, solve_balanced_transport

log = logging.getLogger(__name__)

# Distances are discretized for the integer flow solver at this scale, about
# 5 decimal digits of fidelity, unless that would overflow (see _discretize).
COST_SCALE = 1 << 16

# rows of the greedy capacity pass converted to Python lists at a time
_FILL_BLOCK = 4096

_dist_evals = 0

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def distance_eval_count() -> int:
    """Point-to-centroid distance evaluations since import (instrumentation)."""
    return _dist_evals


def _as_stack(X) -> tuple[np.ndarray, bool]:
    """(G, n, d) float64 points, and whether X was a single (n, d) group."""
    pts = np.asarray(X, dtype=np.float64)
    if pts.ndim == 3:
        return pts, False
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got ndim={pts.ndim}")
    return pts[None], True


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

    rows = np.arange(groups)
    norms = _norms(pts, pt_norms)
    chosen = np.empty((groups, k), dtype=np.int64)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    taken = np.zeros((groups, n), dtype=bool)
    taken[rows, chosen[:, 0]] = True
    d2 = np.full((groups, n), np.inf)
    for c in range(1, k):
        last = pts[rows, chosen[:, c - 1]]
        np.minimum(d2, pairwise_sqdist(pts, last[:, None, :], norms)[:, :, 0], out=d2)
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

    Each assignment step takes its labels from _certified_labels, which
    proves them equal to argmin(pairwise_sqdist(...), axis=2) in one (k, n)
    pass per group. When some label is unproven, or a cluster must be
    reseeded, the step computes pairwise_sqdist as the fallback, so the
    centroids are the same whichever path ran.

    For a (G, n, d) stack, init is (G, k, d), the result is (G, k, d), and
    each group stops on its own. pt_norms is as in pairwise_sqdist.
    """
    (pts, single), cents = _as_stack(X), _as_stack(init)[0].copy()
    groups, n, _ = pts.shape
    k = cents.shape[1]
    if k > n:
        raise ValueError(f"more centroids ({k}) than points ({n})")
    norms = _norms(pts, pt_norms)
    reach = np.sqrt(norms.max(axis=1))

    global _dist_evals
    # the groups still iterating, compacted whenever some of them stop
    live = np.arange(groups)
    p, nrm, c, r = pts, norms, cents, reach
    onehot = np.zeros((groups, n, k))
    for _ in range(max_iters):
        d2 = None
        labels = _certified_labels(p, c, r)
        if labels is None:
            d2 = pairwise_sqdist(p, c, nrm)
            labels = np.argmin(d2, axis=2)
        per_group = labels + k * np.arange(live.size)[:, None]
        sizes = np.bincount(per_group.ravel(), minlength=live.size * k).reshape(live.size, k)
        reseed = ~sizes.all(axis=1)
        if reseed.any():
            if d2 is None:
                d2 = pairwise_sqdist(p, c, nrm)
            own = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
            for g, j in np.argwhere(sizes == 0).tolist():
                idx = int(np.argmax(own[g]))
                log.debug("lloyd: reseeding empty cluster %d from point %d", j, idx)
                c[g, j] = p[g, idx]
                own[g, idx] = -1.0
        elif d2 is None:
            _dist_evals += labels.size * k  # the certified step's distances, counted once

        # a group that just reseeded keeps its centroids and skips this step
        new_cents = _mean_step(p, labels, sizes, onehot)
        done = np.sqrt(((new_cents - c) ** 2).sum(axis=2)).max(axis=1) / np.maximum(1.0, r) < tol
        new_cents[reseed] = c[reseed]
        done &= ~reseed
        c = new_cents
        if done.any():
            cents[live[done]] = c[done]
            keep = ~done
            live, p, nrm, c, r = live[keep], p[keep], nrm[keep], c[keep], r[keep]
            if not live.size:
                break
    cents[live] = c
    return cents[0] if single else cents


def _mean_step(p: np.ndarray, labels: np.ndarray, sizes: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """The (G, k, d) cluster means of a (G, n, d) stack, all in one one-hot matmul.

    sizes holds the (G, k) label counts; an empty cluster's mean is 0. onehot is a
    zeroed scratch array of at least G groups of (n, k), zeroed again on return.
    """
    groups, n = labels.shape
    k = onehot.shape[2]
    hot = labels.ravel() + np.arange(0, groups * n * k, k)  # flat one-hot index of every item
    flat = onehot.reshape(-1)
    flat[hot] = 1.0
    means = (onehot[:groups].swapaxes(1, 2) @ p) / np.maximum(sizes, 1)[:, :, None]
    flat[hot] = 0.0
    return means


def _certified_labels(p: np.ndarray, c: np.ndarray, reach: np.ndarray) -> np.ndarray | None:
    """The (G, n) labels argmin(pairwise_sqdist(p, c), axis=2) gives, or None if any is unproven.

    reach holds each group's largest point norm. The step ranks centroids by
    v_j = ||c_j||^2 - 2 x.c_j, the squared distance less the point's own norm,
    computed as one (G, k, n) matmul. Any computed squared distance, here or
    in pairwise_sqdist, whatever order BLAS sums in, is within
    delta = 2 (d + 4) u (max ||x|| + max ||c||)^2 of the exact one (Higham's
    bound for a d-term dot product, doubled; u is the unit roundoff, and the
    smallest normal float covers underflow). So a point whose nearest v_j
    beats every other by more than 4 delta has that centroid strictly nearest
    in pairwise_sqdist's clipped distances too, and argmin returns it.
    """
    d, k = p.shape[2], c.shape[1]
    cn = (c * c).sum(axis=2)
    r = reach + np.sqrt(cn.max(axis=1))
    if not (r < 2.0**500).all():  # no overflow below; also refuses nan and inf
        return None
    slack = 8 * (d + 4) * _UNIT_ROUNDOFF * r * r + 4 * _TINY  # 4 delta
    v = (-2.0 * c) @ p.swapaxes(1, 2)
    v += cn[:, :, None]
    thresh = v.min(axis=1)
    thresh += slack[:, None]
    near = v <= thresh[:, None, :]
    # sum of k + j over the near centroids j: k + label when exactly one is
    # near (the nearest always is), at least 2k + 1 when several are; the
    # largest sum, under 1.5 k^2, fits the dtype
    weights = np.arange(k, 2 * k, dtype=np.int32 if k <= 1 << 15 else np.int64)
    labels = np.einsum("j,gjn->gn", weights, near)
    if labels.max() >= 2 * k:
        return None
    labels -= k
    return labels


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

    For a (G, n, d) stack, centroids is (G, k, d), start (G, n), and the
    result is stacked as in greedy_assign. The distances come from one
    stacked pairwise_sqdist; each group is then discretized at its own scale
    and solved on its own.
    """
    (pts, single), (cents, _) = _as_stack(X), _as_stack(centroids)
    groups, n, _ = pts.shape
    if start is not None and not single and np.shape(start) != (groups, n):
        raise InvalidStartError(f"a stacked start must have shape ({groups}, {n}), got {np.shape(start)}")
    # a 2-D call's start goes to the solver as it is, and the solver checks its shape
    starts = [None] * groups if start is None else [start] if single else start
    d2 = pairwise_sqdist(pts, cents, _norms(pts, pt_norms))
    insts = (TransportInstance(_discretize(group), bounds) for group in d2)
    assign = np.stack([solve_balanced_transport(inst, start=s)[0] for inst, s in zip(insts, starts)])
    a = ClusterAssignment(
        cluster_of=assign,
        sizes=np.stack([np.bincount(labels, minlength=cents.shape[1]) for labels in assign]),
        cost=np.take_along_axis(d2, assign[:, :, None], axis=2)[:, :, 0].sum(axis=1),
    )
    return _unstack(a) if single else a


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
    (pts, single), (cents, _) = _as_stack(X), _as_stack(centroids)
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
    greedy_assign. The exact backend alternates on the whole stack, and a
    group leaves it once its assignment stops changing; only the solves run
    one group at a time.
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
        a = _exact_split(pts, cents, norms, bounds, cfg.outer_max_iters)
    return _unstack(a) if single else a


def _exact_split(
    pts: np.ndarray, cents: np.ndarray, norms: np.ndarray, bounds: CapacityBounds, outer_max_iters: int
) -> ClusterAssignment:
    """The constrained backend's alternation on a (G, n, d) stack, from its Lloyd centroids.

    Each group's first solve is cold; each later one starts from the group's
    previous iterate. A group keeps its lowest-cost iterate, the first of
    equal costs, and leaves the stack once its labels stop changing. Every
    cluster holds at least min_size >= 1 rows, so no mean is of an empty one.
    """
    best = constrained_assign(pts, cents, bounds, pt_norms=norms)
    # the groups still alternating, compacted whenever some of them settle;
    # best's arrays take each group's improvements in place, so labels is a copy
    live, p, nrm, labels, sizes = np.arange(len(pts)), pts, norms, best.cluster_of.copy(), best.sizes
    onehot = np.zeros((len(pts), pts.shape[1], cents.shape[1]))
    for _ in range(outer_max_iters - 1):
        nxt = constrained_assign(p, _mean_step(p, labels, sizes, onehot), bounds, start=labels, pt_norms=nrm)
        won = nxt.cost < best.cost[live]
        for field in ("cluster_of", "sizes", "cost"):
            getattr(best, field)[live[won]] = getattr(nxt, field)[won]
        keep = (nxt.cluster_of != labels).any(axis=1)
        live, p, nrm, labels, sizes = live[keep], p[keep], nrm[keep], nxt.cluster_of[keep], nxt.sizes[keep]
        if not live.size:
            break
    return best
