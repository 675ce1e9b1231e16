"""Exact capacity-bounded assignment via successive shortest augmenting paths.

Assigns each of N rows to one of k columns so that every column load lands in
[min_size, max_size] and the total integer cost is minimal. The underlying
network: a source feeding each row one unit, complete row-to-column edges
with the given costs, and column-to-sink edges carrying the capacity bounds.
Rows are inserted one at a time along a shortest augmenting path in the
residual graph; node potentials keep reduced costs non-negative so each
search is a Dijkstra pass. Column minimums are enforced by treating the first
min_size units of every column as demand that augmenting paths must serve
before the sink absorbs the remainder.

The search stops once the nearest demand is settled, together with every
node tied at its distance; nodes farther out affect neither the path nor the
potential update. A row whose cheapest column can take it directly skips the
search (a fast-path insert).

The search relaxes column-to-column edges through a relocation table: for
each pair (a, j), the cheapest cost delta of moving one of a's rows to j and
the lowest row achieving it. An entry depends on a's membership alone, so a
table is brought up to date only when a search settles its column. Rows that
joined since are folded in one by one; a column that gave up a row is rebuilt
from its full membership, in one numpy pass once it is large. Columns left
stale when the last row is inserted are never rebuilt.

All arithmetic is exact 64-bit integer; callers discretize real distances.
Work grows superlinearly in N because every column on an augmenting path,
save the last, gives up a row and is later rebuilt from all of its rows.
"""

from dataclasses import dataclass
from operator import sub

import numpy as np

from .core import CapacityBounds

INF = 1 << 62
# Tables over at most this many (row, column) cells are folded row by row in
# Python; larger ones are rebuilt with one numpy pass.
FOLD_CELLS = 64


class InfeasibleBoundsError(ValueError):
    """Capacity bounds cannot cover the rows; the message names the violated inequality."""


class CostOverflowError(OverflowError):
    """Worst-case total cost would not fit the 64-bit accumulator."""


@dataclass(frozen=True)
class TransportInstance:
    """N x k non-negative integer cost matrix plus per-column load bounds."""

    costs: np.ndarray  # (N, k) int64
    bounds: CapacityBounds

    def __post_init__(self):
        costs = np.ascontiguousarray(np.asarray(self.costs, dtype=np.int64))
        if costs.ndim != 2:
            raise ValueError(f"costs must be 2-D, got ndim={costs.ndim}")
        if costs.size and int(costs.min()) < 0:
            raise ValueError("costs must be non-negative")
        object.__setattr__(self, "costs", costs)


def solve_balanced_transport(inst: TransportInstance) -> tuple[np.ndarray, int]:
    """Return (per-row column index, minimal total cost) for the instance.

    Output is deterministic: every tie in the search is broken toward the
    lower column index and then the lower row index (rows are inserted in
    ascending order and all argmins take the first minimum).

    Raises InfeasibleBoundsError when the bounds cannot hold N rows, and
    CostOverflowError when N * max(costs) exceeds the 64-bit budget.
    """
    costs = inst.costs
    n, k = costs.shape
    m, big = inst.bounds.min_size, inst.bounds.max_size
    if k * big < n:
        raise InfeasibleBoundsError(f"k*max_size = {k * big} < N = {n}")
    if k * m > n:
        raise InfeasibleBoundsError(f"k*min_size = {k * m} > N = {n}")
    max_cost = int(costs.max()) if costs.size else 0
    if max_cost and n > (1 << 62) // max_cost:
        raise CostOverflowError(
            f"N * max cost = {n} * {max_cost} exceeds the 64-bit cost budget"
        )

    assign = np.full(n, -1, dtype=np.int32)
    load = [0] * k
    flow_t = [0] * k  # per-column units beyond min_size, i.e. flow on column->sink
    t_need = n - k * m  # units the sink still has to absorb
    n_deficit = k if m > 0 else 0  # columns still short of min_size
    spare = big - m
    tnode = k
    nodes = list(range(k + 1))  # columns, then the sink
    v = [0] * (k + 1)  # node potentials
    # Relocation tables (see the module docstring): trans_val[a][j] is the
    # cheapest raw cost delta of moving one of column a's rows to column j and
    # trans_row[a][j] the lowest row achieving it. pending[a] lists the rows
    # that joined a since its table was last brought up to date; stale[a]
    # marks a column that has given up a row since.
    trans_val = [[INF] * k for _ in range(k)]
    trans_row = [[-1] * k for _ in range(k)]
    pending: list[list[int]] = [[] for _ in range(k)]
    stale = [False] * k
    others = [nodes[:a] + nodes[a + 1 : k] for a in range(k)]
    cost_rows = costs.tolist()

    def refresh(a):
        rows = pending[a]
        pending[a] = []
        if stale[a] or len(rows) * k > FOLD_CELLS:
            stale[a] = False
            rows = (assign == a).nonzero()[0]  # ascending: argmin ties take the lower row
            if rows.size * k > FOLD_CELLS:
                block = costs.take(rows, axis=0)
                block -= block[:, a, None]
                tr = rows.take(block.argmin(axis=0)).tolist()
                tv = [cost_rows[r][j] - cost_rows[r][a] for j, r in enumerate(tr)]
                tv[a] = INF
                trans_val[a], trans_row[a] = tv, tr
                return
            rows = rows.tolist()
            trans_val[a], trans_row[a] = [INF] * k, [-1] * k
        tv, tr = trans_val[a], trans_row[a]
        for r in rows:
            cr = cost_rows[r]
            ca = cr[a]
            for j in others[a]:
                w = cr[j] - ca
                if w < tv[j] or (w == tv[j] and r < tr[j]):
                    tv[j] = w
                    tr[j] = r

    # Each row's cheapest column (the first on ties) and runner-up cost: while
    # the column potentials spread less than the gap between the two, that
    # column is also the row's cheapest entry column, found without a scan.
    second = min(1, k - 1)
    nearest = costs.argmin(axis=1).tolist()
    runner_up = np.partition(costs, second, axis=1)[:, second].tolist()
    v_top = 0  # max(v[:k])

    for i in range(n):
        ci = cost_rows[i]
        u = nearest[i]
        if ci[u] - v[u] >= runner_up[i] - v_top:
            dist = list(map(sub, ci, v))
            u = dist.index(min(dist))  # first minimum: the lowest column on ties

        # Fast paths: when the globally cheapest entry column can absorb the
        # unit as a terminal step, the shortest augmenting path is that single
        # edge and every potential update is zero, so the full search below
        # would do exactly this.
        below = load[u] - flow_t[u]
        if below < m:
            if below == m - 1:
                n_deficit -= 1
        elif n_deficit == 0 and t_need > 0 and flow_t[u] < spare and v[u] == v[tnode]:
            flow_t[u] += 1
            t_need -= 1
        else:
            u = -1
        if u >= 0:
            assign[i] = u
            load[u] += 1
            pending[u].append(i)
            continue

        dist = list(map(sub, ci, v))
        dist.append(INF)
        pred_node = [-1] * k + [-2]  # -1 marks direct entry of row i
        unsettled = nodes[:]  # ascending, so min() takes the lowest index on ties
        settled = []
        # The nearest demand, ties to the lower column and the sink last, and
        # its distance dstar. Once one is settled, the search only settles the
        # nodes tied with it, so every demand settled is at dstar.
        target, dstar = -1, INF
        key = dist.__getitem__

        while unsettled:
            u = min(unsettled, key=key)
            best = dist[u]
            # Every node at most as far as the nearest demand is settled, so
            # the target, its path and all potentials below dstar are final.
            if best >= INF or best > dstar:
                break
            unsettled.remove(u)
            settled.append(u)
            if u == tnode:
                if target < 0 and t_need > 0:
                    target, dstar = tnode, best
                vt = v[tnode]
                for b in unsettled:
                    if flow_t[b] > 0:
                        nd = best + vt - v[b]
                        if nd < dist[b]:
                            dist[b] = nd
                            pred_node[b] = tnode
                continue
            if load[u] - flow_t[u] < m and not 0 <= target < u:
                target, dstar = u, best
            base = best + v[u]
            if load[u]:  # an empty column has no rows to relocate
                if pending[u] or stale[u]:
                    refresh(u)
                tu = trans_val[u]
                for j in unsettled:
                    if j < k:
                        nd = base + tu[j] - v[j]
                        if nd < dist[j]:
                            dist[j] = nd
                            pred_node[j] = u
            if flow_t[u] < spare and unsettled and unsettled[-1] == tnode:
                nd = base - v[tnode]
                if nd < dist[tnode]:
                    dist[tnode] = nd
                    pred_node[tnode] = u

        if target < 0:
            raise RuntimeError("no augmenting path on a feasible instance")

        if target == tnode:
            t_need -= 1

        # Walk the path back to the source, moving rows and adjusting sink
        # edges. A column that gives up a row turns stale; its replacement row
        # waits in pending like the new row i at the path's last column.
        x = target
        while True:
            p = pred_node[x]
            if p == tnode:
                flow_t[x] -= 1
                x = tnode
                continue
            if x == tnode:
                flow_t[p] += 1
                x = p
                continue
            r = i if p == -1 else trans_row[p][x]
            if p >= 0:
                load[p] -= 1
                stale[p] = True
            assign[r] = x
            load[x] += 1
            pending[x].append(r)
            if p == -1:
                break
            x = p

        # Intermediate path nodes keep their demand balance; only the target
        # gains one mandatory unit.
        if target != tnode and load[target] - flow_t[target] == m:
            n_deficit -= 1

        for x in settled:  # every node closer than dstar is settled
            if dist[x] < dstar:
                v[x] += dist[x] - dstar
        v_top = max(v[:k])

    loads = np.bincount(assign, minlength=k).tolist()
    if min(loads) < m or max(loads) > big or sum(loads) != n:
        raise RuntimeError("solver produced loads outside the requested bounds")
    total = int(costs[np.arange(n), assign].sum())
    return assign, total
