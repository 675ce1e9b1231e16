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

Warm re-solve. Given a feasible start assignment, the solver first restores
optimality by cancelling negative cycles (Klein 1967; Goldberg & Tarjan
1989) on the (k+1)-node residual graph of columns and the sink: edge a -> j
costs the relocation table entry (a, j), j -> sink exists while j is below
max_size and sink -> a while a is above min_size, both at cost 0.
Bellman-Ford finds a cycle, one row moves along each column-to-column edge,
and the search repeats, from the previous distances, until none is left. A
column's rows are sorted by delta the first time a cycle moves one of them;
after that its table only steps past rows that left and takes rows that
joined from a heap, so long re-solves never rebuild a column.

The warm result is accepted only under a uniqueness certificate: at the
final potentials, no cycle of zero reduced cost may contain a
column-to-column edge (the 2-cycle a -> sink -> a moves no row and does not
count). A unique optimum is also the one the cold search returns, so the
output is the same either way; when the certificate fails, as with
duplicated rows, the solver falls back to the cold search. A start thus
changes the running time, never the result. Callers pass one for the later
solves of an alternation, where few rows move between solves; a first
solve has no start close to its optimum and stays cold.
"""

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import sub

import numpy as np

from .core import CapacityBounds

COST_BUDGET = INF = 1 << 62  # caps N * max cost; also the searches' infinity
# Tables over at most this many (row, column) cells are folded row by row in
# Python; larger ones are rebuilt with one numpy pass.
FOLD_CELLS = 64


class InfeasibleBoundsError(ValueError):
    """Capacity bounds cannot cover the rows; the message names the violated inequality."""


class CostOverflowError(OverflowError):
    """Worst-case total cost would not fit the 64-bit accumulator."""


class InvalidStartError(ValueError):
    """A warm start that is not a feasible assignment; the message names the fault."""


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


def check_bounds(n: int, k: int, bounds: CapacityBounds) -> None:
    """Raise InfeasibleBoundsError unless k columns within bounds can hold n rows."""
    if k * bounds.max_size < n:
        raise InfeasibleBoundsError(f"k*max_size = {k * bounds.max_size} < N = {n}")
    if k * bounds.min_size > n:
        raise InfeasibleBoundsError(f"k*min_size = {k * bounds.min_size} > N = {n}")


def solve_balanced_transport(inst: TransportInstance, start=None) -> tuple[np.ndarray, int]:
    """Return (per-row column index, minimal total cost) for the instance.

    Output is deterministic: every tie in the search is broken toward the
    lower column index and then the lower row index (rows are inserted in
    ascending order and all argmins take the first minimum).

    start, when given, is a feasible assignment to re-solve from: N integer
    labels in [0, k) whose column loads lie within the bounds. It changes how
    long the solve takes, never its result (see the module docstring).

    Raises InfeasibleBoundsError when the bounds cannot hold N rows,
    CostOverflowError when N * max(costs) exceeds the 64-bit budget, and
    InvalidStartError for a start that is not a feasible assignment.
    """
    costs = inst.costs
    n, k = costs.shape
    m, big = inst.bounds.min_size, inst.bounds.max_size
    check_bounds(n, k, inst.bounds)
    max_cost = int(costs.max()) if costs.size else 0
    if max_cost and n > COST_BUDGET // max_cost:
        raise CostOverflowError(
            f"N * max cost = {n} * {max_cost} exceeds the 64-bit cost budget"
        )

    assign = None
    if start is not None:
        assign = _cancel_cycles(costs, m, big, _check_start(start, n, k, m, big))
    if assign is None:
        assign = _ssp(costs, m, big)
    loads = np.bincount(assign, minlength=k).tolist()
    if min(loads) < m or max(loads) > big or sum(loads) != n:
        raise RuntimeError("solver produced loads outside the requested bounds")
    total = int(costs[np.arange(n), assign].sum())
    return assign, total


def _ssp(costs: np.ndarray, m: int, big: int) -> np.ndarray:
    """The cold solve: insert the rows in index order along shortest augmenting paths."""
    n, k = costs.shape
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
    return assign


def _check_start(start, n: int, k: int, m: int, big: int) -> np.ndarray:
    """start as an array, after checking that it is a feasible assignment."""
    start = np.asarray(start)
    if start.shape != (n,):
        raise InvalidStartError(f"start must have shape ({n},), got {start.shape}")
    if start.dtype.kind not in "iu":
        raise InvalidStartError(f"start labels must be integers, got dtype {start.dtype}")
    bad = ((start < 0) | (start >= k)).nonzero()[0]
    if bad.size:
        r = int(bad[0])
        raise InvalidStartError(f"start label {start[r]} of row {r} is outside [0, k) = [0, {k})")
    loads = np.bincount(start, minlength=k)
    bad = ((loads < m) | (loads > big)).nonzero()[0]
    if bad.size:
        j = int(bad[0])
        raise InvalidStartError(
            f"start load {loads[j]} of column {j} is outside [min_size, max_size] = [{m}, {big}]"
        )
    return start


def _cancel_cycles(costs: np.ndarray, m: int, big: int, start: np.ndarray) -> np.ndarray | None:
    """The warm re-solve: the optimum reached from start by cancelling negative
    cycles, or None unless that optimum is certified unique.

    The graph has a node per column and the sink (node k). Edge a -> j costs
    the relocation table entry trans_val[a][j]; j -> t exists while load[j] <
    big and t -> a while load[a] > m, both at cost 0. The search runs on
    Python integers, so no sum can overflow; a missing edge costs math.inf.
    """
    n, k = costs.shape
    assign = start.astype(np.int32)
    if not n:
        return assign
    col = assign.tolist()
    load = np.bincount(assign, minlength=k)
    # every column's table at once: its rows' deltas, grouped by column, min-reduced
    perm = np.argsort(assign, kind="stable")
    full = load.nonzero()[0]
    trans_val = [[math.inf] * k for _ in range(k)]
    mins = np.minimum.reduceat(
        (costs - costs[np.arange(n), assign][:, None])[perm], (load.cumsum() - load)[full], axis=0
    )
    for a, row in zip(full.tolist(), mins.tolist()):
        row[a] = math.inf  # no self edges
        trans_val[a] = row
    load = load.tolist()

    # The rows behind column a's table (trans_row[a]) are needed only once a
    # cycle moves one of a's rows: then a's rows are sorted by delta once,
    # per target (order_rows, order_val), and from then on its table
    # advances a pointer past rows that left, while rows that join go to a
    # heap per target. Into a column never sorted, rows that join are
    # folded directly.
    trans_row: list = [None] * k
    order_rows: list = [None] * k
    order_val: list = [None] * k
    ptr: list = [None] * k
    joined: list = [None] * k

    def sort_column(a):
        rows = np.flatnonzero(assign == a)
        block = costs[rows] - costs[rows, a][:, None]
        idx = np.argsort(block, axis=0, kind="stable")  # ties: the lower row
        block = block[idx, np.arange(k)].T.tolist()
        rows = rows[idx].T.tolist()
        order_rows[a], order_val[a] = rows, block
        ptr[a] = [0] * k
        joined[a] = [[] for _ in range(k)]
        # every row is a's now, so the heads are the table
        trans_val[a] = [v[0] for v in block]
        trans_row[a] = [r[0] for r in rows]
        trans_val[a][a], trans_row[a][a] = math.inf, -1

    def advance(a, j):
        rows = order_rows[a][j]
        p, end = ptr[a][j], len(rows)
        while p < end and col[rows[p]] != a:
            p += 1
        ptr[a][j] = p
        best = (order_val[a][j][p], rows[p]) if p < end else (math.inf, -1)
        heap = joined[a][j]
        while heap and col[heap[0][1]] != a:
            heappop(heap)
        if heap and heap[0] < best:
            best = heap[0]
        trans_val[a][j], trans_row[a][j] = best

    # each search starts from the previous one's distances
    dist = [0] * (k + 1)
    while cycle := _negative_cycle(trans_val, load, m, big, dist):
        # one row along each column-to-column edge; sink edges only shift loads
        moves = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if a < k and b < k:
                if trans_row[a] is None:
                    sort_column(a)
                moves.append((trans_row[a][b], a, b))
        for r, a, b in moves:
            col[r] = b
            assign[r] = b
            load[a] -= 1
            load[b] += 1
            cr = costs[r].tolist()
            cb, tv, tr, heaps = cr[b], trans_val[b], trans_row[b], joined[b]
            for j in range(k):
                if j == b:
                    continue
                dj = cr[j] - cb
                if tr is None:
                    if dj < tv[j]:
                        tv[j] = dj
                    continue
                heappush(heaps[j], (dj, r))
                if dj < tv[j] or (dj == tv[j] and r < tr[j]):
                    tv[j], tr[j] = dj, r
        for r, a, _ in moves:
            for j, x in enumerate(trans_row[a]):
                if x == r:
                    advance(a, j)

    # Uniqueness: under the final distances as potentials every edge has a
    # non-negative reduced cost, so a zero-cost cycle uses tight edges
    # (reduced cost 0) only. The optimum is unique unless some tight
    # column-to-column edge a -> j closes a cycle, that is, unless j reaches
    # a over tight edges. succ and reach hold node sets as bitmasks.
    succ = [0] * (k + 1)
    dt = dist[k]
    for u, row in enumerate(trans_val):
        du = dist[u]
        for v, c in enumerate(row):
            if du + c == dist[v]:
                succ[u] |= 1 << v
        if du == dt and load[u] < big:
            succ[u] |= 1 << k
        if dt == du and load[u] > m:
            succ[k] |= 1 << u
    columns = (1 << k) - 1
    if not any(mask & columns for mask in succ[:k]):
        return assign
    reach = succ[:]
    for x in range(k + 1):  # Warshall's transitive closure
        for u in range(k + 1):
            if reach[u] >> x & 1:
                reach[u] |= reach[x]
    for a in range(k):
        for j in range(k):
            if succ[a] >> j & 1 and reach[j] >> a & 1:
                return None
    return assign


def _negative_cycle(trans_val: list, load: list, m: int, big: int, dist: list) -> list | None:
    """Bellman-Ford over the warm re-solve's graph from a virtual root with an
    edge of cost dist[v] <= 0 to every node v; dist is updated in place.

    Returns a negative cycle as its nodes in edge order, or None when there
    is none; dist then holds the shortest distances, potentials under which
    no edge has a negative reduced cost. The predecessor graph is searched
    for a cycle after every pass that lowers a distance: any cycle there is
    negative, and if a negative cycle exists one shows up there by pass N,
    as distances still fall then.
    """
    k = len(load)
    pred = [-1] * (k + 1)
    for _ in range(k + 1):
        lower = []
        for u, row in enumerate(trans_val):
            du = dist[u]
            for v, c in enumerate(row):
                if du + c < dist[v]:
                    dist[v] = du + c
                    pred[v] = u
                    lower.append(v)
            if du < dist[k] and load[u] < big:
                dist[k] = du
                pred[k] = u
                lower.append(k)
        dt = dist[k]
        for v, size in enumerate(load):
            if dt < dist[v] and size > m:
                dist[v] = dt
                pred[v] = k
                lower.append(v)
        if not lower:
            return None
        cycle = _pred_cycle(pred, lower)
        if cycle:
            return cycle
    raise RuntimeError("distances kept falling without a cycle among the predecessors")


def _pred_cycle(pred: list, nodes: list) -> list | None:
    """A cycle of the predecessor graph reached from nodes, in edge order, or None."""
    mark = [0] * len(pred)
    for walk, v in enumerate(nodes, 1):
        while v >= 0 and not mark[v]:
            mark[v] = walk
            v = pred[v]
        if v >= 0 and mark[v] == walk:
            cycle, u = [v], pred[v]
            while u != v:
                cycle.append(u)
                u = pred[u]
            return cycle[::-1]
    return None
