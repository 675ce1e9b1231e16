"""Shared domain types and input rules: build configs, identifier trees.

An embedding matrix is a plain (n_items, dim) float32 array; check_embeddings
is its one input rule and raises. All types are immutable after construction
and safe to share across threads. validate_paths and validate_tree return
structured results instead of raising, so a malformed tree can be inspected
and reported. IdentifierTree.from_paths is the one tree constructor: it raises
validate_paths' violations, so every tree is valid and round-trips through
io.write_tree and io.read_tree.
"""

from dataclasses import dataclass, field

import numpy as np

METHODS = ("constrained", "greedy", "hybrid")

K_LIMIT = 2**31  # k < K_LIMIT, as pads equal k in an int32 path matrix


def check_k(k: int, error=ValueError) -> None:
    """Raise error unless the branching factor k lies in [2, K_LIMIT)."""
    if not 2 <= k < K_LIMIT:
        raise error(f"branching factor must be in [2, 2**31), got {k}")


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: list[str] = field(default_factory=list)


def _check_sizes(n_items: int, dim: int, error) -> None:
    """Raise error unless an embedding matrix has at least one row and one column."""
    violations = [f"{name} must be >= 1, got {size}"
                  for name, size in (("n_items", n_items), ("dim", dim)) if size < 1]
    if violations:
        raise error("; ".join(violations))


def check_embeddings(X, error=ValueError) -> np.ndarray:
    """Return X as a C-contiguous float32 (n_items, dim) array, or raise error.

    Row i is the embedding of item i. X must be 2-D with at least one row and
    one column, and every value must be finite.
    """
    arr = np.asarray(X, dtype=np.float32)
    if arr.ndim != 2:  # before ascontiguousarray, which makes a 0-d input 1-d
        raise error(f"expected a 2-D array, got ndim={arr.ndim}")
    _check_sizes(*arr.shape, error)
    finite = np.isfinite(arr)
    if not finite.all():
        raise error(f"non-finite value at flat index {int(np.argmin(finite))}")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class CapacityBounds:
    """Per-cluster load bounds used by the capacity-respecting assignments."""

    min_size: int
    max_size: int

    def __post_init__(self):
        if not (0 <= self.min_size <= self.max_size):
            raise ValueError(
                f"require 0 <= min_size <= max_size, got [{self.min_size}, {self.max_size}]"
            )


def balanced_bounds(n: int, k: int) -> CapacityBounds:
    """Bounds [floor(n/k), floor(n/k)+1] used for every balanced split."""
    return CapacityBounds(min_size=n // k, max_size=n // k + 1)


@dataclass(frozen=True)
class TreeBuildConfig:
    """Knobs for hierarchical identifier construction.

    method picks the per-level assignment backend; hybrid switches from greedy
    to the exact constrained backend once a group has at most greedy_threshold
    items. The seed drives every random choice; rebuilding with the same seed
    is bit-identical.
    """

    k: int
    method: str = "hybrid"
    greedy_threshold: int = 2000
    seed: int = 0
    lloyd_max_iters: int = 100
    lloyd_tol: float = 1e-4
    outer_max_iters: int = 20

    def __post_init__(self):
        check_k(self.k)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.greedy_threshold < self.k:
            raise ValueError(
                f"greedy_threshold must be >= k, got {self.greedy_threshold} < {self.k}"
            )
        if self.lloyd_max_iters < 1 or self.outer_max_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if not self.lloyd_tol > 0:
            raise ValueError(f"lloyd_tol must be > 0, got {self.lloyd_tol}")


@dataclass(frozen=True)
class ClusterAssignment:
    """Item-to-cluster map plus per-cluster sizes and the squared-distance cost."""

    cluster_of: np.ndarray  # int32, one cluster index per item
    sizes: np.ndarray  # int64, per-cluster counts
    cost: float  # total squared euclidean distance to assigned centroids


class TreeStructureError(ValueError):
    """Raised when token paths cannot be assembled into a coherent tree."""


@dataclass(frozen=True)
class _Trie:
    """The implicit trie of a path matrix, built level by level on arrays.

    Rows are sorted lexicographically (tokens after a row's first pad count
    as pads), so rows sharing a prefix are contiguous: a token change between
    neighbours starts a node, and node ids come out breadth-first with each
    level in path order. Repeated and prefix rows are kept for validation.
    """

    order: np.ndarray  # (n,) item of each sorted row
    rows: np.ndarray  # (n, depth) sorted paths, pads past each row's end
    repeat: np.ndarray  # (n,) bool, the sorted row equals the one before it
    parent: np.ndarray  # (n_nodes,) -1 at the root, non-decreasing
    token: np.ndarray  # (n_nodes,) branch ordinal under the parent
    depth: np.ndarray  # (n_nodes,) tokens on the node's path
    rank: np.ndarray  # (n_nodes,) sorted row of the node's first leaf
    size: np.ndarray  # (n_nodes,) rows through the node
    leaf: np.ndarray  # (n,) node where each sorted row ends

    @classmethod
    def build(cls, k: int, paths: np.ndarray, length: np.ndarray | None = None) -> "_Trie":
        """The trie of paths whose tokens before each row's first pad lie in [0, k).

        length, if given, is _real_lengths(k, paths).
        """
        n, depth = paths.shape
        if length is None:
            length = _real_lengths(k, paths)
        # the smallest dtype holding k lets lexsort take its radix path
        rows = np.where(np.arange(depth) < length[:, None], paths, k).astype(np.min_scalar_type(k))
        order = np.lexsort(rows.T[::-1]) if depth else np.arange(n)
        rows, length = rows[order], length[order]
        node = np.zeros(n, dtype=np.int64)  # each row's node at the current level
        leaf = np.where(length == 0, 0, -1)
        fresh = np.arange(n) == 0  # the row's prefix differs from the row before
        parts = [([-1], [0], [0], [0], [n])]  # parent, token, depth, rank, size
        n_nodes = 1
        for level in range(1, depth + 1):
            col = rows[:, level - 1]
            fresh[1:] |= col[1:] != col[:-1]
            starts = fresh & (length >= level)
            first = np.flatnonzero(starts)
            parent = node[first]
            node = np.where(length >= level, n_nodes - 1 + np.cumsum(starts), -1)
            size = np.bincount(node[node >= 0] - n_nodes, minlength=first.size)
            parts.append((parent, col[first], np.full(first.size, level), first, size))
            leaf[length == level] = node[length == level]
            n_nodes += first.size
        parent, token, node_depth, rank, size = (
            np.concatenate(p).astype(np.int32) for p in zip(*parts)
        )
        return cls(order, rows, ~fresh, parent, token, node_depth, rank, size, leaf)

    def violations(self, k: int, depth: int) -> list[str]:
        """Depth, repeat, arity and balance messages, splits breadth-first.

        Split messages stop at the first node where one path ends and another
        goes on, which is named last.
        """
        violations = []
        longest = int(self.depth[self.leaf].max(initial=0))
        if longest != depth:
            violations.append(f"declared depth {depth} but longest path has {longest} tokens")
        dups = np.flatnonzero(self.repeat)
        if dups.size:
            row = dups[np.argmin(self.order[dups])]
            first = np.flatnonzero(~self.repeat[: row + 1])[-1]
            a, b = self.order[first], self.order[row]
            return violations + [f"items {a} and {b} share the same path"]

        par, tok, kid_size = self.parent[1:], self.token[1:], self.size[1:]
        n_kids = np.bincount(par, minlength=self.parent.size)
        split = self.size > k
        lo = self.size // k
        off = split[par] & ((kid_size < lo[par]) | (kid_size > lo[par] + 1))
        # siblings are contiguous and ascending, so a leaf group of n uses
        # ordinals 0..n-1 when it has n children, each numbered by its place
        gap = ~split[par] & (tok != np.arange(par.size) - np.searchsorted(par, par))
        bad = (n_kids > 0) & np.where(split, n_kids != k, n_kids != self.size)
        bad[par[off | gap]] = True
        # the first node, breadth-first, where one path ends and another goes on
        stop = int(self.leaf[n_kids[self.leaf] > 0].min(initial=self.parent.size))
        for v in np.flatnonzero(bad[:stop]).tolist():
            n = int(self.size[v])
            prefix = tuple(self.rows[self.rank[v], : self.depth[v]].tolist())
            if not split[v]:
                violations.append(
                    f"leaf group of {n} items at prefix {prefix} must use ordinals 0..{n - 1} once each"
                )
                continue
            if n_kids[v] != k:
                violations.append(
                    f"split of {n} items at prefix {prefix} has {n_kids[v]} children, expected {k}"
                )
            kids = np.arange(np.searchsorted(par, v), np.searchsorted(par, v, side="right"))
            violations.extend(
                f"split of {n} items at prefix {prefix}: child {tok[c]} has size {kid_size[c]}, "
                f"outside [{n // k}, {n // k + 1}]"
                for c in kids[off[kids]].tolist()
            )
        if stop < self.parent.size:
            item = self.order[self.leaf == stop][0]
            violations.append(f"path of item {item} is a prefix of another path")
        return violations


def _real_lengths(k: int, paths: np.ndarray) -> np.ndarray:
    """Tokens before each row's first pad."""
    is_pad = paths == k
    return np.where(is_pad.any(axis=1), is_pad.argmax(axis=1), paths.shape[1])


@dataclass(frozen=True)
class IdentifierTree:
    """Balanced k-ary identifier tree: per-item token paths plus a node arena.

    paths is an (n_items, depth) int32 matrix. Row i is item i's identifier:
    branch ordinals in [0, k-1] followed by pad tokens (value k) when the leaf
    sits above the maximum depth. The arena is derived from paths as flat
    arrays, with node ids assigned in breadth-first order (each level in
    lexicographic prefix order) so equal path sets produce identical arenas.
    parent is non-decreasing, so node n's children are the ids child_start[n]
    .. child_start[n+1]-1 in token order, and a node's descendants fill one
    contiguous id range per level. Siblings use the ordinals 0, 1, ... in
    turn, so the child on branch j is child_start[n] + j and token[c] is c's
    place among its siblings. node_item[n] is the item at a leaf and -1
    elsewhere.
    """

    k: int
    depth: int
    n_items: int
    paths: np.ndarray  # (n_items, depth) int32
    parent: np.ndarray  # (n_nodes,) int32, -1 at the root
    child_start: np.ndarray  # (n_nodes + 1,) int64, first child id of each node
    token: np.ndarray  # (n_nodes,) int32, branch ordinal under the parent
    node_item: np.ndarray  # (n_nodes,) int32, -1 for internal nodes
    leaf_of_item: np.ndarray  # (n_items,) int32
    node_depth: np.ndarray  # (n_nodes,) int32, 0 at the root

    @property
    def pad_token(self) -> int:
        return self.k

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    def children(self, nodes) -> np.ndarray:
        """Child ids of nodes (-1: none), shaped (..., min(k, n_items)).

        Entry j is the child on branch j, and -1 past the node's last child.
        """
        lo, hi = self.child_start[nodes], self.child_start[np.add(nodes, 1)]  # -1: [n_nodes, 1)
        kid = lo[..., None] + np.arange(min(self.k, self.n_items))
        return np.where(kid < hi[..., None], kid, -1)

    @classmethod
    def from_paths(cls, k: int, paths) -> "IdentifierTree":
        """Build the canonical arena of a path matrix that validate_paths accepts.

        The depth is the matrix's width. Raises TreeStructureError for a k
        outside [2, 2**31), a matrix that is not 2-D, or validate_paths'
        violations, joined by "; ".
        """
        check_k(k, TreeStructureError)
        paths = np.asarray(paths)
        if paths.ndim != 2:
            raise TreeStructureError("paths must be a 2-D matrix")
        n_items, depth = paths.shape
        violations, trie = _checked_trie(k, depth, paths)
        if violations:
            raise TreeStructureError("; ".join(violations))
        n_nodes = trie.parent.size
        child_start = np.searchsorted(trie.parent, np.arange(n_nodes + 1))
        node_item = np.full(n_nodes, -1, dtype=np.int32)
        node_item[trie.leaf] = trie.order
        leaf_of_item = np.empty(n_items, dtype=np.int32)
        leaf_of_item[trie.order] = trie.leaf
        return cls(
            k, depth, n_items, paths.astype(np.int32), trie.parent, child_start, trie.token,
            node_item, leaf_of_item, trie.depth,
        )


def _items_below(t: IdentifierTree, node: int) -> np.ndarray:
    """The items at the leaves under node (node included), ascending."""
    lo, hi, found = node, node + 1, []
    while lo < hi:
        items = t.node_item[lo:hi]
        found.append(items[items >= 0])
        lo, hi = t.child_start[lo], t.child_start[hi]  # the children of [lo, hi)
    return np.sort(np.concatenate(found))


def validate_paths(k: int, depth: int, paths: np.ndarray) -> ValidationResult:
    """Validate a path matrix without needing an arena.

    Checks integer tokens, token ranges, the pad-suffix rule, path
    uniqueness and prefix-freeness, the per-split balance bounds, and that
    depth equals the longest real path. Split messages come in breadth-first
    order.
    """
    violations, _ = _checked_trie(k, depth, paths)
    return ValidationResult(ok=not violations, violations=violations)


def _checked_trie(k: int, depth: int, paths) -> tuple[list[str], _Trie | None]:
    """The violations of validate_paths and the trie it built, None if a pre-check failed."""
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.shape[1] != depth:
        return [f"paths must have shape (N, {depth})"], None
    if paths.dtype.kind not in "iu":
        return [f"tokens must be integers, got dtype {paths.dtype}"], None

    bad = (paths < 0) | (paths > k)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [f"token {paths[i, j]} out of range at item {i}, position {j}"], None

    violations = []
    length = _real_lengths(k, paths)
    # A real token after a pad breaks the suffix rule.
    resumed = ((np.arange(depth) > length[:, None]) & (paths != k)).any(axis=1)
    if resumed.any():
        violations.append(f"item {np.argmax(resumed)} has a non-pad token after a pad token")
    if ((length == 0) & ~resumed).any():
        violations.append(f"item {np.argmax((length == 0) & ~resumed)} has an all-pad path")
    if violations:
        return violations, None

    trie = _Trie.build(k, paths, length)
    return trie.violations(k, depth), trie


def validate_tree(t: IdentifierTree) -> ValidationResult:
    """Validate an identifier tree: leaf count, bijection, balance, pad rule."""
    violations = []
    if t.n_items != t.paths.shape[0]:
        violations.append(
            f"n_items {t.n_items} does not match paths rows {t.paths.shape[0]}"
        )
        return ValidationResult(False, violations)
    res = validate_paths(t.k, t.depth, t.paths)
    violations.extend(res.violations)

    n_leaves = int((t.node_item >= 0).sum())
    if n_leaves != t.n_items:
        violations.append(f"arena has {n_leaves} leaves for {t.n_items} items")
    leaf_items = t.node_item[t.node_item >= 0]
    if len(np.unique(leaf_items)) != len(leaf_items):
        violations.append("two leaves share an item id")
    return ValidationResult(ok=not violations, violations=violations)
