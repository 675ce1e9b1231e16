import dataclasses
import io as stdio
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeid import io as tio
from treeid.core import (
    CapacityBounds,
    IdentifierTree,
    TreeBuildConfig,
    TreeStructureError,
    check_embeddings,
    validate_paths,
    validate_tree,
)
from treeid.treebuild import build_tree

from conftest import naive_arena, naive_violations, rand_tree, sparse_tree


def test_check_embeddings_ok():
    X = np.array([[1, 2], [3, 4]], dtype=np.float32)
    assert check_embeddings(X) is X  # a C-contiguous float32 matrix is returned as it is
    strided = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
    out = check_embeddings(strided)
    assert out.dtype == np.float32 and out.flags.c_contiguous and np.array_equal(out, strided)


def test_check_embeddings_nan_names_flat_index():
    vals = np.array([[1.0, 2.0], [np.nan, 4.0]], dtype=np.float32)
    with pytest.raises(ValueError, match=r"^non-finite value at flat index 2$"):
        check_embeddings(vals)


def test_capacity_bounds_invariants():
    CapacityBounds(0, 0)
    with pytest.raises(ValueError):
        CapacityBounds(3, 2)
    with pytest.raises(ValueError):
        CapacityBounds(-1, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=1),
        dict(k=4, method="fastest"),
        dict(k=4, greedy_threshold=3),
        dict(k=4, lloyd_tol=0.0),
        dict(k=4, outer_max_iters=0),
        dict(k=2**31, greedy_threshold=2**31),  # pads equal k in an int32 path matrix
    ],
)
def test_tree_config_invariants(kwargs):
    with pytest.raises(ValueError):
        TreeBuildConfig(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [
        ("k", 4.0),
        ("greedy_threshold", 50.5),
        ("seed", 1.5),
        ("lloyd_max_iters", 3.5),
        ("outer_max_iters", 2.5),
        ("outer_max_iters", True),
        ("seed", "1"),
        ("seed", None),
    ],
)
def test_tree_config_refuses_non_integer_fields(field, value):
    kwargs = {"k": 4, field: value}
    with pytest.raises(ValueError, match=field):
        TreeBuildConfig(**kwargs)


def test_tree_config_accepts_numpy_integers():
    cfg = TreeBuildConfig(k=np.int64(4), greedy_threshold=np.int32(50), seed=np.uint64(3), lloyd_max_iters=np.int8(5))
    assert cfg.k == 4 and cfg.greedy_threshold == 50


def test_built_tree_validates():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(37, 3)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=3, seed=5))
    assert validate_tree(t).ok


def test_duplicate_leaf_item_is_bijection_violation():
    X = np.random.default_rng(1).normal(size=(9, 2)).astype(np.float32)
    t = build_tree(X, TreeBuildConfig(k=3, seed=0))
    forged = t.node_item.copy()
    leaves = np.nonzero(forged >= 0)[0]
    forged[leaves[1]] = forged[leaves[0]]
    bad = dataclasses.replace(t, node_item=forged)
    res = validate_tree(bad)
    assert not res.ok
    assert any("share an item id" in v for v in res.violations)


def test_duplicate_paths_rejected():
    paths = np.array([[0, 0], [0, 0], [1, 2]], dtype=np.int32)
    res = validate_paths(2, 2, paths)
    assert not res.ok
    with pytest.raises(TreeStructureError):
        IdentifierTree.from_paths(2, paths)


def test_unbalanced_split_flagged():
    # n=10, k=3 with level-1 sizes {5, 3, 2}: 2 < floor(10/3) must be flagged.
    rows = []
    for sub in ([0, 0], [0, 1], [1, 0], [1, 1], [2, 3]):
        rows.append([0] + sub)  # group of five: split {2, 2, 1} below
    for tok in range(3):
        rows.append([1, tok, 3])  # leaf group of three
    for tok in range(2):
        rows.append([2, tok, 3])  # leaf group of two
    res = validate_paths(3, 3, np.array(rows, dtype=np.int32))
    assert not res.ok
    assert any("size 2" in v and "outside [3, 4]" in v for v in res.violations)


def test_pad_suffix_rule():
    res = validate_paths(2, 3, np.array([[0, 2, 1], [1, 0, 0], [1, 1, 2]], dtype=np.int32))
    assert not res.ok
    assert any("non-pad token after a pad" in v for v in res.violations)


def test_token_out_of_range():
    res = validate_paths(2, 1, np.array([[0], [3]], dtype=np.int32))
    assert not res.ok
    assert "out of range" in res.violations[0]


def test_depth_must_match_longest_path():
    res = validate_paths(2, 2, np.array([[0, 2], [1, 2]], dtype=np.int32))
    assert not res.ok
    assert any("longest path" in v for v in res.violations)


def test_random_builds_validate_all_methods():
    rng = np.random.default_rng(7)
    for method in ("constrained", "greedy", "hybrid"):
        for _ in range(5):
            n = int(rng.integers(5, 120))
            k = int(rng.integers(2, 9))
            X = rng.normal(size=(n, 3)).astype(np.float32)
            cfg = TreeBuildConfig(
                k=k, method=method, seed=int(rng.integers(1 << 30)),
                greedy_threshold=max(k, 30), lloyd_max_iters=8, outer_max_iters=3,
            )
            t = build_tree(X, cfg)
            res = validate_tree(t)
            assert res.ok, (method, n, k, res.violations)


def dense_children(frozen, width):
    """The accessor's rows: each node's children in token order, then -1."""
    table = np.full((len(frozen), width), -1, dtype=np.int64)
    for node, kids in enumerate(frozen):
        real = [c for c in kids if c >= 0]
        table[node, : len(real)] = real
    return table


def assert_matches_naive_walk(k, paths):
    """from_paths raises the naive walk's violations, else builds the naive arena."""
    paths = np.asarray(paths)
    n, depth = paths.shape
    violations = naive_violations(k, depth, paths)
    assert validate_paths(k, depth, paths).violations == violations
    if violations:
        with pytest.raises(TreeStructureError) as err:
            IdentifierTree.from_paths(k, paths)
        assert str(err.value) == "; ".join(violations)
        return
    parent, frozen, node_item, leaf_of_item = naive_arena(k, paths)
    t = IdentifierTree.from_paths(k, paths)
    assert t.parent.tolist() == parent
    assert np.array_equal(t.children(np.arange(t.n_nodes)), dense_children(frozen, min(k, n)))
    assert t.node_item.tolist() == node_item
    assert t.leaf_of_item.tolist() == leaf_of_item


def corrupt(rng, paths, k):
    """One random defect: duplicate, prefix, moved item, pad break, bad token."""
    p = paths.copy()
    n, depth = p.shape
    i, j = (int(x) for x in rng.integers(n, size=2))
    kind = int(rng.integers(6))
    length = int(np.argmax(p[i] == k)) if (p[i] == k).any() else depth
    if kind == 0:
        p[j] = p[i]
    elif kind == 1 and length >= 2:
        p[j] = k
        p[j, : length - 1] = p[i, : length - 1]
    elif kind == 2:
        p[i, 0] = (p[i, 0] + 1 + int(rng.integers(k - 1))) % k
    elif kind == 3 and depth >= 2:
        pos = int(rng.integers(depth - 1))
        p[i, pos] = k
        p[i, pos + 1] = int(rng.integers(k))
    elif kind == 4:
        p[i, int(rng.integers(depth))] = int(rng.choice([-1, k + 1, k + 7]))
    else:
        p[i, int(rng.integers(depth))] = int(rng.integers(k + 1))
    return p


def test_arena_matches_naive_walk_on_built_trees():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        k = int(rng.integers(2, 9))
        t = rand_tree(rng, n, k, method=str(rng.choice(["greedy", "hybrid"])))
        assert_matches_naive_walk(k, t.paths)
        assert validate_paths(k, t.depth, t.paths).ok


def test_arena_matches_naive_walk_on_corrupted_paths():
    rng = np.random.default_rng(32)
    for _ in range(400):
        n = int(rng.integers(2, 120))
        k = int(rng.integers(2, 7))
        t = rand_tree(rng, n, k)
        p = t.paths
        for _ in range(int(rng.integers(1, 4))):
            p = corrupt(rng, p, k)
        assert_matches_naive_walk(k, p)


def test_arena_matches_naive_walk_on_random_matrices():
    # mostly refused: unbalanced splits, gaps in the ordinals, short depths
    rng = np.random.default_rng(33)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 12))
        depth = int(rng.integers(1, 4))
        assert_matches_naive_walk(k, rng.integers(0, k + 1, size=(n, depth)))


def test_from_paths_rejects_a_k_that_wraps_the_pad():
    # pads equal k in an int32 path matrix, so k = 2**31 would wrap them
    with pytest.raises(TreeStructureError, match="branching factor"):
        IdentifierTree.from_paths(2**31, [[0, 2**31], [1, 0], [1, 1]])


def test_children_table_is_at_most_n_items_wide():
    t = IdentifierTree.from_paths(1_000_000, np.array([[0], [1], [2]]))
    assert t.children(np.arange(t.n_nodes)).shape == (4, 3)
    with pytest.raises(TreeStructureError):
        IdentifierTree.from_paths(8, np.array([[0], [5]]))


def test_children_list_the_real_children_first():
    t = sparse_tree()
    assert t.child_start.tolist() == [1, 4, 6, 6, 6, 6, 6]
    assert t.token.tolist() == [0, 0, 1, 2, 0, 1]
    rows = [[1, 2, 3], [4, 5, -1]] + [[-1, -1, -1]] * 4
    assert t.children(np.arange(t.n_nodes)).tolist() == rows
    assert t.children([[2, -1], [0, 1]]).tolist() == [[rows[2], [-1] * 3], [rows[0], rows[1]]]


def test_from_paths_refuses_a_gapped_tree():
    # ordinals skip 1 at the root and under (0,), so no reader could take the tree back;
    # the root holds 3 <= k items, so its children must also be leaves
    with pytest.raises(TreeStructureError) as err:
        IdentifierTree.from_paths(4, [[0, 0], [0, 2], [2, 1]])
    assert str(err.value) == (
        "leaf group of 3 items at prefix () must use ordinals 0..2 once each; "
        "leaf group of 3 items at prefix (): child 0 is not a leaf; "
        "leaf group of 3 items at prefix (): child 2 is not a leaf; "
        "leaf group of 2 items at prefix (0,) must use ordinals 0..1 once each; "
        "leaf group of 1 items at prefix (2,) must use ordinals 0..0 once each"
    )


@pytest.mark.parametrize(
    "k,paths,want",
    [
        (2, [[0, 0], [1, 2]], ["leaf group of 2 items at prefix (): child 0 is not a leaf"]),
        (
            2,
            [[0, 0, 0], [1, 2, 2]],
            [
                "leaf group of 2 items at prefix (): child 0 is not a leaf",
                "leaf group of 1 items at prefix (0,): child 0 is not a leaf",
            ],
        ),
        (1_000_000, [[0, 0], [1, 0], [2, 0]], [
            f"leaf group of 3 items at prefix (): child {tok} is not a leaf" for tok in range(3)
        ]),
    ],
)
def test_from_paths_refuses_a_chain_under_a_leaf_group(k, paths, want):
    # a node of one item may not have one child: a leaf group's children are leaves
    assert naive_violations(k, len(paths[0]), paths) == want
    assert validate_paths(k, len(paths[0]), paths).violations == want
    with pytest.raises(TreeStructureError) as err:
        IdentifierTree.from_paths(k, paths)
    assert str(err.value) == "; ".join(want)


@pytest.mark.parametrize(
    "paths",
    [[[0.5], [1.0]], [[0.0], [1.0]], [[False], [True]], np.array([[0], [1]], dtype=object)],
)
def test_non_integer_tokens_are_refused(paths):
    # nothing is truncated or cast: 0.5 and True are not branch ordinals
    want = f"tokens must be integers, got dtype {np.asarray(paths).dtype}"
    assert validate_paths(2, 1, paths).violations == [want]
    with pytest.raises(TreeStructureError) as err:
        IdentifierTree.from_paths(2, paths)
    assert str(err.value) == want


@pytest.mark.parametrize("dtype", [np.int8, np.uint64])
def test_any_integer_dtype_is_accepted(dtype):
    paths = np.array([[0, 0], [0, 1], [1, 3], [2, 3]], dtype=dtype)
    assert validate_paths(3, 2, paths).ok
    t = IdentifierTree.from_paths(3, paths)
    assert t.paths.dtype == np.int32 and np.array_equal(t.paths, paths)
    assert np.array_equal(t.parent, sparse_tree().parent)


def assert_read_tree_agrees(k, paths):
    """read_tree raises validate_paths' violations, else reads from_paths' arena."""
    n, depth = paths.shape
    doc = {"format": "treeid-v1", "k": k, "depth": depth, "n_items": n, "pad_token": k,
           "paths": paths.tolist()}
    source = stdio.StringIO(json.dumps(doc))
    res = validate_paths(k, depth, paths)
    if not res.ok:
        with pytest.raises(tio.TreeFormatError) as err:
            tio.read_tree(source)
        assert str(err.value) == "; ".join(res.violations)
        return
    got, want = tio.read_tree(source), IdentifierTree.from_paths(k, paths)
    for f in dataclasses.fields(IdentifierTree):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_read_tree_agrees_on_built_trees():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        k = int(rng.integers(2, 9))
        t = rand_tree(rng, n, k, method=str(rng.choice(["greedy", "hybrid"])))
        assert_read_tree_agrees(k, t.paths)


def test_read_tree_agrees_on_corrupted_paths():
    rng = np.random.default_rng(32)
    for _ in range(400):
        n = int(rng.integers(2, 120))
        k = int(rng.integers(2, 7))
        p = rand_tree(rng, n, k).paths
        for _ in range(int(rng.integers(1, 4))):
            p = corrupt(rng, p, k)
        assert_read_tree_agrees(k, p)


def test_read_tree_agrees_on_random_matrices():
    rng = np.random.default_rng(33)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 12))
        depth = int(rng.integers(1, 4))
        assert_read_tree_agrees(k, rng.integers(0, k + 1, size=(n, depth)))


def assert_same_arrays(got, want):
    for f in dataclasses.fields(IdentifierTree):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@st.composite
def token_matrices(draw):
    """(k, paths): small matrices of random tokens in [0, k], or a built tree's paths."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        n = draw(st.integers(2, 60))
        return k, rand_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k).paths
    n, depth = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, k), min_size=depth, max_size=depth)
    return k, np.array(draw(st.lists(row, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(case=token_matrices())
@example(case=(4, np.array([[0, 0], [0, 2], [2, 1]])))  # a gapped tree
@example(case=(2, np.array([[0, 2], [1, 2]])))  # a pad column past the longest path
def test_accepted_paths_round_trip_through_the_tree_file(case):
    """Every tree from_paths builds is written and read back to equal arrays."""
    k, paths = case
    try:
        t = IdentifierTree.from_paths(k, paths)
    except TreeStructureError:
        return
    buf = stdio.StringIO()
    tio.write_tree(t, buf)
    assert_same_arrays(tio.read_tree(stdio.StringIO(buf.getvalue())), t)
