import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treeid import decode
from treeid import io as tio
from treeid.cli import run as cli_run
from treeid.core import IdentifierTree, TreeBuildConfig
from treeid.decode import BeamConfig, ScorerContractError, beam_search, beam_search_batch, dot_scorer
from treeid.treebuild import build_tree, node_embeddings

from conftest import exhaustive_ranking, rand_tree, table_scorer


def depth2_binary_tree():
    return IdentifierTree.from_paths(2, np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int32))


def scorer_from_table(table):
    def scorer(context, node):
        return table[node]

    return scorer


def test_worked_probability_example():
    t = depth2_binary_tree()
    table = {
        0: np.log([0.6, 0.4]),
        t.children(0)[0]: np.log([0.9, 0.1]),
        t.children(0)[1]: np.log([0.95, 0.05]),
    }
    out = beam_search(t, scorer_from_table(table), None, BeamConfig(beam_width=2, top_n=2))
    assert [item for item, _ in out] == [0, 2]
    assert np.exp(out[0][1]) == pytest.approx(0.54)
    assert np.exp(out[1][1]) == pytest.approx(0.38)


def test_width_one_is_greedy_chain():
    t = depth2_binary_tree()
    table = {
        0: np.log([0.6, 0.4]),
        t.children(0)[0]: np.log([0.9, 0.1]),
        t.children(0)[1]: np.log([0.95, 0.05]),
    }
    out = beam_search(t, scorer_from_table(table), None, BeamConfig(beam_width=1, top_n=1))
    assert len(out) == 1
    assert out[0][0] == 0 and np.exp(out[0][1]) == pytest.approx(0.54)


def test_full_width_equals_exhaustive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        k = int(rng.integers(2, 6))
        t = rand_tree(rng, n, k)
        scorer = table_scorer(t, rng)
        got = beam_search(t, scorer, None, BeamConfig(beam_width=n, top_n=n))
        want = exhaustive_ranking(t, scorer, None)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert np.allclose([s for _, s in got], [s for _, s in want])


def test_scorer_call_budget():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rand_tree(rng, int(rng.integers(10, 200)), int(rng.integers(2, 6)))
        scorer = table_scorer(t, rng)
        calls = [0]

        def counting(context, node):
            calls[0] += 1
            return scorer(context, node)

        b = int(rng.integers(1, 12))
        beam_search(t, counting, None, BeamConfig(beam_width=b, top_n=1))
        assert calls[0] <= b * t.depth


def test_returned_paths_exist_in_tree():
    rng = np.random.default_rng(2)
    t = rand_tree(rng, 60, 3)
    scorer = table_scorer(t, rng)
    out = beam_search(t, scorer, None, BeamConfig(beam_width=4, top_n=4))
    items = {i for i, _ in out}
    assert items <= set(range(t.n_items)) and len(items) == len(out)


def test_argmax_chain_survives_small_beam():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        t = rand_tree(rng, int(rng.integers(8, 100)), int(rng.integers(2, 5)))
        scorer = table_scorer(t, rng)
        best_item, _ = exhaustive_ranking(t, scorer, None)[0]
        # is the winner's path a per-level strict argmax chain?
        node, chain = 0, True
        for tok in (int(x) for x in t.paths[best_item] if x != t.k):
            scores = np.asarray(scorer(None, node))
            if int(scores.argmax()) != tok or (scores == scores.max()).sum() > 1:
                chain = False
                break
            node = t.children(node)[tok]
        if not chain:
            continue
        out = beam_search(t, scorer, None, BeamConfig(beam_width=2, top_n=2))
        assert best_item in {i for i, _ in out}
        checked += 1


def traced_peak(f):
    """f() and the peak bytes it allocated while running."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_k_equals_n_tree_stays_small_at_every_step(tmp_path):
    # k = n = 4,000 is one leaf group under the root; a (n_nodes, min(k, n))
    # child table would take 61 MiB at every step
    rng = np.random.default_rng(46)
    X = rng.normal(size=(4000, 8)).astype(np.float32)
    Q = rng.normal(size=(200, 8))
    path = str(tmp_path / "tree.json")
    t, build = traced_peak(lambda: build_tree(X, TreeBuildConfig(k=4000, greedy_threshold=4000)))
    _, write = traced_peak(lambda: tio.write_tree(t, path))
    back, read = traced_peak(lambda: tio.read_tree(path))

    def search():
        return beam_search_batch(back, dot_scorer(node_embeddings(back, X), back), Q, BeamConfig(50, 20))

    ranked, search_peak = traced_peak(search)
    assert back.paths.tolist() == [[i] for i in range(4000)]
    assert [r[0][0] for r in ranked] == np.argmax(Q @ X.T.astype(np.float64), axis=1).tolist()
    assert max(build, write, read, search_peak) < 8 << 20, (build, write, read, search_peak)


def test_contract_violations():
    t = depth2_binary_tree()

    def wrong_arity(context, node):
        return [0.0]

    def non_finite(context, node):
        return [0.0, np.inf]

    with pytest.raises(ScorerContractError):
        beam_search(t, wrong_arity, None, BeamConfig(2, 1))
    with pytest.raises(ScorerContractError):
        beam_search(t, non_finite, None, BeamConfig(2, 1))


def test_beam_config_invariants():
    with pytest.raises(ValueError):
        BeamConfig(beam_width=2, top_n=3)
    with pytest.raises(ValueError):
        BeamConfig(beam_width=0, top_n=0)


@pytest.mark.parametrize("beam_width,top_n", [(3.5, 2), (3, 2.0), (True, True), (4, "2")])
def test_beam_config_refuses_non_integer_fields(beam_width, top_n):
    bad = "beam_width" if type(beam_width) is not int else "top_n"
    with pytest.raises(ValueError, match=bad):
        BeamConfig(beam_width, top_n)
    assert BeamConfig(np.int64(3), np.int32(2)).top_n == 2


def test_single_item_tree():
    t = IdentifierTree.from_paths(2, np.array([[0]], dtype=np.int32))
    out = beam_search(t, scorer_from_table({0: np.zeros(1)}), None, BeamConfig(1, 1))
    assert out == [(0, 0.0)]


class TestDotScorer:
    @staticmethod
    def orthogonal_blob_setup():
        # 4 blobs on orthogonal axes; every item adds jitter on its own axis,
        # so each item's embedding is strictly the best match for itself.
        n_blobs, per_blob = 4, 4
        n = n_blobs * per_blob
        d = n_blobs + n
        X = np.zeros((n, d), dtype=np.float32)
        for i in range(n):
            X[i, i // per_blob] = 10.0
            X[i, n_blobs + i] = 1.0 + 0.1 * i
        t = build_tree(X, TreeBuildConfig(k=4, seed=0, method="constrained"))
        return X, t, node_embeddings(t, X)

    def test_self_query_ranks_first(self):
        X, t, embs = self.orthogonal_blob_setup()
        scorer = dot_scorer(embs, t)
        for i in (0, 5, 11, 15):
            out = beam_search(t, scorer, X[i], BeamConfig(beam_width=16, top_n=1))
            assert out[0][0] == i
            want = exhaustive_ranking(t, scorer, X[i])[0][0]
            assert want == i

    def test_zero_query_falls_to_path_order(self):
        X, t, embs = self.orthogonal_blob_setup()
        scorer = dot_scorer(embs, t)
        out = beam_search(t, scorer, np.zeros(X.shape[1]), BeamConfig(16, 16))
        got_paths = [tuple(t.paths[i].tolist()) for i, _ in out]
        assert got_paths == sorted(got_paths)
        assert all(s == 0.0 for _, s in out)

    def test_positive_scaling_keeps_ranking(self):
        X, t, embs = self.orthogonal_blob_setup()
        scorer = dot_scorer(embs, t)
        q = X[3].astype(np.float64) + 0.01
        a = beam_search(t, scorer, q, BeamConfig(16, 16))
        b = beam_search(t, scorer, 7.5 * q, BeamConfig(16, 16))
        assert [i for i, _ in a] == [i for i, _ in b]

    def test_dimension_mismatch(self):
        X, t, embs = self.orthogonal_blob_setup()
        scorer = dot_scorer(embs, t)
        with pytest.raises(ValueError):
            beam_search(t, scorer, np.zeros(3), BeamConfig(2, 1))


class TestBatchedSearch:
    @staticmethod
    def dot_setup(rng, n, k, dim=4):
        X = rng.normal(size=(n, dim))
        t = rand_tree(rng, n, k, dim=dim)
        return t, dot_scorer(node_embeddings(t, X), t), X

    def test_batch_equals_one_query_at_a_time(self):
        rng = np.random.default_rng(40)
        for _ in range(4):
            n, k = int(rng.integers(2, 400)), int(rng.integers(2, 9))
            t, scorer, X = self.dot_setup(rng, n, k)
            Q = X[rng.integers(n, size=230)] + rng.normal(0.0, 0.3, size=(230, X.shape[1]))
            b = int(rng.integers(1, 30))
            cfg = BeamConfig(beam_width=b, top_n=int(rng.integers(1, b + 1)))
            assert beam_search_batch(t, scorer, Q, cfg) == [beam_search(t, scorer, q, cfg) for q in Q]

    def test_chunking_leaves_rankings_unchanged(self, monkeypatch):
        rng = np.random.default_rng(47)
        for _ in range(6):
            n, k = int(rng.integers(2, 300)), int(rng.integers(2, 9))
            t, scorer, X = self.dot_setup(rng, n, k)
            Q = X[rng.integers(n, size=25)] + rng.normal(0.0, 0.3, size=(25, X.shape[1]))
            b = int(rng.integers(1, 30))
            cfg = BeamConfig(beam_width=b, top_n=int(rng.integers(1, b + 1)))
            want = beam_search_batch(t, scorer, Q, cfg)  # one chunk at the default
            for cells in (1, 7 * b * min(k, n)):  # one query per chunk, then chunks of 7
                monkeypatch.setattr(decode, "_CELLS", cells)
                assert beam_search_batch(t, scorer, Q, cfg) == want
            monkeypatch.undo()

    def test_full_width_equals_exhaustive(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n, k = int(rng.integers(2, 120)), int(rng.integers(2, 6))
            t, scorer, X = self.dot_setup(rng, n, k)
            Q = rng.normal(size=(3, X.shape[1]))
            got = beam_search_batch(t, scorer, Q, BeamConfig(beam_width=n, top_n=n))
            for q, ranked in zip(Q, got):
                want = exhaustive_ranking(t, scorer, q)
                assert [i for i, _ in ranked] == [i for i, _ in want]
                assert np.allclose([s for _, s in ranked], [s for _, s in want])

    def test_ties_fall_to_path_order(self):
        # integer-valued child scores tie often; the path decides, including
        # for leaves that complete above the maximum depth
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, k = int(rng.integers(2, 150)), int(rng.integers(2, 6))
            t = rand_tree(rng, n, k)
            tables = rng.integers(0, 3, size=(4, t.n_nodes, min(k, n))).astype(np.float64)

            def batched(contexts, child):
                return tables[np.asarray(contexts)[:, None], t.parent[child[..., 0]]]

            def per_node(c):
                return lambda _, node: tables[c, node][t.children(node) >= 0]

            b = int(rng.integers(1, n + 1))
            cfg = BeamConfig(beam_width=b, top_n=int(rng.integers(1, b + 1)))
            got = beam_search_batch(t, batched, np.arange(4), cfg)
            assert got == [beam_search(t, per_node(c), None, cfg) for c in range(4)]
            full = beam_search_batch(t, batched, np.arange(4), BeamConfig(n, n))
            for c in range(4):
                want = exhaustive_ranking(t, per_node(c), None)
                assert [i for i, _ in full[c]] == [i for i, _ in want]

    def test_zero_query_ranks_by_path(self):
        rng = np.random.default_rng(43)
        t, scorer, X = self.dot_setup(rng, 90, 4)
        (ranked,) = beam_search_batch(t, scorer, np.zeros((1, X.shape[1])), BeamConfig(90, 90))
        assert [i for i, _ in ranked] == sorted(range(90), key=lambda i: t.paths[i].tolist())
        assert all(s == 0.0 for _, s in ranked)

    def test_one_scorer_call_per_level(self):
        rng = np.random.default_rng(44)
        t, scorer, X = self.dot_setup(rng, 300, 3)
        calls = []

        def counting(contexts, nodes):
            calls.append(nodes.shape)
            return scorer(contexts, nodes)

        beam_search_batch(t, counting, X[:7], BeamConfig(10, 5))
        assert len(calls) <= t.depth
        assert all(shape[0] == 7 and shape[1] <= 10 for shape in calls)

    def test_contract_violations(self):
        t = depth2_binary_tree()
        contexts = np.zeros((2, 1))

        def wrong_shape(contexts, nodes):
            return np.zeros(nodes.shape + (3,))

        def non_finite(contexts, child):
            return np.full(child.shape, np.nan)

        for scorer in (wrong_shape, non_finite):
            with pytest.raises(ScorerContractError):
                beam_search_batch(t, scorer, contexts, BeamConfig(2, 1))


class TestNoCyclicGarbage:
    """Decode's tables are freed by reference counting, not by the cyclic GC."""

    def test_dropped_dot_scorer_frees_node_embeddings(self):
        X, t, embs = TestDotScorer.orthogonal_blob_setup()
        alive = weakref.ref(embs)
        gc.disable()
        try:
            scorer = dot_scorer(embs, t)
            scorer(X[0], 0)
            scorer(X[:2], t.children(np.zeros((2, 1), dtype=np.int64)))
            del scorer, embs
            assert alive() is None
        finally:
            gc.enable()

    def test_cli_decode_leaves_no_cycles(self, tmp_path):
        X = np.random.default_rng(45).normal(size=(60, 4)).astype(np.float32)
        tio.write_tree(build_tree(X, TreeBuildConfig(k=3, method="greedy")), tmp_path / "tree.json")
        tio.write_embeddings(X, tmp_path / "items.semb")
        argv = ["decode", "--tree", str(tmp_path / "tree.json"), "--beam", "5", "--top", "3",
                "--embeddings", str(tmp_path / "items.semb"), "--queries", str(tmp_path / "items.semb"),
                "--out", str(tmp_path / "rank.csv")]
        gc.collect()
        gc.disable()
        try:
            assert cli_run(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


def partition_cumsum_slots(key, b):
    """The b smallest keys per row, ties taken leftmost, by one partition and a
    cumsum over every row: the selection rule, as column indices per row."""
    cut = np.partition(key, b - 1, axis=1)[:, b - 1 : b]
    room = b - (key < cut).sum(axis=1, keepdims=True)
    keep = (key < cut) | ((key == cut) & (np.cumsum(key == cut, axis=1) <= room))
    return np.nonzero(keep)[1].reshape(len(key), b)


@st.composite
def pool_keys(draw):
    """(key, b): small-integer keys that tie often, some slots inf (empty), b < width."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    value = st.integers(-3, 3).map(float) | st.just(np.inf)
    return draw(arrays(np.float64, (rows, width), elements=value)), draw(st.integers(1, width - 1))


@settings(max_examples=300, deadline=None)
@given(pool_keys())
def test_best_slots_follow_the_tie_rule(case):
    key, b = case
    got = decode._best_slots(key, b)
    assert got.shape == (len(key), b)
    assert np.array_equal(got, partition_cumsum_slots(key, b) + np.arange(len(key))[:, None] * key.shape[1])


def test_best_slots_settled_and_tied_rows_together():
    key = np.array([[3.0, 1.0, 2.0, 0.0], [1.0, 1.0, 1.0, 0.0], [np.inf, 2.0, np.inf, np.inf]])
    assert decode._best_slots(key, 2).tolist() == [[1, 3], [4, 7], [8, 9]]


def test_constant_scorer_keeps_the_leftmost_slots(monkeypatch):
    # every child scores the same, so each pool wider than the beam ties in
    # every slot: only the tie rule picks, and it keeps the first paths
    t = IdentifierTree.from_paths(4, [[i // 16, i // 4 % 4, i % 4] for i in range(64)])
    widths = []

    def spying(key, b):
        widths.append(key.shape[1])
        return best(key, b)

    best = decode._best_slots
    monkeypatch.setattr(decode, "_best_slots", spying)
    got = beam_search_batch(t, lambda _, child: np.full(child.shape, 0.25), np.zeros(3), BeamConfig(6, 4))
    assert widths == [16, 24]
    assert got == [[(i, 0.75) for i in range(4)]] * 3
