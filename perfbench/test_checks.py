"""Each output check fails a known-bad input and passes a good one.

    python3 -m pytest perfbench/test_checks.py

The inputs are built here by hand, without `treeid`, so the checks are
tested apart from the program they judge.
"""

import copy

import numpy as np
import pytest

import checks


def balanced_doc(n, k, skew=0):
    """A tree document whose splits use contiguous item ranges.

    skew moves that many items from the last child to the first at the root,
    which unbalances the root split while every other rule still holds.
    """
    paths = [None] * n

    def split(items, prefix, top):
        m = len(items)
        if m <= k:
            for rank, item in enumerate(items):
                paths[item] = prefix + [rank]
            return
        sizes = [m // k + (j < m % k) for j in range(k)]
        if top:
            sizes[0] += skew
            sizes[-1] -= skew
        start = 0
        for j, size in enumerate(sizes):
            split(items[start : start + size], prefix + [j], False)
            start += size

    split(list(range(n)), [], True)
    depth = max(len(p) for p in paths)
    rows = [p + [k] * (depth - len(p)) for p in paths]
    return {"format": "treeid-v1", "k": k, "depth": depth, "n_items": n, "pad_token": k, "paths": rows}


def brute_means(doc, X):
    """prefix tuple -> mean of the items whose path starts with it."""
    k = doc["k"]
    trimmed = [tuple(t for t in row if t != k) for row in doc["paths"]]
    groups = {}
    for item, p in enumerate(trimmed):
        for level in range(1, len(p) + 1):
            groups.setdefault(p[:level], []).append(item)
    return trimmed, {prefix: X[items].mean(axis=0) for prefix, items in groups.items()}


@pytest.fixture
def small():
    rng = np.random.default_rng(0)
    doc = balanced_doc(40, 3)
    X = rng.normal(size=(40, 4))
    problems, view = checks.check_tree_doc(doc)
    assert problems == [] and view is not None
    checks.attach_means(view, X)
    return doc, X, view


class TestTreeCheck:
    @pytest.mark.parametrize("n,k", [(1, 2), (9, 2), (40, 3), (1000, 8)])
    def test_balanced_trees_pass(self, n, k):
        assert checks.check_tree_doc(balanced_doc(n, k))[0] == []

    def test_unbalanced_split_fails(self):
        problems, view = checks.check_tree_doc(balanced_doc(40, 3, skew=2))
        assert view is None and any("wrong size" in p for p in problems)

    def test_prefix_path_fails(self):
        doc = balanced_doc(9, 2)
        doc["paths"][0] = doc["paths"][1][:2] + [2] * (doc["depth"] - 2)
        problems, view = checks.check_tree_doc(doc)
        assert view is None and any("prefix" in p for p in problems)

    def test_duplicate_path_fails(self):
        doc = balanced_doc(9, 2)
        doc["paths"][0] = list(doc["paths"][1])
        assert checks.check_tree_doc(doc)[1] is None

    def test_leaf_ordinals_must_start_at_zero(self):
        doc = balanced_doc(4, 8)
        doc["paths"] = [[t + 1] for (t,) in doc["paths"]]
        assert checks.check_tree_doc(doc)[1] is None

    def test_real_token_after_pad_fails(self):
        doc = balanced_doc(9, 2)
        row = next(r for r in doc["paths"] if r[-1] == 2)
        row[-2], row[-1] = 2, 0
        assert checks.check_tree_doc(doc)[0] == ["a real token follows a pad token"]

    def test_declared_depth_must_match(self):
        doc = balanced_doc(9, 2)
        doc["depth"] += 1
        doc["paths"] = [r + [2] for r in doc["paths"]]
        assert "longest path" in checks.check_tree_doc(doc)[0][0]

    def test_node_ids_and_means(self, small):
        doc, X, view = small
        trimmed, means = brute_means(doc, X)
        # canonical ids: per level, prefixes in lexicographic order
        by_level = sorted(means, key=lambda p: (len(p), p))
        for item, p in enumerate(trimmed):
            for level in range(1, len(p) + 1):
                nid = view.node_of[item, level]
                assert nid == 1 + by_level.index(p[:level])
                assert np.allclose(view.means[nid], means[p[:level]])

    def test_sse_sums_distances_to_child_means(self, small):
        doc, X, view = small
        trimmed, means = brute_means(doc, X)
        want = sum(
            float(((X[i] - means[p[:level]]) ** 2).sum())
            for i, p in enumerate(trimmed)
            for level in range(1, len(p) + 1)
        )
        assert checks.tree_sse(view, X) == pytest.approx(want, rel=1e-12)


def brute_beam(trimmed, means, q, beam, top):
    """Beam search as the program documents it, over prefix tuples."""
    leaves = {p: item for item, p in enumerate(trimmed)}
    kids = {}
    for prefix in means:
        kids.setdefault(prefix[:-1], []).append(prefix)
    live, done = [(0.0, ())], []
    while live:
        pool = done + [(s + means[c] @ q, c) for s, p in live for c in kids[p]]
        pool.sort(key=lambda h: (-h[0], h[1]))
        live = [h for h in pool[:beam] if h[1] not in leaves]
        done = [h for h in pool[:beam] if h[1] in leaves]
    return [leaves[p] for _, p in done[:top]]


def write_ranking(path, doc, X, queries, top, perturb=None, beam=None):
    """A ranking CSV from brute-force path scores, optionally with one bad score.

    The items are the exhaustive top, or with `beam` the beam search's.
    """
    trimmed, means = brute_means(doc, X)
    lines = ["query,rank,item,score"]
    for qi, q in enumerate(queries):
        scores = [sum(means[p[:lv]] @ q for lv in range(1, len(p) + 1)) for p in trimmed]
        order = sorted(range(len(trimmed)), key=lambda i: -scores[i])[:top]
        if beam:
            order = brute_beam(trimmed, means, q, beam, top)
        for rank, item in enumerate(order, start=1):
            s = scores[item] * (1.001 if (qi, rank) == perturb else 1.0)
            lines.append(f"{qi},{rank},{item},{s:.6g}")
    path.write_text("\n".join(lines) + "\n")


class TestRankingCheck:
    def test_good_ranking_passes(self, small, tmp_path):
        doc, X, view = small
        q = np.random.default_rng(1).normal(size=(3, 4))
        write_ranking(tmp_path / "r.csv", doc, X, q, 5)
        assert checks.check_ranking(tmp_path / "r.csv", view, q, 5) == []

    def test_perturbed_score_fails(self, small, tmp_path):
        doc, X, view = small
        q = np.random.default_rng(1).normal(size=(3, 4))
        write_ranking(tmp_path / "r.csv", doc, X, q, 5, perturb=(1, 3))
        problems = checks.check_ranking(tmp_path / "r.csv", view, q, 5)
        assert any("query 1 rank 3" in p for p in problems)

    @pytest.mark.parametrize("beam,top", [(1, 1), (2, 2), (4, 3), (40, 40)])
    def test_beam_rankings_match_brute_force(self, small, beam, top):
        doc, X, view = small
        trimmed, means = brute_means(doc, X)
        q = np.random.default_rng(4).normal(size=(25, 4))
        items, ambiguous = checks.beam_rankings(view, q, beam, top, chunk=7)
        assert not ambiguous.any()
        for qi in range(len(q)):
            assert items[qi].tolist() == brute_beam(trimmed, means, q[qi], beam, top)

    def test_beam_check(self, small, tmp_path):
        doc, X, view = small
        q = np.random.default_rng(5).normal(size=(25, 4))
        write_ranking(tmp_path / "beam.csv", doc, X, q, 2, beam=2)
        assert checks.check_beam(tmp_path / "beam.csv", view, q, 2, 2) == []
        # the exhaustive top is what a search without the beam's pruning finds
        write_ranking(tmp_path / "full.csv", doc, X, q, 2)
        assert checks.check_ranking(tmp_path / "full.csv", view, q, 2) == []
        problems = checks.check_beam(tmp_path / "full.csv", view, q, 2, 2)
        assert len(problems) == 1 and "rank other items than a beam of 2" in problems[0]

    def test_eval_recomputed(self, small, tmp_path):
        doc, X, view = small
        q = np.random.default_rng(1).normal(size=(3, 4))
        write_ranking(tmp_path / "r.csv", doc, X, q, 5)
        _, _, items, _ = checks.read_ranking_csv(tmp_path / "r.csv")
        absent = next(i for i in range(40) if i not in items[10:15])
        truth = [int(items[2]), int(items[5]), absent]  # ranks 3, 1 and none
        ndcg = (1 / np.log2(4) + 1) / 3
        rows = {("hit", 2): 1 / 3, ("ndcg", 2): 1 / 3, ("recall", 2): 1 / 3,
                ("hit", 5): 2 / 3, ("ndcg", 5): ndcg, ("recall", 5): 2 / 3}
        good = "metric,cutoff,value\n" + "".join(f"{m},{c},{v:.6g}\n" for (m, c), v in sorted(rows.items()))
        (tmp_path / "e.csv").write_text(good)
        assert checks.check_eval(tmp_path / "e.csv", tmp_path / "r.csv", truth, (2, 5)) == []
        (tmp_path / "e.csv").write_text(good.replace(f"ndcg,5,{ndcg:.6g}", "ndcg,5,0.45"))
        assert checks.check_eval(tmp_path / "e.csv", tmp_path / "r.csv", truth, (2, 5)) != []
        assert checks.hit_rate(tmp_path / "r.csv", truth, 5) == pytest.approx(2 / 3)


def naive_alignment(child, parent, negatives):
    """The cancelling form lse(z) - z[0], as a program might compute it."""
    z = np.concatenate([[child @ parent], negatives @ child])
    m = z.max()
    return m + np.log(np.exp(z - m).sum()) - z[0]


class TestLossChecks:
    def test_alignment_good_values_pass(self):
        rng = np.random.default_rng(2)
        c, p, n = rng.normal(size=4), rng.normal(size=4), rng.normal(size=(3, 4))
        _, _, (gc, gp, gn) = checks.alignment_reference(c, p, n, 1.0)
        value = naive_alignment(c, p, n)
        assert checks.alignment_value_exact(value, c, p, n, 1.0)
        assert checks.check_alignment(c, p, n, 1.0, (value, gc, gp, list(gn))) == []

    def test_alignment_cancellation_is_inexact(self):
        c, p, n = np.full(16, 1.0), np.full(16, 2.5), np.zeros((7, 16))
        value = naive_alignment(c, p, n)
        want = checks.alignment_reference(c, p, n, 1.0)[0]
        assert want == pytest.approx(7 * np.exp(-40.0), rel=1e-12)
        assert not checks.alignment_value_exact(value, c, p, n, 1.0)

    def test_alignment_wrong_value_or_gradient_fails(self):
        rng = np.random.default_rng(3)
        c, p, n = rng.normal(size=4), rng.normal(size=4), rng.normal(size=(3, 4))
        want, _, (gc, gp, gn) = checks.alignment_reference(c, p, n, 1.0)
        assert checks.check_alignment(c, p, n, 1.0, (want + 1e-3, gc, gp, gn)) != []
        assert checks.check_alignment(c, p, n, 1.0, (want, gc, -gp, gn)) != []

    def test_generation(self):
        steps = [np.array([0.5, -1.0, 2.0]), np.array([0.1, 0.2])]
        want, grads = checks.generation_reference(steps, [2, 0, 3], pad=3)
        assert checks.check_generation(steps, [2, 0, 3], 3, want, grads) == []
        assert checks.check_generation(steps, [2, 0, 3], 3, want * 1.01, grads) != []
        bad = copy.deepcopy(grads)
        bad[1][0] += 1e-3
        assert checks.check_generation(steps, [2, 0, 3], 3, want, bad) != []
        assert checks.generation_value_exact(want, steps, [2, 0, 3], 3)

    def test_ranking_loss(self):
        q, p, n = np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([0.2, 0.0])
        active = (1.0 - 0.5 + 0.2, n - p, -q, q)
        assert checks.check_ranking_loss(q, p, n, 1.0, active) == []
        assert checks.check_ranking_loss(q, p, n, 1.0, (0.0,) + active[1:]) != []
        inactive = (0.0, np.zeros(2), np.zeros(2), np.zeros(2))
        assert checks.check_ranking_loss(q, p, n, 0.1, inactive) == []
        assert checks.check_ranking_loss(q, p, n, 0.1, active) != []

    def test_triplet(self):
        paths = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0], [1, 0, 0]])
        assert checks.check_triplet(paths, 0, 2, 1, 2) == []
        assert checks.check_triplet(paths, 0, 2, 2, 3) != []  # positive shares only 1 token
        assert checks.check_triplet(paths, 0, 1, 2, 1) != []  # negative shares the prefix
        assert checks.check_triplet(paths, 0, 2, 0, 3) != []  # the target is no positive


def test_semb_round_trip(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    checks.write_semb(tmp_path / "a.semb", arr)
    assert np.array_equal(checks.read_semb(tmp_path / "a.semb"), arr)
