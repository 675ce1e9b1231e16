"""Acceptance suite: one test per headline criterion, one printed line each.

Criterion 7 rebuilds trees at N up to 160,000 and dominates the runtime
(roughly 10-20 minutes on an 8-core machine); everything else finishes in a
few minutes. Run with -s to watch the per-criterion lines stream.
"""

import functools
import math
import time

import numpy as np
import pytest

from treeid import io as tio
from treeid.bench import BlobSpec, compare_methods, gen_blobs, time_builds
from treeid.cli import run as cli_run
from treeid.clustering import constrained_assign, greedy_assign
from treeid.core import CapacityBounds, TreeBuildConfig, balanced_bounds, validate_tree
from treeid.decode import BeamConfig, beam_search
from treeid.metrics import evaluate_run, hit_at_k, ndcg_at_k, recall_at_k
from treeid.mincostflow import TransportInstance, solve_balanced_transport
from treeid.objectives import alignment_loss, generation_loss, ranking_loss
from treeid.treebuild import build_tree, node_embeddings

from conftest import brute_force_min_cost, central_diff, exhaustive_ranking, rand_tree, rel_err, table_scorer

LINE_POINTS = np.array([[6.0], [4.0], [11.0], [20.0]])
LINE_CENTROIDS = np.array([[0.0], [10.0]])


def criterion(num, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {summary}")
                raise
            print(f"\n[PASS] criterion {num}: {summary} ({time.perf_counter() - t0:.1f}s)")

        return wrapper

    return deco


@criterion(1, "balance and bijection hold for 500 random builds x 3 methods")
def test_criterion_1_balance_bijection():
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    triples = [(10, 32, 1), (5000, 2, 2), (4999, 31, 3)]  # pinned extremes
    while len(triples) < 500:
        # log-uniform sizes keep the heavy tail represented without letting
        # it dominate the runtime budget
        n = int(round(math.exp(rng.uniform(math.log(10), math.log(5000)))))
        k = int(rng.integers(2, 33))
        triples.append((n, k, int(rng.integers(1 << 30))))
    for n, k, seed in triples:
        X = rng.normal(size=(n, 4)).astype(np.float32)
        for method in ("constrained", "greedy", "hybrid"):
            cfg = TreeBuildConfig(
                k=k,
                method=method,
                greedy_threshold=max(k, 256),
                seed=seed,
                lloyd_max_iters=3,
                outer_max_iters=1,
            )
            tree = build_tree(X, cfg)
            res = validate_tree(tree)
            assert res.ok, (n, k, seed, method, res.violations)
            assert len({tuple(p) for p in tree.paths.tolist()}) == n
    assert time.perf_counter() - t0 < 120.0


@criterion(2, "exact solver matches brute force on 1000 random instances")
def test_criterion_2_solver_oracle():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(0, n // k + 1))
        big = int(rng.integers(-(-n // k), n + 1))
        costs = rng.integers(0, 1000, size=(n, k))
        _, cost = solve_balanced_transport(
            TransportInstance(costs, CapacityBounds(m, big))
        )
        assert cost == brute_force_min_cost(costs, m, big), (n, k, m, big)
    assert time.perf_counter() - t0 < 30.0


@criterion(3, "greedy cost dominates exact cost; fixed instance is 433 vs 153")
def test_criterion_3_greedy_dominance():
    g = greedy_assign(LINE_POINTS, LINE_CENTROIDS, CapacityBounds(2, 2))
    c = constrained_assign(LINE_POINTS, LINE_CENTROIDS, CapacityBounds(2, 2))
    assert g.cost == 433.0
    assert c.cost == 153.0

    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(4, 80))
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 6))
        pts = rng.normal(scale=rng.uniform(0.5, 5.0), size=(n, d))
        cents = rng.normal(scale=2.0, size=(k, d))
        bounds = balanced_bounds(n, k)
        g = greedy_assign(pts, cents, bounds)
        c = constrained_assign(pts, cents, bounds)
        assert g.cost >= c.cost - 1e-9 * max(1.0, abs(c.cost))


@criterion(4, "full-width beam equals brute force on 200 random trees")
def test_criterion_4_beam_equivalence():
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 257))
        k = int(rng.integers(2, 9))
        tree = rand_tree(rng, n, k)
        scorer = table_scorer(tree, rng)
        calls = [0]

        def counted(context, node):
            calls[0] += 1
            return scorer(context, node)

        got = beam_search(tree, counted, None, BeamConfig(beam_width=n, top_n=n))
        assert calls[0] <= n * tree.depth
        want = exhaustive_ranking(tree, scorer, None)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert np.allclose([s for _, s in got], [s for _, s in want])
    assert time.perf_counter() - t0 < 60.0


@criterion(5, "analytic gradients match finite differences (rel err < 1e-4)")
def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    eps = 1e-5

    for _ in range(100):  # generation
        widths = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 5)))]
        target = [int(rng.integers(w)) for w in widths]
        splits = np.cumsum(widths)[:-1]
        flat = rng.normal(size=sum(widths))

        def f(x):
            return generation_loss(np.split(x, splits), target)[0]

        _, grads = generation_loss(np.split(flat, splits), target)
        assert rel_err(np.concatenate(grads), central_diff(f, flat, eps)) < 1e-4

    for _ in range(100):  # alignment
        d = int(rng.integers(2, 9))
        n_neg = int(rng.integers(1, 6))
        tau = float(rng.uniform(0.2, 3.0))
        vecs = rng.normal(size=(2 + n_neg, d))

        def f(x):
            m = x.reshape(2 + n_neg, d)
            return alignment_loss(m[0], m[1], list(m[2:]), tau=tau)[0]

        _, gc, gp, gn = alignment_loss(vecs[0], vecs[1], list(vecs[2:]), tau=tau)
        assert rel_err(np.concatenate([gc, gp] + gn), central_diff(f, vecs.ravel(), eps)) < 1e-4

    done = 0
    while done < 100:  # ranking, away from the hinge boundary
        d = int(rng.integers(2, 7))
        margin = float(rng.uniform(0.0, 2.0))
        vecs = rng.normal(size=(3, d))
        gap = margin - vecs[0] @ vecs[1] + vecs[0] @ vecs[2]
        if abs(gap) < 1e-3:
            continue

        def f(x):
            m = x.reshape(3, d)
            return ranking_loss(m[0], m[1], m[2], margin=margin)[0]

        _, gq, gp, gn = ranking_loss(vecs[0], vecs[1], vecs[2], margin=margin)
        assert rel_err(np.concatenate([gq, gp, gn]), central_diff(f, vecs.ravel(), eps)) < 1e-4
        done += 1
    assert time.perf_counter() - t0 < 10.0


@criterion(6, "metric worked examples to 1e-6; monotone in the cutoff")
def test_criterion_6_metrics_oracle():
    assert abs(recall_at_k([1, 9, 2], {1, 2, 3, 4}, 3) - 0.5) < 1e-6
    assert abs(ndcg_at_k([3, 7], {7}, 2) - 0.630930) < 1e-6
    assert hit_at_k([10, 11, 12, 1], {1}, 4) == 1.0
    assert hit_at_k([10, 11, 12, 1], {1}, 3) == 0.0

    rng = np.random.default_rng(19)
    for _ in range(1000):
        catalog = int(rng.integers(5, 60))
        ranked = rng.permutation(catalog)[: int(rng.integers(1, catalog + 1))].tolist()
        relevant = set(rng.choice(catalog, size=int(rng.integers(1, 6)), replace=False).tolist())
        cuts = sorted(set(int(rng.integers(1, catalog + 1)) for _ in range(3)))
        prev_r = prev_h = 0.0
        for c in cuts:
            r = recall_at_k(ranked, relevant, c)
            h = hit_at_k(ranked, relevant, c)
            g = ndcg_at_k(ranked, relevant, c)
            assert 0.0 <= r <= 1.0 and 0.0 <= h <= 1.0 and 0.0 <= g <= 1.0
            assert r >= prev_r - 1e-12 and h >= prev_h - 1e-12
            prev_r, prev_h = r, h


@criterion(8, "beam retrieval at N=10,000 beats the random baseline by far")
def test_criterion_8_end_to_end_retrieval():
    n = 10_000
    spec = BlobSpec(n_items=n, dim=16, n_blobs=500, blob_spread=0.3, seed=0)
    m = gen_blobs(spec)
    X = m.astype(np.float64)
    rng = np.random.default_rng(1)
    targets = rng.choice(n, size=200, replace=False)
    queries = X[targets] + rng.normal(0.0, 0.05, size=(200, 16))

    cfg = TreeBuildConfig(k=8, method="hybrid", seed=7, lloyd_max_iters=30, outer_max_iters=5)
    tree = build_tree(m, cfg)
    scorer_embs = node_embeddings(tree, m)
    from treeid.decode import dot_scorer

    scorer = dot_scorer(scorer_embs, tree)
    bc = BeamConfig(beam_width=50, top_n=20)
    runs = []
    for q, target in zip(queries, targets):
        ranked = beam_search(tree, scorer, q, bc)
        runs.append(([item for item, _ in ranked], {int(target)}))
    report = evaluate_run(runs, cutoffs=(20,))
    hit20 = report.value("hit", 20)
    # random-baseline expectation is 20/N = 0.002; exhaustive-dot ceiling
    # measured at 0.965 for this data, beam reaches about 0.9
    assert hit20 > 0.5, hit20


@criterion(9, "CLI artifacts are byte-identical across reruns and thread counts")
def test_criterion_9_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(200, 800))
        k = int(rng.integers(2, 9))
        seed = int(rng.integers(1 << 30))
        threads = int(rng.integers(2, 5))
        artifacts = []
        for tag, thr in (("a", 1), ("b", threads)):
            d = tmp_path / f"t{trial}{tag}"
            d.mkdir()
            emb, tree = d / "emb.semb", d / "tree.json"
            rank, rep = d / "rank.csv", d / "rep.csv"
            assert cli_run([
                "gen-synth", "--n", str(n), "--dim", "8", "--blobs", "16",
                "--spread", "0.5", "--seed", str(seed), "--out", str(emb),
            ]) == 0
            assert cli_run([
                "build-tree", "--embeddings", str(emb), "--method", "hybrid",
                "--k", str(k), "--threshold", "64", "--seed", str(seed),
                "--threads", str(thr), "--out", str(tree),
            ]) == 0
            assert cli_run(["verify", "--tree", str(tree)]) == 0
            assert cli_run([
                "decode", "--tree", str(tree), "--embeddings", str(emb),
                "--queries", str(emb), "--beam", "10", "--top", "5",
                "--threads", str(thr), "--out", str(rank),
            ]) == 0
            truth = d / "truth.csv"
            truth.write_text("query,item\n" + "".join(f"{i},{i}\n" for i in range(n)))
            assert cli_run([
                "eval", "--runs", str(rank), "--truth", str(truth), "--out", str(rep),
            ]) == 0
            artifacts.append(tuple(p.read_bytes() for p in (emb, tree, rank, rep)))
        assert artifacts[0] == artifacts[1], f"trial {trial} differs across thread counts"
    capsys.readouterr()


@criterion(7, "construction-time scaling shape and SSE ordering at scale")
def test_criterion_7_scaling_shape():
    spec = BlobSpec(n_items=100_000, dim=16, n_blobs=64, blob_spread=1.0, seed=0)
    cfg = TreeBuildConfig(
        k=8, method="hybrid", greedy_threshold=2000, seed=17,
        lloyd_max_iters=30, lloyd_tol=1e-4, outer_max_iters=5,
    )

    # (c) per-size build times: exact backend superlinear, greedy near-linear.
    # Greedy endpoints share a tree depth so the ratio is not dominated by the
    # extra-level jump; both honor the documented size floors.
    rows = time_builds([10_000, 40_000], ["constrained"], spec, cfg, repeats=1, warmup=False)
    c_ratio = rows[1].build_seconds / rows[0].build_seconds
    rows = time_builds([40_000, 160_000], ["greedy"], spec, cfg, repeats=1, warmup=False)
    g_ratio = rows[1].build_seconds / rows[0].build_seconds
    print(f"\n  constrained seconds(4N)/seconds(N) = {c_ratio:.2f} (need > 4)")
    print(f"  greedy      seconds(4N)/seconds(N) = {g_ratio:.2f} (need < 6)")
    assert c_ratio > 4.0
    assert g_ratio < 6.0

    # (a), (b) all three methods on the same N=100,000 dataset
    cmp = compare_methods(100_000, spec, cfg, repeats=1, warmup=False)
    secs = {m: cmp.rows[m].build_seconds for m in cmp.rows}
    sse = {m: cmp.rows[m].total_sse for m in cmp.rows}
    print(f"  seconds: {({m: round(s, 1) for m, s in secs.items()})}")
    print(f"  greedy/constrained time = {cmp.time_ratio('greedy'):.4f} (need <= 0.1)")
    print(f"  hybrid/constrained time = {cmp.time_ratio('hybrid'):.4f} (need <= 0.25)")
    assert cmp.time_ratio("greedy") <= 0.1
    assert cmp.time_ratio("hybrid") <= 0.25

    # quality ordering under shared centroid seeds
    assert sse["constrained"] <= sse["hybrid"] * 1.01
    assert sse["hybrid"] <= sse["greedy"] * 1.01
