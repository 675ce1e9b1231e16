import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeid.metrics import EvalReport, evaluate_run, hit_at_k, ndcg_at_k, recall_at_k


class TestRecall:
    def test_full_coverage(self):
        assert recall_at_k([3, 1, 2], {1, 2, 3}, 3) == 1.0

    def test_worked_example(self):
        assert recall_at_k([1, 9, 2], {1, 2, 3, 4}, 3) == 0.5

    def test_disjoint(self):
        assert recall_at_k([5, 6], {1, 2}, 2) == 0.0

    def test_empty_relevant(self):
        with pytest.raises(ValueError):
            recall_at_k([1], set(), 1)


class TestHit:
    def test_single_hit(self):
        assert hit_at_k([9, 1], {1}, 2) == 1.0

    def test_no_hit(self):
        assert hit_at_k([9, 8], {1}, 2) == 0.0

    def test_boundary_rank(self):
        recommended = [10, 11, 12, 1]
        assert hit_at_k(recommended, {1}, 4) == 1.0
        assert hit_at_k(recommended, {1}, 3) == 0.0


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg_at_k([4, 5, 6], {4, 5, 6}, 3) == pytest.approx(1.0)

    def test_worked_example(self):
        assert ndcg_at_k([3, 7], {7}, 2) == pytest.approx(1.0 / np.log2(3.0), abs=1e-9)
        assert ndcg_at_k([3, 7], {7}, 2) == pytest.approx(0.630930, abs=1e-6)

    def test_nothing_found(self):
        assert ndcg_at_k([1, 2], {9}, 2) == 0.0

    def test_one_only_when_top_slots_relevant(self):
        assert ndcg_at_k([5, 1, 2], {1, 2}, 2) < 1.0
        assert ndcg_at_k([1, 2, 5], {1, 2}, 2) == pytest.approx(1.0)


class TestEvaluateRun:
    def test_single_user_passthrough(self):
        rep = evaluate_run([([1, 2], {1})], cutoffs=(1, 2))
        assert rep.n_users == 1
        assert rep.value("recall", 1) == 1.0
        assert rep.value("hit", 2) == 1.0

    def test_mean_of_two_users(self):
        rep = evaluate_run([([1], {1}), ([2], {3})], cutoffs=(1,))
        assert rep.value("recall", 1) == pytest.approx(0.5)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(0)
        users = []
        for _ in range(100):
            ranked = rng.permutation(50)[: int(rng.integers(5, 30))].tolist()
            relevant = set(rng.choice(50, size=int(rng.integers(1, 8)), replace=False).tolist())
            users.append((ranked, relevant))
        rep = evaluate_run(users, cutoffs=(5, 10))

        # second, deliberately plain implementation
        for c in (5, 10):
            rec = hit = dcg = 0.0
            for ranked, relevant in users:
                top = ranked[:c]
                inter = [x for x in top if x in relevant]
                rec += len(inter) / len(relevant)
                hit += 1.0 if inter else 0.0
                got = sum(1.0 / np.log2(r + 2.0) for r, x in enumerate(top) if x in relevant)
                ideal = sum(1.0 / np.log2(r + 2.0) for r in range(min(len(relevant), c)))
                dcg += got / ideal
            assert rep.value("recall", c) == pytest.approx(rec / 100)
            assert rep.value("hit", c) == pytest.approx(hit / 100)
            assert rep.value("ndcg", c) == pytest.approx(dcg / 100)

    def test_bad_user_named(self):
        with pytest.raises(ValueError, match="user 1"):
            evaluate_run([([1], {1}), ([2], set())], cutoffs=(1,))

    def test_bad_cutoff_blames_no_user(self):
        # the cutoffs are checked before the first user, even a malformed one
        with pytest.raises(ValueError, match=r"^cutoff must be >= 1, got 0$"):
            evaluate_run([([1], set())], cutoffs=(5, 0))

    def test_repeated_cutoff_is_refused(self):
        # a cutoff listed twice would be summed twice into one report entry
        with pytest.raises(ValueError, match=r"^cutoff 2 is listed twice$"):
            evaluate_run([([1], set())], cutoffs=(2, 2))

    def test_user_permutation_invariance(self):
        users = [([1, 2], {2}), ([3], {3}), ([4], {9})]
        a = evaluate_run(users, cutoffs=(1, 2))
        b = evaluate_run(users[::-1], cutoffs=(1, 2))
        assert a.values == b.values


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_metric_ranges_and_monotonicity(data):
    n_catalog = 40
    ranked = data.draw(st.permutations(range(n_catalog))).copy()
    ranked = ranked[: data.draw(st.integers(1, n_catalog))]
    relevant = set(data.draw(st.sets(st.integers(0, n_catalog - 1), min_size=1, max_size=10)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n_catalog), min_size=2, max_size=4)))
    prev_r = prev_h = 0.0
    for c in cuts:
        r = recall_at_k(ranked, relevant, c)
        h = hit_at_k(ranked, relevant, c)
        g = ndcg_at_k(ranked, relevant, c)
        for v in (r, h, g):
            assert 0.0 <= v <= 1.0
        assert r >= prev_r - 1e-12 and h >= prev_h - 1e-12
        prev_r, prev_h = r, h


def test_report_value_lookup():
    rep = EvalReport(values={("recall", 20): 0.5}, n_users=3)
    assert rep.value("recall", 20) == 0.5


@pytest.mark.parametrize("metric", [recall_at_k, hit_at_k, ndcg_at_k])
@pytest.mark.parametrize("recommended, k", [([5, 5], 2), ([5, 6, 5], 1)])
def test_repeated_item_refused(metric, recommended, k):
    # counted twice, item 5 would read recall 2 and ndcg 1.63 against {5}
    with pytest.raises(ValueError, match="repeats an item"):
        metric(recommended, {5}, k)


def test_repeated_item_names_its_user():
    with pytest.raises(ValueError, match="user 1: recommended list repeats an item"):
        evaluate_run([([1, 2], {1}), ([3, 3], {3})], cutoffs=(1,))
