import dataclasses
import io as stdio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeid import io as tio
from treeid.core import TreeBuildConfig, _items_below
from treeid.objectives import (
    LossWeights,
    alignment_loss,
    generation_loss,
    ranking_loss,
    total_loss,
    triplet_sampler,
)
from treeid.treebuild import build_tree

from conftest import central_diff, rand_tree, rel_err


class TestGenerationLoss:
    def test_uniform_scores(self):
        steps = [np.zeros(4)] * 3
        loss, grads = generation_loss(steps, [0, 1, 2])
        assert loss == pytest.approx(3 * np.log(4), rel=1e-9)
        for tok, g in zip([0, 1, 2], grads):
            want = np.full(4, 0.25)
            want[tok] -= 1.0
            assert np.allclose(g, want)

    def test_certain_target_vanishes(self):
        steps = []
        target = [1, 0, 2]
        for tok in target:
            s = np.zeros(4)
            s[tok] = 50.0
            steps.append(s)
        loss, _ = generation_loss(steps, target)
        assert 0.0 <= loss < 1e-20

    def test_saturated_value_keeps_relative_accuracy(self):
        # log1p(x) = x to within x/2 relative, so 2e^-50 is the value to 1e-12
        loss, _ = generation_loss([np.array([50.0, 0.0, 0.0])], [0])
        assert loss == pytest.approx(2.0 * np.exp(-50.0), rel=1e-12, abs=0.0)

    def test_single_child_step_contributes_zero(self):
        loss, grads = generation_loss([np.array([3.0]), np.array([0.0, 0.0])], [0, 1])
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        assert np.allclose(grads[0], 0.0)

    def test_pad_steps_contribute_zero(self):
        steps = [np.array([0.3, -0.2, 0.5]), np.array([1.0, 2.0])]
        loss_short, grads_short = generation_loss(steps[:1], [1])
        loss_pad, grads_pad = generation_loss(steps, [1, 3], pad_token=3)
        assert loss_pad == pytest.approx(loss_short)
        assert np.allclose(grads_pad[0], grads_short[0])
        assert np.allclose(grads_pad[1], 0.0)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            generation_loss([np.zeros(3)], [3])

    @pytest.mark.parametrize("target", [[1.7], [1.0], np.array([0.0, 1.0])])
    def test_non_integer_tokens_refused(self, target):
        with pytest.raises(ValueError, match="^target tokens must be integers, got dtype float64$"):
            generation_loss([np.zeros(3), np.zeros(3)], target)

    def test_integer_token_arrays_accepted(self):
        for dtype in (np.int32, np.uint8, np.int64):
            loss, _ = generation_loss([np.zeros(3)], np.array([2], dtype=dtype))
            assert loss == pytest.approx(np.log(3.0), rel=1e-12)
        assert generation_loss([], []) == (0.0, [])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            shapes = [3, 3]
            target = [int(rng.integers(s)) for s in shapes]
            flat = rng.normal(size=sum(shapes))

            def f(x):
                steps = [x[:3], x[3:]]
                return generation_loss(steps, target)[0]

            _, grads = generation_loss([flat[:3], flat[3:]], target)
            assert rel_err(np.concatenate(grads), central_diff(f, flat)) < 1e-6


class TestAlignmentLoss:
    def test_symmetric_pair(self):
        c = np.array([1.0, 0.0])
        p = np.array([0.5, 0.5])
        n = np.array([0.5, -0.5])  # same dot with c as p
        loss, *_ = alignment_loss(c, p, [n], tau=0.7)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_hand_evaluated_case(self):
        c = np.array([1.0, 0.0])
        p = np.array([1.0, 0.0])
        n = np.array([0.0, 1.0])
        loss, *_ = alignment_loss(c, p, [n], tau=1.0)
        assert loss == pytest.approx(np.log(1.0 + np.exp(-1.0)), rel=1e-12)

    def test_saturated_value_keeps_relative_accuracy(self):
        # c.p = 40 against seven zero logits: log1p(7e^-40) = 7e^-40 to 1e-12
        negs = [np.zeros(16)] * 7
        loss, *_ = alignment_loss(np.ones(16), 2.5 * np.ones(16), negs, tau=1.0)
        assert loss == pytest.approx(7.0 * np.exp(-40.0), rel=1e-12, abs=0.0)

    def test_negative_permutation_invariance(self):
        rng = np.random.default_rng(1)
        c, p = rng.normal(size=2 * 6).reshape(2, 6)
        negs = [rng.normal(size=6) for _ in range(5)]
        base = alignment_loss(c, p, negs, tau=0.5)[0]
        perm = alignment_loss(c, p, negs[::-1], tau=0.5)[0]
        assert base == pytest.approx(perm, rel=1e-12)

    def test_needs_a_negative(self):
        with pytest.raises(ValueError):
            alignment_loss(np.ones(2), np.ones(2), [])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            alignment_loss(np.ones(2), np.ones(3), [np.ones(2)])

    @pytest.mark.parametrize("negatives", [[], (), np.empty((0, 3)), iter([])])
    def test_empty_negatives_message(self, negatives):
        with pytest.raises(ValueError, match="^alignment loss needs at least one negative$"):
            alignment_loss(np.ones(3), np.ones(3), negatives)

    @pytest.mark.parametrize(
        "negatives",
        [[np.ones(3), np.ones(2)], [np.ones(3), np.ones((2, 2))], np.ones((2, 2)), np.ones((2, 3, 2))],
    )
    def test_ragged_negatives_message(self, negatives):
        with pytest.raises(ValueError, match="^child, parent, and negatives must share one dimension$"):
            alignment_loss(np.ones(3), np.ones(3), negatives)

    def test_every_form_of_the_negatives_gives_the_same_bits(self):
        rng = np.random.default_rng(5)
        c, p, *negs = rng.normal(size=(8, 5))
        want = alignment_loss(c, p, np.array(negs), tau=0.3)
        forms = [negs, tuple(negs), [v[None, :] for v in negs], np.array(negs)[:, :, None],
                 np.asfortranarray(negs), iter(negs)]
        for form in forms:
            got = alignment_loss(c, p, form, tau=0.3)
            assert got[0] == want[0]
            for g, w in zip(got[1:3] + tuple(got[3]), want[1:3] + tuple(want[3])):
                assert g.tobytes() == w.tobytes()
            assert len(got[3]) == len(negs)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        d, n_neg = 8, 5
        for _ in range(10):
            vecs = rng.normal(size=(2 + n_neg, d))
            tau = float(rng.uniform(0.3, 2.0))

            def f(flat):
                m = flat.reshape(2 + n_neg, d)
                return alignment_loss(m[0], m[1], list(m[2:]), tau=tau)[0]

            loss, gc, gp, gn = alignment_loss(vecs[0], vecs[1], list(vecs[2:]), tau=tau)
            analytic = np.concatenate([gc, gp] + gn)
            assert rel_err(analytic, central_diff(f, vecs.ravel())) < 1e-6


class TestRankingLoss:
    def test_inactive_hinge(self):
        q = np.array([1.0, 0.0])
        loss, gq, gp, gn = ranking_loss(q, np.array([5.0, 0.0]), np.array([0.0, 0.0]), margin=1.0)
        assert loss == 0.0
        assert not gq.any() and not gp.any() and not gn.any()

    def test_tied_scores_give_margin(self):
        q = np.array([1.0, 1.0])
        v = np.array([0.25, 0.25])
        loss, *_ = ranking_loss(q, v, v.copy(), margin=1.0)
        assert loss == pytest.approx(1.0)

    def test_hand_case_and_gradients(self):
        q = np.array([1.0, 0.0])
        p = np.array([0.3, 9.0])
        n = np.array([0.5, -2.0])
        loss, gq, gp, gn = ranking_loss(q, p, n, margin=1.0)
        assert loss == pytest.approx(1.2)
        flat = np.concatenate([q, p, n])

        def f(x):
            return ranking_loss(x[:2], x[2:4], x[4:], margin=1.0)[0]

        assert rel_err(np.concatenate([gq, gp, gn]), central_diff(f, flat)) < 1e-6

    def test_shift_invariance_of_scores(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=4)
        p = rng.normal(size=4)
        n = rng.normal(size=4)
        delta = rng.normal(size=4)
        # adding the same delta to both sides shifts s+ and s- equally
        base = ranking_loss(q, p, n, margin=0.8)[0]
        shifted = ranking_loss(q, p + delta, n + delta, margin=0.8)[0]
        assert base == pytest.approx(shifted, rel=1e-9)


class TestTripletSampler:
    @staticmethod
    def two_blob_tree():
        rng = np.random.default_rng(4)
        X = np.vstack(
            [rng.normal(0, 0.1, size=(6, 2)), rng.normal(0, 0.1, size=(6, 2)) + 40.0]
        ).astype(np.float32)
        return build_tree(X, TreeBuildConfig(k=2, seed=0, method="constrained"))

    def test_depth_zero_impossible(self):
        t = self.two_blob_tree()
        with pytest.raises(ValueError):
            triplet_sampler(t, 0, 0, seed=1)

    def test_blob_separation(self):
        t = self.two_blob_tree()
        blob_a = set(np.nonzero(t.paths[:, 0] == t.paths[0, 0])[0].tolist())
        for seed in range(10):
            pos, neg = triplet_sampler(t, 0, 1, seed=seed)
            assert pos in blob_a and pos != 0
            assert neg not in blob_a

    def test_deterministic(self):
        t = self.two_blob_tree()
        assert triplet_sampler(t, 2, 1, seed=9) == triplet_sampler(t, 2, 1, seed=9)


def scan_triplet_sampler(t, target: int, depth: int, seed) -> tuple[int, int]:
    """The sampler as a scan of every path: the reference the arena walk must match."""
    if not 0 <= target < t.n_items:
        raise IndexError(f"item {target} out of range [0, {t.n_items})")
    if not 0 <= depth <= t.depth:
        raise ValueError(f"prefix depth must be in [0, {t.depth}], got {depth}")
    prefix = t.paths[target, :depth]
    shares = (t.paths[:, :depth] == prefix).all(axis=1)
    positives = np.nonzero(shares)[0]
    positives = positives[positives != target]
    negatives = np.nonzero(~shares)[0]
    if positives.size == 0:
        raise ValueError(f"no item shares the depth-{depth} prefix of item {target}")
    if negatives.size == 0:
        raise ValueError(f"every item shares the depth-{depth} prefix of item {target}")
    rng = np.random.default_rng(seed)
    pos = int(positives[rng.integers(positives.size)])
    neg = int(negatives[rng.integers(negatives.size)])
    return pos, neg


def outcome(sampler, *args):
    """A sampler's result, or the type and message of what it raised."""
    try:
        return sampler(*args)
    except (IndexError, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([2, 3, 8]),
    n=st.integers(2, 300),
    tree_seed=st.integers(0, 2**31 - 1),
    target=st.integers(-2, 301),
    seed=st.integers(0, 2**63 - 1),
)
def test_sampler_matches_the_path_scan(k, n, tree_seed, target, seed):
    t = rand_tree(np.random.default_rng(tree_seed), n, k)
    target = min(target, n + 1)
    for depth in range(-1, t.depth + 2):
        want = outcome(scan_triplet_sampler, t, target, depth, seed)
        assert outcome(triplet_sampler, t, target, depth, seed) == want


def mixed_depth_trees():
    """Built trees whose leaves sit at several depths."""
    rng = np.random.default_rng(11)
    return [rand_tree(rng, n, k) for k, n in ((2, 21), (3, 10), (3, 97), (8, 70))]


def read_back(t):
    buf = stdio.StringIO()
    tio.write_tree(t, buf)
    return tio.read_tree(stdio.StringIO(buf.getvalue()))


def test_sampler_reads_the_arena_not_the_paths():
    for t in mixed_depth_trees():
        blind = dataclasses.replace(t, paths=np.full_like(t.paths, -1))
        for target in range(t.n_items):
            for depth in range(t.depth + 1):
                want = outcome(triplet_sampler, t, target, depth, 5)
                assert outcome(triplet_sampler, blind, target, depth, 5) == want


def test_items_below_every_node():
    built = mixed_depth_trees()
    for t in built + [read_back(t) for t in built]:
        assert len(set(t.node_depth[t.leaf_of_item].tolist())) > 1
        for v in range(t.n_nodes):
            prefix, u = [], v
            while u:
                prefix.append(int(np.flatnonzero(t.children(t.parent[u]) == u)[0]))
                u = t.parent[u]
            d = len(prefix)
            want = np.flatnonzero((t.paths[:, :d] == prefix[::-1]).all(axis=1))
            assert np.array_equal(_items_below(t, v), want)


class TestTotalLoss:
    def test_zero_weights(self):
        w = LossWeights(lambda_a=0.0, lambda_r=0.0)
        assert total_loss(1.7, 9.0, 9.0, w) == 1.7

    def test_arithmetic(self):
        w = LossWeights(lambda_a=0.5, lambda_r=0.1)
        assert total_loss(1.0, 2.0, 3.0, w) == pytest.approx(2.3)

    def test_linearity_in_alignment(self):
        w = LossWeights(lambda_a=0.7, lambda_r=0.2)
        base = total_loss(1.0, 2.0, 3.0, w)
        doubled = total_loss(1.0, 4.0, 3.0, w)
        assert doubled - base == pytest.approx(0.7 * 2.0)

    def test_weight_invariants(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_a=-0.1)
        with pytest.raises(ValueError):
            LossWeights(lambda_r=-0.1)

    @pytest.mark.parametrize("field", ["lambda_a", "lambda_r"])
    def test_nan_weight_refused(self, field):
        with pytest.raises(ValueError, match="^weights must be >= 0$"):
            LossWeights(**{field: float("nan")})
