import numpy as np
import pytest

from treeid.bench import BlobSpec, compare_methods, gen_blobs, time_builds
from treeid.core import TreeBuildConfig


def quick_cfg(**kw):
    base = dict(k=4, seed=1, lloyd_max_iters=8, outer_max_iters=2, greedy_threshold=64)
    base.update(kw)
    return TreeBuildConfig(**base)


class TestGenBlobs:
    def test_deterministic(self):
        spec = BlobSpec(n_items=100, dim=16, n_blobs=5, blob_spread=0.5, seed=3)
        a = gen_blobs(spec)
        b = gen_blobs(spec)
        assert np.array_equal(a, b)

    def test_shape_and_finite(self):
        m = gen_blobs(BlobSpec(n_items=100, dim=16, seed=0))
        assert m.shape == (100, 16) and m.dtype == np.float32 and m.flags.c_contiguous
        assert np.isfinite(m).all()

    def test_tight_blobs_classify_by_center(self):
        spec = BlobSpec(n_items=400, dim=8, n_blobs=4, blob_spread=0.01, seed=7)
        m = gen_blobs(spec)
        centers = np.random.default_rng(spec.seed).uniform(-10, 10, (spec.n_blobs, spec.dim))
        labels = np.arange(spec.n_items) % spec.n_blobs
        pts = m.astype(np.float64)
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        recovered = d2.argmin(axis=1)
        assert (recovered == labels).mean() > 0.99

    def test_invariants(self):
        with pytest.raises(ValueError):
            BlobSpec(n_items=3, dim=2, n_blobs=5)
        with pytest.raises(ValueError):
            BlobSpec(n_items=5, dim=2, n_blobs=2, blob_spread=0.0)


class TestTimeBuilds:
    def test_single_row(self):
        rows = time_builds(
            [300], ["greedy"], BlobSpec(n_items=300, dim=8, seed=0), quick_cfg(), repeats=1, warmup=False
        )
        assert len(rows) == 1
        r = rows[0]
        assert r.method == "greedy" and r.n_items == 300
        assert r.build_seconds > 0 and r.total_sse > 0

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            time_builds([400, 200], ["greedy"], BlobSpec(400, 8), quick_cfg())

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_must_be_positive(self, repeats):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            time_builds([100], ["greedy"], BlobSpec(100, 8), quick_cfg(), repeats=repeats)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            time_builds([100], ["fastest"], BlobSpec(100, 8), quick_cfg())


class TestCompareMethods:
    def test_sse_ordering_small(self):
        cmp = compare_methods(
            600,
            BlobSpec(n_items=600, dim=8, n_blobs=12, blob_spread=0.6, seed=5),
            quick_cfg(outer_max_iters=4),
        )
        sse = {m: cmp.rows[m].total_sse for m in cmp.rows}
        assert sse["constrained"] <= sse["hybrid"] * 1.01
        assert sse["hybrid"] <= sse["greedy"] * 1.01

    def test_hybrid_equals_constrained_below_threshold(self):
        spec = BlobSpec(n_items=200, dim=8, n_blobs=8, blob_spread=0.5, seed=2)
        cmp = compare_methods(200, spec, quick_cfg(greedy_threshold=2000, outer_max_iters=3))
        assert cmp.rows["hybrid"].total_sse == cmp.rows["constrained"].total_sse
