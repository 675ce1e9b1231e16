"""Synthetic blob data and construction-time scaling measurements.

Timing uses the monotonic clock, discards one warm-up run, and reports the
median of the timed repeats. Within a comparison all methods build from the
same data and the same seed, so every level's k-means++ / Lloyd centroids
coincide across methods and SSE differences isolate the assignment strategy.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import METHODS, EmbeddingMatrix, TreeBuildConfig
from .treebuild import build_tree_with_stats


@dataclass(frozen=True)
class BlobSpec:
    """Gaussian blob generator settings standing in for real item embeddings."""

    n_items: int
    dim: int
    n_blobs: int = 64
    blob_spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.n_blobs <= self.n_items:
            raise ValueError(f"n_blobs must be in [1, n_items={self.n_items}], got {self.n_blobs}")
        if not self.blob_spread > 0:
            raise ValueError(f"blob_spread must be > 0, got {self.blob_spread}")
        if not np.isfinite(self.blob_spread):
            raise ValueError(f"blob_spread must be finite, got {self.blob_spread}")


def gen_blobs(spec: BlobSpec) -> EmbeddingMatrix:
    """Items scattered around blob centers drawn uniformly in [-10, 10]^d.

    Items are assigned to centers round-robin and offset by isotropic Gaussian
    noise with the configured spread. Deterministic per seed. Raises
    ValueError when the spread puts points beyond float32's range.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-10.0, 10.0, size=(spec.n_blobs, spec.dim))
    which = np.arange(spec.n_items) % spec.n_blobs
    pts = centers[which] + rng.normal(0.0, spec.blob_spread, size=(spec.n_items, spec.dim))
    with np.errstate(over="ignore"):
        pts = pts.astype(np.float32)
    if not np.isfinite(pts).all():
        raise ValueError(f"blob_spread {spec.blob_spread} overflows float32")
    return EmbeddingMatrix.from_array(pts)


def blob_centers(spec: BlobSpec) -> tuple[np.ndarray, np.ndarray]:
    """The generator's centers and per-item center labels (for sanity checks)."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-10.0, 10.0, size=(spec.n_blobs, spec.dim))
    return centers, np.arange(spec.n_items) % spec.n_blobs


@dataclass(frozen=True)
class BenchRow:
    method: str
    n_items: int
    dim: int
    k: int
    seed: int
    build_seconds: float
    total_sse: float


def time_builds(
    sizes,
    methods,
    base_spec: BlobSpec,
    cfg: TreeBuildConfig,
    repeats: int = 3,
    warmup: bool = True,
) -> list[BenchRow]:
    """Build a tree per (size, method) cell and record wall seconds and SSE.

    sizes must be ascending. Each cell uses a fixed seed: the blob seed for
    the data and cfg.seed for the build. An unknown method fails
    TreeBuildConfig's check before any build runs.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    configs = [replace(cfg, method=m) for m in methods]
    rows = []
    for n in sizes:
        X = gen_blobs(replace(base_spec, n_items=n))
        for method_cfg in configs:
            if warmup:
                build_tree_with_stats(X, method_cfg)
            times = []
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                _, stats = build_tree_with_stats(X, method_cfg)
                times.append(time.perf_counter() - t0)
            seconds = float(np.median(times))
            rows.append(BenchRow(method_cfg.method, n, X.dim, cfg.k, cfg.seed, seconds, stats.total_sse))
    return rows


@dataclass(frozen=True)
class MethodComparison:
    """All three methods on identical data, with time and SSE ratios."""

    n_items: int
    rows: dict  # method -> BenchRow

    def time_ratio(self, method: str) -> float:
        return self.rows[method].build_seconds / self.rows["constrained"].build_seconds

    def sse_ratio(self, method: str) -> float:
        return self.rows[method].total_sse / self.rows["constrained"].total_sse


def compare_methods(
    n_items: int,
    spec: BlobSpec,
    cfg: TreeBuildConfig,
    repeats: int = 1,
    warmup: bool = False,
) -> MethodComparison:
    """Run all three methods on one dataset and report seconds, SSE, and ratios."""
    rows = time_builds([n_items], METHODS, spec, cfg, repeats, warmup)
    return MethodComparison(n_items=n_items, rows={r.method: r for r in rows})
