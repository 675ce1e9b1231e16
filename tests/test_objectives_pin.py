"""Output pin of the training losses: rewrites of treeid.objectives must keep bits.

SHA-256 over the bytes of every value, gradient and draw that alignment_loss,
generation_loss, ranking_loss and triplet_sampler return on a fixed grid of
seeded cases. The alignment grid covers d in {1, 16}, 1-8 negatives passed as
a list of rows, as a tuple of (d, 1) columns and as one 2-D array in C and in
Fortran order, signed zeros, three temperatures and saturated logits. The
generation grid covers pad steps and single-child steps. The digests were recorded while
alignment_loss still converted and summed its negatives one by one in
Python; a change that alters them changes an output.
"""

import hashlib

import numpy as np

from treeid.core import IdentifierTree
from treeid.objectives import alignment_loss, generation_loss, ranking_loss, triplet_sampler

PINNED = {
    "alignment": "e4d3fcde44cf2c3f88b4982f66bd21ab9a406e44c023f5583d7e23852d8b8483",
    "generation": "ca178501377ec96d22c4682b10c205405c384ac92a96978840245da92d0d4df3",
    "ranking": "fb03ea867504dc30f87bb438d40e4c1fc2403ec977a59b7f701f9d9d747e2205",
    "triplet": "dae38aeecf4af7d41dde7f78ea93a1cb0bc6fa1b031e9024c8d982a716de0d67",
}


def _feed(h, *values):
    """Hash each value's type, dtype, shape and bytes; lists and tuples element by element."""
    for v in values:
        if isinstance(v, (list, tuple)):
            h.update(f"{type(v).__name__}{len(v)}".encode())
            _feed(h, *v)
        elif isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, float):
            h.update(b"f" + np.float64(v).tobytes())
        else:
            h.update(repr(v).encode())


def _vectors(rng, kind, m, d):
    """m vectors of dimension d: normal, mostly signed zeros, or large enough to saturate."""
    if kind == "zeros":
        return rng.choice(np.array([0.0, -0.0, -0.0, 1.0, -1.0]), size=(m, d))
    scale = 40.0 if kind == "saturated" else 1.0
    return scale * rng.normal(size=(m, d))


def alignment_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(2101)
    for d in (1, 16):
        for n_neg in range(1, 9):
            for kind in ("normal", "zeros", "saturated"):
                for tau in (0.07, 1.0, 3.0):
                    c, p, *negs = _vectors(rng, kind, 2 + n_neg, d)
                    negs = np.array(negs)
                    forms = (list(negs), tuple(v[:, None] for v in negs), negs, np.asfortranarray(negs))
                    for form in forms:
                        _feed(h, alignment_loss(c, p, form, tau=tau))
    return h.hexdigest()


def generation_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(2102)
    pad = 8
    for case in range(300):
        depth = int(rng.integers(1, 6))
        sizes = rng.integers(1, 9, size=depth)
        target = [int(rng.integers(s)) for s in sizes]
        kind = ("normal", "zeros", "saturated")[case % 3]
        steps = [_vectors(rng, kind, 1, int(s))[0] for s in sizes]
        if case % 4 == 1:  # trailing pad steps, with or without their score vectors
            n_pad = int(rng.integers(1, 3))
            target += [pad] * n_pad
            steps += [rng.normal(size=int(rng.integers(1, 9))) for _ in range(n_pad)] if case % 8 == 1 else []
        tokens = np.array(target, dtype=np.int32) if case % 2 else target
        _feed(h, generation_loss(steps, tokens, pad_token=pad))
    return h.hexdigest()


def ranking_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(2103)
    for d in (1, 16):
        for margin in (0.0, 0.5, 1.0, 4.0):
            for _ in range(20):
                q, p, n = rng.normal(size=(3, d))
                _feed(h, ranking_loss(q, p, n, margin=margin))
    return h.hexdigest()


def balanced_paths(rng, n, k):
    """A valid tree's path matrix: near-equal contiguous splits, rows in random item order."""
    out = []

    def walk(items, prefix):
        if len(items) == 1:
            out.append((int(items[0]), prefix))
            return
        groups = np.array_split(items, k) if len(items) > k else [[i] for i in items]
        for tok, g in enumerate(groups):
            walk(g, prefix + [tok])

    walk(rng.permutation(n), [])
    depth = max(len(p) for _, p in out)
    paths = np.full((n, depth), k, dtype=np.int32)
    for item, p in out:
        paths[item, : len(p)] = p
    return paths


def triplet_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(2104)
    for k, n in ((2, 37), (3, 100), (8, 700)):
        tree = IdentifierTree.from_paths(k, balanced_paths(rng, n, k))
        for _ in range(60):
            target, depth = int(rng.integers(n)), int(rng.integers(tree.depth + 1))
            try:
                _feed(h, triplet_sampler(tree, target, depth, int(rng.integers(2**31))))
            except ValueError as e:
                _feed(h, str(e))
    return h.hexdigest()


def test_alignment_bits():
    assert alignment_digest() == PINNED["alignment"]


def test_generation_bits():
    assert generation_digest() == PINNED["generation"]


def test_ranking_bits():
    assert ranking_digest() == PINNED["ranking"]


def test_triplet_bits():
    assert triplet_digest() == PINNED["triplet"]
