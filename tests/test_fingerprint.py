"""Output fingerprint: refactors of the tree and the decoder must keep bytes.

SHA-256 of the tree JSON and of the ranking CSV over a small fixed grid of
CLI runs (all three methods, k in {2, 8, 32}). The queries are noisy item
copies plus an all-zero row, whose ranking is decided by the path tie-break
alone. The greedy and hybrid digests at k in {2, 8} were recorded before the
tree arena and the beam search moved to arrays, the rest before the build
went level-synchronous; a change that alters them changes an output.
"""

import hashlib

import numpy as np
import pytest

from treeid import io as tio
from treeid.cli import run as cli_run

PINNED = {
    ("constrained", 2): (
        "9faf2d8cffb632f59d9c556c4ceb9a904831e1fffb47d57a16f510f149332cee",
        "f2588ccafb5f8a80f54e8f9c565486e940a1129f6901a104252d4ddf0848d975",
    ),
    ("constrained", 8): (
        "7d0b24289131a28b49ed8827e372d6f36ef4073b0a2318a96cfc364c1a376288",
        "63955d31944372d8224337e135c10644545cbe3430c102ece4d9a54a31207c9f",
    ),
    ("constrained", 32): (
        "98b8bcc11c3c0d0832a788c8828d8806974e766b6938293a907f409a305f132e",
        "7f9fd76c413c019d840d92ca0e44ce99bf65925780510944594fd9071249dca4",
    ),
    ("greedy", 2): (
        "313dc053f77a1702123288eee7bb5228d8393aec478a805e5d88e15685abd0c7",
        "b6060df48bae93511427676c1da1ba482a4eba8648618c71c911c6c2328ac4ad",
    ),
    ("greedy", 8): (
        "790ed55a2766b09090c16a7aade9641fae5e5207ca2d44ca701dc7289f4557b0",
        "bedd47393e1d75578ac58b6cb333f58bb930068a17ef8b15de3272807e56064d",
    ),
    ("greedy", 32): (
        "db3202ea0a6d74c0a97b13a6e81ca3979f9cf4190a4c1a0700c6dfcc59623e92",
        "190eabda58c92996177e0103a66ac70235eb14581d932edc3ac1eb1fb5cefee6",
    ),
    ("hybrid", 2): (
        "9305e1f1de0a2c61dc6a3c80a9e257519e22348ca2021c3e0c75755f228a1cb3",
        "673ae3f5b9f371ffa9b52b9002262171ad8d2e3ead6cc7da2e3015074ef0798b",
    ),
    ("hybrid", 8): (
        "cc013d45e16a1ab5d18b4c82be16c76fb603c80d7558f379ef4db78af1c35181",
        "44f29042e5af7b2dbd0694ba105736b75759145d3bdb938cd20f03939939db3c",
    ),
    ("hybrid", 32): (
        "db3202ea0a6d74c0a97b13a6e81ca3979f9cf4190a4c1a0700c6dfcc59623e92",
        "190eabda58c92996177e0103a66ac70235eb14581d932edc3ac1eb1fb5cefee6",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    d = tmp_path_factory.mktemp("fingerprint")
    emb, queries = d / "items.semb", d / "queries.semb"
    assert cli_run([
        "gen-synth", "--n", "600", "--dim", "8", "--blobs", "16", "--spread", "0.5",
        "--seed", "3", "--out", str(emb),
    ]) == 0
    X = tio.read_embeddings(emb)
    rng = np.random.default_rng(11)
    Q = X[rng.choice(len(X), size=40, replace=False)] + rng.normal(0.0, 0.2, size=(40, 8))
    Q = np.vstack([Q, np.zeros((1, 8))]).astype(np.float32)
    tio.write_embeddings(Q, queries)
    return d, emb, queries


@pytest.mark.parametrize("method,k", sorted(PINNED))
def test_tree_and_ranking_bytes(catalog, method, k):
    d, emb, queries = catalog
    tree, ranking = d / f"tree-{method}-{k}.json", d / f"ranking-{method}-{k}.csv"
    assert cli_run([
        "build-tree", "--embeddings", str(emb), "--method", method, "--k", str(k),
        "--threshold", "64", "--seed", "5", "--out", str(tree),
    ]) == 0
    assert cli_run([
        "decode", "--tree", str(tree), "--embeddings", str(emb), "--queries", str(queries),
        "--beam", "10", "--top", "5", "--out", str(ranking),
    ]) == 0
    assert (_sha(tree), _sha(ranking)) == PINNED[(method, k)]
