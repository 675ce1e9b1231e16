import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treeid import io as tio
from treeid.cli import run
from treeid.core import EmbeddingMatrix, TreeBuildConfig
from treeid.treebuild import build_tree


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path, capsys):
    emb = tmp_path / "items.semb"
    code, _, err = invoke(
        capsys,
        "gen-synth", "--n", "200", "--dim", "8", "--blobs", "8",
        "--spread", "0.4", "--seed", "3", "--out", str(emb),
    )
    assert code == 0, err
    return tmp_path, emb


def test_gen_build_verify(workspace, capsys):
    tmp, emb = workspace
    tree = tmp / "tree.json"
    code, _, err = invoke(
        capsys, "build-tree", "--embeddings", str(emb), "--k", "4", "--seed", "1", "--out", str(tree)
    )
    assert code == 0, err
    code, out, _ = invoke(capsys, "verify", "--tree", str(tree))
    assert code == 0
    assert out.startswith("ok:")


def test_usage_error_on_bad_k(workspace, capsys):
    tmp, emb = workspace
    code, _, err = invoke(
        capsys, "build-tree", "--embeddings", str(emb), "--k", "1", "--out", str(tmp / "t.json")
    )
    assert code == 1
    assert "usage error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = invoke(capsys, "verify", "--not-a-flag", "x")
    assert code == 1


def test_data_error_on_bad_magic(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.semb"
    bad.write_bytes(b"XEMB" + bytes(32))
    code, _, err = invoke(
        capsys, "build-tree", "--embeddings", str(bad), "--k", "4", "--out", str(tmp / "t.json")
    )
    assert code == 2
    assert "error" in err


def test_data_error_on_corrupt_tree(workspace, capsys):
    tmp, _ = workspace
    doc = tmp / "tree.json"
    doc.write_text('{"format":"treeid-v1","k":2,"depth":1,"n_items":2,"pad_token":2,"paths":[[0],[0]]}')
    code, _, err = invoke(capsys, "verify", "--tree", str(doc))
    assert code == 2


def test_decode_eval_pipeline(workspace, capsys):
    tmp, emb = workspace
    tree = tmp / "tree.json"
    assert invoke(capsys, "build-tree", "--embeddings", str(emb), "--k", "4", "--seed", "1",
                  "--out", str(tree))[0] == 0

    queries = tmp / "q.semb"
    m = tio.read_embeddings(str(emb))
    tio.write_embeddings(
        tio.EmbeddingMatrix(10, m.dim, m.as_array()[:10].reshape(-1).copy()), str(queries)
    )
    rank = tmp / "rank.csv"
    code, _, err = invoke(
        capsys, "decode", "--tree", str(tree), "--embeddings", str(emb),
        "--queries", str(queries), "--beam", "20", "--top", "10", "--out", str(rank),
    )
    assert code == 0, err

    truth = tmp / "truth.csv"
    truth.write_text("query,item\n" + "".join(f"{i},{i}\n" for i in range(10)))
    rep = tmp / "report.csv"
    code, _, err = invoke(
        capsys, "eval", "--runs", str(rank), "--truth", str(truth),
        "--cutoffs", "5,10", "--out", str(rep),
    )
    assert code == 0, err
    lines = rep.read_text().splitlines()
    assert lines[0] == "metric,cutoff,value"
    assert len(lines) == 1 + 6  # 3 metrics x 2 cutoffs


def test_default_cutoffs_are_20_and_50(workspace, capsys, monkeypatch):
    tmp, _ = workspace
    rank = tmp / "rank.csv"
    tio.write_ranking([[(1, 0.5)], [(0, 0.2)]], str(rank))
    truth = tmp / "truth.csv"
    truth.write_text("query,item\n0,1\n1,5\n")
    rep = tmp / "rep.csv"
    code, _, _ = invoke(capsys, "eval", "--runs", str(rank), "--truth", str(truth), "--out", str(rep))
    assert code == 0
    cutoffs = {line.split(",")[1] for line in rep.read_text().splitlines()[1:]}
    assert cutoffs == {"20", "50"}


def test_threads_do_not_change_artifacts(workspace, capsys):
    tmp, emb = workspace
    outs = []
    for threads in ("1", "3"):
        tree = tmp / f"tree_{threads}.json"
        code, _, err = invoke(
            capsys, "build-tree", "--embeddings", str(emb), "--k", "4", "--seed", "9",
            "--threads", threads, "--out", str(tree),
        )
        assert code == 0, err
        outs.append(tree.read_bytes())
    assert outs[0] == outs[1]


def test_threads_env_default(workspace, capsys, monkeypatch):
    tmp, emb = workspace
    monkeypatch.setenv("TREEID_THREADS", "2")
    tree = tmp / "tree_env.json"
    code, _, _ = invoke(
        capsys, "build-tree", "--embeddings", str(emb), "--k", "4", "--seed", "9", "--out", str(tree)
    )
    assert code == 0
    ref = tmp / "tree_ref.json"
    monkeypatch.setenv("TREEID_THREADS", "1")
    assert invoke(capsys, "build-tree", "--embeddings", str(emb), "--k", "4", "--seed", "9",
                  "--out", str(ref))[0] == 0
    assert tree.read_bytes() == ref.read_bytes()


def test_build_tree_defaults_are_the_config_defaults(workspace, capsys):
    tmp, emb = workspace
    tree, ref = tmp / "tree.json", tmp / "ref.json"
    code, _, err = invoke(capsys, "build-tree", "--embeddings", str(emb), "--out", str(tree))
    assert code == 0, err
    tio.write_tree(build_tree(tio.read_embeddings(emb), TreeBuildConfig(k=8)), ref)
    assert tree.read_bytes() == ref.read_bytes()


def test_bench_scaling_csv(workspace, capsys):
    tmp, _ = workspace
    out = tmp / "bench.csv"
    code, _, err = invoke(
        capsys, "bench", "scaling", "--sizes", "150,300", "--methods", "greedy",
        "--dim", "8", "--repeats", "1", "--no-warmup", "--threads", "2", "--out", str(out),
    )
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[0] == "method,n_items,dim,k,seed,build_seconds,total_sse"
    assert len(lines) == 3
    assert lines[1].startswith("greedy,150,")


def test_bench_compare_prints_ratios(workspace, capsys):
    tmp, _ = workspace
    out = tmp / "cmp.csv"
    code, stdout, err = invoke(
        capsys, "bench", "compare", "--n", "300", "--dim", "8", "--k", "4",
        "--outer-iters", "2", "--out", str(out),
    )
    assert code == 0, err
    assert "greedy/constrained" in stdout and "hybrid/constrained" in stdout
    assert len(out.read_text().splitlines()) == 4


def test_tsv_output_and_input(workspace, capsys):
    tmp, _ = workspace
    tsv = tmp / "emb.tsv"
    code, _, _ = invoke(
        capsys, "gen-synth", "--n", "50", "--dim", "4", "--blobs", "5",
        "--seed", "2", "--format", "tsv", "--out", str(tsv),
    )
    assert code == 0
    tree = tmp / "tree.json"
    code, _, err = invoke(
        capsys, "build-tree", "--embeddings", str(tsv), "--k", "4", "--out", str(tree)
    )
    assert code == 0, err
    assert invoke(capsys, "verify", "--tree", str(tree))[0] == 0


@pytest.mark.parametrize("scale", [1e0, 1e5, 1e6, 1e8])
def test_build_tree_at_large_coordinate_scales(tmp_path, capsys, scale):
    emb = tmp_path / "big.semb"
    X = np.random.default_rng(0).normal(size=(300, 8)) * scale
    tio.write_embeddings(EmbeddingMatrix.from_array(X.astype(np.float32)), str(emb))
    for method in ("greedy", "constrained", "hybrid"):
        tree = tmp_path / f"{method}.json"
        code, _, err = invoke(
            capsys, "build-tree", "--embeddings", str(emb), "--method", method,
            "--k", "4", "--threshold", "64", "--out", str(tree),
        )
        assert code == 0, err
        assert invoke(capsys, "verify", "--tree", str(tree))[0] == 0


@pytest.mark.parametrize(
    "ranking, truth",
    [
        ("query,rank,item\n0,1,5\n", "query,item\n065\n"),
        ("query,rank,item\n0,1\n", "query,item\n0,5\n"),
        ("query,rank,item\n0,one,5\n", "query,item\n0,5\n"),
        ("query,rank,item\n0,1,5\n", "query,item\n0,5.5\n"),
    ],
)
def test_eval_bad_rows_exit_2(tmp_path, capsys, ranking, truth):
    (tmp_path / "runs.csv").write_text(ranking)
    (tmp_path / "truth.csv").write_text(truth)
    code, _, err = invoke(
        capsys, "eval", "--runs", str(tmp_path / "runs.csv"), "--truth", str(tmp_path / "truth.csv"),
        "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 2
    assert "line 2: " in err


def test_module_entry_point_runs(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "treeid.cli", "verify", "--tree", str(tmp_path / "missing.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
