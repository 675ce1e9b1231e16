import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from treeid import io as tio
from treeid.cli import run
from treeid.core import TreeBuildConfig
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


@pytest.mark.parametrize(
    "argv",
    [
        ["build-tree", "--embeddings", "{emb}", "--k", "3000000000", "--threshold", "3000000000"],
        ["bench", "scaling", "--sizes", ","],
        ["gen-synth", "--n", "10", "--dim", "8", "--blobs", "0"],
        ["gen-synth", "--n", "10", "--dim", "0", "--blobs", "2"],
        ["gen-synth", "--n", "10", "--dim", "8", "--blobs", "64"],
        ["bench", "compare", "--n", "0"],
        ["eval", "--runs", "{emb}", "--truth", "{emb}", "--cutoffs", ","],
        ["gen-synth", "--n", "10", "--dim", "8", "--blobs", "2", "--spread", "inf"],
        ["bench", "scaling", "--sizes", "100", "--methods", "greedy,fastest"],
        ["bench", "scaling", "--sizes", "200,100"],
        ["bench", "scaling", "--sizes", "100", "--repeats", "0"],
        ["bench", "compare", "--n", "100", "--repeats", "-2"],
        ["eval", "--runs", "{emb}", "--truth", "{emb}", "--cutoffs", "0"],
        ["eval", "--runs", "{emb}", "--truth", "{emb}", "--cutoffs", "20,20"],
    ],
)
def test_argument_errors_are_usage_errors(workspace, capsys, argv):
    tmp, emb = workspace
    out = tmp / "out"
    code, _, err = invoke(capsys, *(a.format(emb=emb) for a in argv), "--out", str(out))
    assert code == 1
    assert err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("n, spread", [(1000, "1e38"), (10, "1e39")])
def test_gen_synth_refuses_points_beyond_float32(tmp_path, capsys, n, spread):
    # a finite spread can still put points beyond float32's range, which
    # every reader would reject
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and the cast must not overflow with a RuntimeWarning
        code, _, err = invoke(capsys, "gen-synth", "--n", str(n), "--dim", "4", "--blobs", "2",
                              "--spread", spread, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and "blob_spread" in err
    assert not out.exists()


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
    tio.write_embeddings(m[:10], str(queries))
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
    tio.write_embeddings(X.astype(np.float32), str(emb))
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


@pytest.fixture
def served(workspace, capsys):
    """A workspace with a built tree and a ranking of the catalog's first ten items."""
    tmp, emb = workspace
    assert invoke(capsys, "build-tree", "--embeddings", str(emb), "--k", "4", "--out", str(tmp / "tree.json"))[0] == 0
    m = tio.read_embeddings(str(emb))
    tio.write_embeddings_tsv(m[:10], str(tmp / "q.tsv"))
    assert invoke(
        capsys, "decode", "--tree", str(tmp / "tree.json"), "--embeddings", str(emb),
        "--queries", str(tmp / "q.tsv"), "--beam", "5", "--top", "5", "--out", str(tmp / "rank.csv"),
    )[0] == 0
    (tmp / "truth.csv").write_text("query,item\n" + "".join(f"{i},{i}\n" for i in range(10)))
    return tmp, emb


# (command, the option whose file is corrupted, the other options, the edit)
CORRUPT_INPUTS = [
    ("build-tree", "--embeddings", ["--out", "out.json"], edit) for edit in (b"\xff", b"nan", b"1e39")
] + [
    ("decode", "--queries", ["--tree", "tree.json", "--embeddings", "items.semb", "--out", "out.csv"], edit)
    for edit in (b"\xff", b"nan", b"1e39")
] + [
    ("eval", "--runs", ["--truth", "truth.csv", "--out", "out.csv"], b"\xff"),
    ("verify", "--tree", [], b"\xff"),
]


@pytest.mark.parametrize(
    "command, option, rest, edit", CORRUPT_INPUTS, ids=[f"{c[0]}-{c[3]!r}" for c in CORRUPT_INPUTS]
)
def test_undecodable_and_non_finite_inputs_exit_2(served, capsys, monkeypatch, command, option, rest, edit):
    tmp, _ = served
    monkeypatch.chdir(tmp)
    good = {"--embeddings": "q.tsv", "--queries": "q.tsv", "--runs": "rank.csv", "--tree": "tree.json"}[option]
    text = (tmp / good).read_bytes()
    if command == "verify":  # the canonical tree is one line: corrupt its first token
        bad = text.replace(b"[[", b"[[" + edit, 1)
    else:  # append to line 2, or replace its last value
        end = text.index(b"\n", text.index(b"\n") + 1)
        start = end if edit == b"\xff" else text.rindex(b",", 0, end) + 1
        bad = text[:start] + edit + text[end:]
    (tmp / "bad").write_bytes(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e39 must not overflow with a RuntimeWarning
        code, _, err = invoke(capsys, command, option, "bad", *rest)
    assert code == 2, err
    assert err.startswith("error: ")
    if command != "verify":
        assert "line 2: " in err, err
