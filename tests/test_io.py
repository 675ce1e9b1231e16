import csv
import io as stdio
import json
import re
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeid import core
from treeid import io as tio
from treeid.bench import BenchRow
from treeid.cli import run as cli_run
from treeid.core import TreeBuildConfig, validate_tree
from treeid.metrics import EvalReport
from treeid.treebuild import build_tree

from conftest import rand_tree


def small_matrix():
    return np.arange(6, dtype=np.float32).reshape(2, 3)


class TestBinaryEmbeddings:
    def test_header_layout(self):
        buf = stdio.BytesIO()
        tio.write_embeddings(small_matrix(), buf)
        raw = buf.getvalue()
        assert raw[:4] == b"SEMB"
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:16] == (2).to_bytes(8, "little")
        assert raw[16:20] == (3).to_bytes(4, "little")
        assert len(raw) == 20 + 2 * 3 * 4

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(17, 5)).astype(np.float32)
        buf = stdio.BytesIO()
        tio.write_embeddings(m, buf)
        first = buf.getvalue()
        back = tio.read_embeddings(stdio.BytesIO(first))
        assert back.shape == (17, 5) and back.dtype == np.float32 and back.flags.c_contiguous
        assert np.array_equal(back, m)
        buf2 = stdio.BytesIO()
        tio.write_embeddings(back, buf2)
        assert buf2.getvalue() == first

    def test_read_holds_one_copy(self, tmp_path):
        m = np.random.default_rng(1).normal(size=(100_000, 16)).astype(np.float32)
        path = tmp_path / "items.semb"
        tio.write_embeddings(m, path)
        tracemalloc.start()
        try:
            back = tio.read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, m)
        assert peak < 1.5 * m.nbytes

    def test_unseekable_stream(self):
        class Pipe(stdio.BytesIO):
            def seekable(self):
                return False

            def seek(self, *args):
                raise stdio.UnsupportedOperation("seek")

        buf = stdio.BytesIO()
        tio.write_embeddings(small_matrix(), buf)
        assert np.array_equal(tio.read_embeddings(Pipe(buf.getvalue())), small_matrix())
        with pytest.raises(tio.TruncatedPayloadError, match=r"^payload is 25 bytes, expected 24$"):
            tio.read_embeddings(Pipe(buf.getvalue() + b"\0"))

    def test_huge_header_is_truncated_not_allocated(self):
        raw = tio._HEADER.pack(tio.MAGIC, tio.VERSION, 2**40, 16) + bytes(64)
        with pytest.raises(tio.TruncatedPayloadError, match=f"^payload is 64 bytes, expected {2**46}$"):
            tio.read_embeddings(stdio.BytesIO(raw))

    def test_bad_magic(self):
        with pytest.raises(tio.BadMagicError):
            tio.read_embeddings(stdio.BytesIO(b"XEMB" + bytes(16)))

    def test_bad_version(self):
        buf = stdio.BytesIO()
        tio.write_embeddings(small_matrix(), buf)
        raw = bytearray(buf.getvalue())
        raw[4] = 9
        with pytest.raises(tio.UnsupportedVersionError):
            tio.read_embeddings(stdio.BytesIO(bytes(raw)))

    def test_truncated_payload(self):
        buf = stdio.BytesIO()
        tio.write_embeddings(small_matrix(), buf)
        with pytest.raises(tio.TruncatedPayloadError):
            tio.read_embeddings(stdio.BytesIO(buf.getvalue()[:-3]))

    def test_nan_payload(self):
        vals = np.array([[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        buf = stdio.BytesIO()
        tio.write_embeddings(vals, buf)
        with pytest.raises(tio.NonFinitePayloadError):
            tio.read_embeddings(stdio.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize(
        "n_items, dim, message",
        [
            (0, 3, "n_items must be >= 1, got 0"),
            (2, 0, "dim must be >= 1, got 0"),
            (0, 0, "n_items must be >= 1, got 0; dim must be >= 1, got 0"),
            (2**63, 0, "dim must be >= 1, got 0"),  # more rows than any array shape holds
            (2**64 - 1, 0, "dim must be >= 1, got 0"),
        ],
    )
    def test_empty_header_sizes(self, tmp_path, capsys, n_items, dim, message):
        raw = tio._HEADER.pack(tio.MAGIC, tio.VERSION, n_items, dim)  # an empty payload fits each
        with pytest.raises(tio.NonFinitePayloadError, match=f"^{re.escape(message)}$"):
            tio.read_embeddings(stdio.BytesIO(raw))
        path = tmp_path / "items.semb"
        path.write_bytes(raw)
        out = str(tmp_path / "tree.json")
        assert cli_run(["build-tree", "--embeddings", str(path), "--out", out, "--k", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTsvEmbeddings:
    def test_parse(self):
        m = tio.read_embeddings_tsv(stdio.StringIO("0\t1.0,2.0\n1\t3.0,4.0\n"))
        assert m.dtype == np.float32 and m.flags.c_contiguous
        assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_row_names_line(self):
        with pytest.raises(tio.TsvFormatError, match="line 2"):
            tio.read_embeddings_tsv(stdio.StringIO("0\t1.0,2.0\n1\t3.0\n"))

    def test_unparsable_number_names_line(self):
        with pytest.raises(tio.TsvFormatError, match="line 1"):
            tio.read_embeddings_tsv(stdio.StringIO("0\tabc,2.0\n"))

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e39", "-1e39"])
    def test_non_finite_value_names_line(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e39 must not overflow with a RuntimeWarning
            with pytest.raises(tio.TsvFormatError, match="^line 3: non-finite value$"):
                tio.read_embeddings_tsv(stdio.StringIO(f"0\t1.0,2.0\n\n1\t3.0,{value}\n"))

    def test_cross_format_equality(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(9, 4)).astype(np.float32)
        text = stdio.StringIO()
        tio.write_embeddings_tsv(m, text)
        back = tio.read_embeddings_tsv(stdio.StringIO(text.getvalue()))
        assert np.array_equal(back, m)  # 9 significant digits round-trip f32

    def test_float64_input_written_as_float32(self):
        X = np.random.default_rng(3).normal(size=(6, 3))
        text, binary = stdio.StringIO(), stdio.BytesIO()
        tio.write_embeddings_tsv(X, text)
        tio.write_embeddings(X, binary)
        back = tio.read_embeddings_tsv(stdio.StringIO(text.getvalue()))
        assert np.array_equal(back, X.astype(np.float32))
        assert np.array_equal(back, tio.read_embeddings(stdio.BytesIO(binary.getvalue())))


class TestTreeJson:
    def test_sequential_leaves_document(self):
        X = np.random.default_rng(2).normal(size=(5, 2)).astype(np.float32)
        t = build_tree(X, TreeBuildConfig(k=8))
        buf = stdio.StringIO()
        tio.write_tree(t, buf)
        doc = json.loads(buf.getvalue())
        assert doc["format"] == "treeid-v1"
        assert doc["pad_token"] == 8
        assert doc["paths"] == [[0], [1], [2], [3], [4]]

    def test_round_trip_byte_identical(self):
        X = np.random.default_rng(3).normal(size=(33, 3)).astype(np.float32)
        t = build_tree(X, TreeBuildConfig(k=3, seed=4))
        buf = stdio.StringIO()
        tio.write_tree(t, buf)
        first = buf.getvalue()
        back = tio.read_tree(stdio.StringIO(first))
        assert np.array_equal(back.paths, t.paths)
        buf2 = stdio.StringIO()
        tio.write_tree(back, buf2)
        assert buf2.getvalue() == first

    def test_duplicate_path_rejected(self):
        doc = {
            "format": "treeid-v1",
            "k": 2,
            "depth": 1,
            "n_items": 2,
            "pad_token": 2,
            "paths": [[0], [0]],
        }
        with pytest.raises(tio.TreeFormatError):
            tio.read_tree(stdio.StringIO(json.dumps(doc)))

    def test_unbalanced_paths_rejected(self):
        doc = {
            "format": "treeid-v1",
            "k": 2,
            "depth": 2,
            "n_items": 5,
            "pad_token": 2,
            "paths": [[0, 0], [0, 1], [1, 0], [1, 1], [0, 2]],
        }
        with pytest.raises(tio.TreeFormatError):
            tio.read_tree(stdio.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize(
        "depth,paths",
        [(2, [[0, 0], [1, 2]]), (3, [[0, 0, 0], [1, 2, 2]])],
    )
    def test_chain_under_a_leaf_group_rejected(self, depth, paths):
        doc = {"format": "treeid-v1", "k": 2, "depth": depth, "n_items": 2, "pad_token": 2, "paths": paths}
        with pytest.raises(tio.TreeFormatError, match=r"^leaf group of 2 items at prefix \(\): child 0 is not a leaf"):
            tio.read_tree(stdio.StringIO(json.dumps(doc)))

    def test_wrong_pad_token_rejected(self):
        doc = {
            "format": "treeid-v1",
            "k": 2,
            "depth": 1,
            "n_items": 2,
            "pad_token": 3,
            "paths": [[0], [1]],
        }
        with pytest.raises(tio.TreeFormatError):
            tio.read_tree(stdio.StringIO(json.dumps(doc)))


def tree_doc(**fields):
    doc = {"format": "treeid-v1", "k": 2, "depth": 1, "n_items": 2, "pad_token": 2, "paths": [[0], [1]]}
    doc.update(fields)
    return json.dumps(doc)


class TestTreeJsonTypes:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(paths=[[0.9], [1.2]]),
            dict(paths=[[0.0], [1.0]]),
            dict(paths=[[False], [True]]),
            dict(paths=[[0], [True]]),
            dict(paths=[["0"], ["1"]]),
            dict(paths=[[0], [None]]),
            dict(paths=[[0], [1, 0]]),
            dict(paths=[[0], [2**32 + 1]]),
            dict(paths=[[0], [2**64]]),
            dict(paths=[[0], [-(2**63) - 1]]),
            dict(k="2", pad_token="2"),
            dict(k=2.0),
            dict(k=True),
            dict(depth=1.0),
            dict(n_items=2.7),
            dict(pad_token=False),
            dict(k=2**31, pad_token=2**31),
        ],
    )
    def test_rejected(self, fields):
        with pytest.raises(tio.TreeFormatError):
            tio.read_tree(stdio.StringIO(tree_doc(**fields)))

    def test_strings_holding_literals_are_harmless(self):
        t = tio.read_tree(stdio.StringIO(tree_doc(note="true or false")))
        assert t.paths.tolist() == [[0], [1]]

    def test_overlong_integer_is_a_format_error(self):
        text = tree_doc(k=0).replace('"k": 0', '"k": ' + "7" * 5000)
        with pytest.raises(tio.TreeFormatError, match="invalid JSON"):
            tio.read_tree(stdio.StringIO(text))

    def test_huge_token_exits_2(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(tree_doc(paths=[[0], [2**32 + 1]]))
        assert cli_run(["verify", "--tree", str(path)]) == 2


def test_read_and_verify_build_one_trie_each(tmp_path, monkeypatch):
    X = np.random.default_rng(5).normal(size=(40, 3)).astype(np.float32)
    path = tmp_path / "tree.json"
    tio.write_tree(build_tree(X, TreeBuildConfig(k=3, seed=1)), path)
    builds = []
    build = core._Trie.build.__func__

    def counting_build(cls, k, paths, *length):
        builds.append(k)
        return build(cls, k, paths, *length)

    monkeypatch.setattr(core._Trie, "build", classmethod(counting_build))
    tio.read_tree(path)
    assert len(builds) == 1
    assert cli_run(["verify", "--tree", str(path)]) == 0
    assert len(builds) == 2


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.integers(min_value=-2, max_value=9)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)
BASE = {"format": "treeid-v1", "k": 3, "depth": 2, "n_items": 7, "pad_token": 3,
        "paths": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0], [2, 1]]}


@st.composite
def tree_documents(draw, separators=None):
    """The valid BASE document with a few random edits, as JSON text."""
    doc = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "token", "row", "drop", "paths"]))
        if kind == "field":
            doc[draw(st.sampled_from(sorted(BASE)))] = draw(JSON_VALUES)
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(sorted(BASE))), None)
        elif kind == "paths":
            doc["paths"] = draw(JSON_VALUES)
        elif isinstance(doc.get("paths"), list) and doc["paths"]:
            i = draw(st.integers(0, len(doc["paths"]) - 1))
            row = doc["paths"][i]
            if kind == "token" and isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(JSON_VALUES)
            else:
                doc["paths"][i] = draw(JSON_VALUES)
    text = json.dumps(doc, separators=separators)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(text=tree_documents())
def test_fuzzed_tree_documents(text, scratch_dir):
    """A malformed document is a TreeFormatError and exit 2, never a traceback."""
    try:
        t = tio.read_tree(stdio.StringIO(text))
    except tio.TreeFormatError:
        t = None
    if t is not None:  # the edits left a well-formed tree: every value an int
        doc = json.loads(text)
        assert all(type(doc[key]) is int for key in ("k", "depth", "n_items", "pad_token"))
        assert all(type(tok) is int for row in doc["paths"] for tok in row)
        assert validate_tree(t).ok
    path = scratch_dir / "tree.json"
    path.write_text(text)
    assert cli_run(["verify", "--tree", str(path)]) == (2 if t is None else 0)


# canonical texts to edit: BASE, and a tree whose tokens have one to three digits
WIDE = {"format": "treeid-v1", "k": 100, "depth": 2, "n_items": 150, "pad_token": 100,
        "paths": [[c, i] for c in range(50) for i in range(2)] + [[c, 100] for c in range(50, 100)]}
TOKEN_EDITS = ["", "01", "00", "-0", "1.0", "1e0", "true", "1" * 10, "9" * 10, "1" * 11, "1" * 20,
               str(2**63), str(2**63 - 1)]


@st.composite
def canonical_edits(draw):
    """A canonical tree text with one targeted edit, or none."""
    doc = draw(st.sampled_from([BASE, WIDE]))
    kinds = ["none", "token", "insert", "stray", "separator", "ending", "rows", "ragged", "empty", "header"]
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        doc = {**doc, **draw(st.sampled_from([{"paths": []}, {"depth": 0}, {"n_items": 0},
                                                {"paths": [], "n_items": 0},
                                                {"depth": 0, "paths": [[]] * doc["n_items"]}]))}
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    start = text.index('"paths":')
    if kind == "token":
        lo, hi = draw(st.sampled_from([m.span() for m in re.finditer("[0-9]+", text[start:])]))
        text = text[: start + lo] + draw(st.sampled_from(TOKEN_EDITS)) + text[start + hi :]
    elif kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([" ", "\t", "\r\n"])) + text[at:]
    elif kind == "stray":  # a digit, or a character that is not ASCII, outside every token
        gaps = [i for i in range(start, len(text)) if text[i - 1] in "[]," and text[i] in "[],"]
        at = draw(st.sampled_from(gaps))
        text = text[:at] + draw(st.sampled_from(["7", "\u00e9", "\ud800"])) + text[at:]
    elif kind == "separator":  # one bracket or comma of the paths swapped for another
        at = draw(st.sampled_from([m.start() for m in re.finditer("[][,]", text[start:])])) + start
        text = text[:at] + draw(st.sampled_from("[],".replace(text[at], ""))) + text[at + 1 :]
    elif kind == "ending":
        text = text[:-1] + draw(st.sampled_from(["", "\n\n"]))
    elif kind == "rows":
        n = doc["n_items"]
        text = text.replace(f'"n_items":{n}', f'"n_items":{n + draw(st.sampled_from([-1, 1]))}')
    elif kind == "ragged":  # one row gains or loses a token
        at = draw(st.sampled_from([m.start() for m in re.finditer("]", text)][:-1]))
        cut = text.rindex(",", 0, at) if draw(st.booleans()) else at
        text = text[:cut] + ("" if cut < at else ",0") + text[at:]
    elif kind == "header":  # non-ASCII in a value, a key or a harmless extra field
        text = text.replace(*draw(st.sampled_from(
            [("treeid", "treeïd"), ('"k":', '"ké":'), ('"paths":', '"note":"é","paths":')]
        )))
    return text


def assert_same_tree(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def read_outcome(text):
    try:
        return tio.read_tree(stdio.StringIO(text))
    except Exception as e:  # compared by type and message
        return e


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(tree_documents(separators=(",", ":")), canonical_edits(), canonical_edits()))
def test_canonical_reader_agrees_with_json_reader(text):
    """read_tree gives the JSON-only reader's tree, array for array, or its error."""
    got = read_outcome(text)
    with mock.patch.object(tio, "_canonical_tree", lambda text: None):
        want = read_outcome(text)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
    else:
        assert_same_tree(got, want)


def test_written_trees_take_the_canonical_reader(tmp_path, monkeypatch):
    """write_tree's text never reaches json.loads, so a drift in its form fails here."""
    rng = np.random.default_rng(6)
    trees = [rand_tree(rng, 300, k) for k in (2, 8, 32)]
    trees.append(core.IdentifierTree.from_paths(100, np.array(WIDE["paths"])))

    def no_json(*args, **kwargs):
        raise AssertionError("read_tree fell back to json.loads")

    monkeypatch.setattr(tio.json, "loads", no_json)
    for t in trees:
        path = tmp_path / "tree.json"
        tio.write_tree(t, path)
        assert_same_tree(tio.read_tree(path), core.IdentifierTree.from_paths(t.k, t.paths))


class TestReports:
    def test_eval_report_csv(self):
        rep = EvalReport(values={("recall", 20): 0.123456789}, n_users=4)
        buf = stdio.StringIO()
        tio.write_eval_report(rep, buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["metric,cutoff,value", "recall,20,0.123457"]

    def test_bench_rows_csv(self):
        row = BenchRow("greedy", 1000, 16, 8, 0, 0.123456789, 98765.4321)
        buf = stdio.StringIO()
        tio.write_bench_rows([row], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "method,n_items,dim,k,seed,build_seconds,total_sse"
        assert lines[1].startswith("greedy,1000,16,8,0,")

    def test_reparse_six_significant_digits(self):
        rep = EvalReport(values={("ndcg", 50): 0.6309297535}, n_users=1)
        buf = stdio.StringIO()
        tio.write_eval_report(rep, buf)
        value = float(buf.getvalue().splitlines()[1].split(",")[2])
        assert value == pytest.approx(0.6309297535, abs=5e-7)


class TestRankingCsv:
    def test_round_trip(self):
        results = [[(4, 1.5), (2, 0.25)], [(7, -1.0)]]
        buf = stdio.StringIO()
        tio.write_ranking(results, buf)
        back = tio.read_ranking(stdio.StringIO(buf.getvalue()))
        assert back == {0: [4, 2], 1: [7]}

    def test_truth_round_trip(self):
        buf = stdio.StringIO("query,item\n0,5\n0,6\n2,1\n")
        assert tio.read_truth(buf) == {0: {5, 6}, 2: {1}}

    def test_header_required(self):
        with pytest.raises(tio.FileFormatError):
            tio.read_ranking(stdio.StringIO("0,1,2\n"))

    @pytest.mark.parametrize(
        "reader, text, line",
        [
            (tio.read_truth, "query,item\n0,5\n065\n", 3),
            (tio.read_truth, "query,item\n0,x\n", 2),
            (tio.read_ranking, "query,rank,item\n0,1,5\n\n0,1\n", 4),
            (tio.read_ranking, "query,rank,item\n0,1,5.0\n", 2),
        ],
    )
    def test_bad_rows_name_their_line(self, reader, text, line):
        with pytest.raises(tio.FileFormatError, match=f" line {line}: "):
            reader(stdio.StringIO(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("query,rank,item\n0,1,5\n0,2,5\n", "line 3: query 0 lists item 5 twice"),
            ("query,rank,item\n0,1,5\n0,1,6\n", "line 3: query 0 lists rank 1 twice"),
            ("query,rank,item\n0,1,5\n1,1,5\n2,2,7\n0,1,6\n", "line 5: query 0 lists rank 1 twice"),
        ],
    )
    def test_repeats_within_a_query_name_their_line(self, text, message):
        with pytest.raises(tio.FileFormatError, match=f"^ranking CSV {message}$"):
            tio.read_ranking(stdio.StringIO(text))

    def test_ranks_and_items_repeat_across_queries(self):
        text = "query,rank,item\n0,1,5\n1,1,5\n0,2,6\n1,2,6\n"
        assert tio.read_ranking(stdio.StringIO(text)) == {0: [5, 6], 1: [5, 6]}


def csv_writer_ranking(results) -> str:
    """The ranking CSV as csv.writer wrote it, each score through _fmt(float(score))."""
    buf = stdio.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["query", "rank", "item", "score"])
    for qid, ranked in enumerate(results):
        for rank, (item, score) in enumerate(ranked, start=1):
            w.writerow([qid, rank, item, f"{float(score):.6g}"])
    return buf.getvalue()


@pytest.mark.parametrize(
    "results",
    [
        [],
        [[]],
        [[], [(3, 1.0)], []],
        [[(4, -0.0), (2, 0.0), (7, 5e-324), (1, 2.225e-308 / 3), (0, -1e-310)]],
        [[(1, 1e300), (0, -1e300), (5, 1.7976931348623157e308), (6, -123456789.0)]],
        [[(3, np.float32(0.1)), (5, np.float32(-3.4e38)), (6, np.float32(1e-45))]],
        [[(np.int64(9), 7), (np.int32(8), np.int64(-3)), (2, True), (11, np.uint8(255))]],
        [[(i, 1 / (i + 1)) for i in range(25)], [], [(i, -i * 0.3) for i in range(3)]],
    ],
)
def test_write_ranking_bytes_match_csv_writer(tmp_path, results):
    buf = stdio.StringIO()
    tio.write_ranking(results, buf)
    assert buf.getvalue() == csv_writer_ranking(results)
    tio.write_ranking(results, tmp_path / "ranking.csv")
    assert (tmp_path / "ranking.csv").read_bytes() == csv_writer_ranking(results).encode()


@pytest.mark.parametrize(
    "reader, text, error, message",
    [
        (tio.read_embeddings_tsv, b"0\t1,2\n1\t\xff,2\n", tio.TsvFormatError, "TSV embeddings line 2: "),
        (tio.read_ranking, b"query,rank,item\n0,1,5\n\n0,2,6\xff\n", tio.FileFormatError, "ranking CSV line 4: "),
        (tio.read_truth, b"query,item\n0,\xfe\n", tio.FileFormatError, "truth CSV line 2: "),
    ],
    ids=["tsv", "ranking", "truth"],
)
def test_undecodable_bytes_name_kind_and_line(tmp_path, reader, text, error, message):
    path = tmp_path / "input"
    path.write_bytes(text)
    with pytest.raises(error, match="^" + message):
        reader(path)
    with open(path) as f, pytest.raises(error):  # a stream names no line, but is typed too
        reader(f)


def _binary_seed() -> bytes:
    buf = stdio.BytesIO()
    tio.write_embeddings(small_matrix(), buf)
    return buf.getvalue()


# one valid input per reader, to mutate
READER_SEEDS = [
    (tio.read_embeddings, _binary_seed()),
    (tio.read_embeddings_tsv, b"0\t1.5,2\n1\t-3,4e-2\n2\t5,6\n"),
    (tio.read_tree, json.dumps(BASE, separators=(",", ":")).encode() + b"\n"),
    (tio.read_ranking, b"query,rank,item,score\n0,1,4,1.5\n0,2,2,0.25\n1,1,7,-1\n"),
    (tio.read_truth, b"query,item\n0,5\n0,6\n2,1\n"),
]
FUZZ_TOKENS = [b"\xff", b"\x00", b"nan", b"1" * 5000, b",", b"\t", b"\n", b"\r", b"-", b'"', b"[", b"]"]


@st.composite
def mutated(draw, seed: bytes):
    """seed with one to three byte deletions, insertions or substitutions."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "insert", "substitute"]))
        if kind == "delete":
            del data[at : at + draw(st.integers(1, 4))]
        else:
            token = draw(st.sampled_from(FUZZ_TOKENS) | st.binary(min_size=1, max_size=1))
            data[at : at + (kind == "substitute")] = token
    return bytes(data)


@pytest.mark.parametrize("reader, seed", READER_SEEDS, ids=[r.__name__ for r, _ in READER_SEEDS])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_inputs_raise_only_format_errors(reader, seed, data, scratch_dir):
    """Whatever the bytes, a reader returns or raises a FileFormatError, with no warning."""
    path = scratch_dir / f"mutated-{reader.__name__}"
    path.write_bytes(data.draw(mutated(seed)))
    # -W error for the read alone: a test-wide filter would also catch the
    # test tools' own deprecation warnings while they report a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reader(path)
        except tio.FileFormatError:
            pass
