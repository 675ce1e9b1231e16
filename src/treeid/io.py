"""On-disk formats: binary embeddings, TSV embeddings, tree JSON, report CSVs.

The binary embedding format is little-endian and fixed width:

    offset  size  field
    0       4     magic "SEMB"
    4       4     version, uint32 (currently 1)
    8       8     n_items, uint64
    16      4     dim, uint32
    20      -     n_items * dim float32 values, row major

Trees serialize to a canonical single-line JSON object whose keys always
appear in the same order, so write -> read -> write is byte identical.
read_tree parses that canonical text with numpy, straight into the path
matrix, and any other JSON spelling of a tree with the json module; both
documents then pass the same checks.
Reports are plain CSVs with a header row and values at 6 significant digits.
"""

import csv
import io
import json
import re
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import IdentifierTree, TreeStructureError, _check_sizes, check_embeddings, check_k
from .metrics import EvalReport

MAGIC = b"SEMB"
VERSION = 1
_HEADER = struct.Struct("<4sIQI")

TREE_FORMAT = "treeid-v1"


class FileFormatError(ValueError):
    """Base class for all malformed-input errors raised by this module."""


class BadMagicError(FileFormatError):
    pass


class UnsupportedVersionError(FileFormatError):
    pass


class TruncatedPayloadError(FileFormatError):
    """Payload size does not match the header (short or trailing bytes)."""


class NonFinitePayloadError(FileFormatError):
    pass


class TsvFormatError(FileFormatError):
    """Malformed TSV row; the message names the 1-based line number."""


class TreeFormatError(FileFormatError):
    pass


@contextmanager
def _opened(sink, mode):
    if isinstance(sink, (str, Path)):
        with open(sink, mode) as f:
            yield f
    else:
        yield sink


@contextmanager
def _opened_text(source, error, kind):
    """_opened(source, "r"); undecodable bytes raise error naming kind and, for a path, the line."""
    try:
        with _opened(source, "r") as f:
            yield f
    except UnicodeDecodeError as e:
        where = ""
        if isinstance(source, (str, Path)):  # a stream's error offset is within its last chunk
            raw = Path(source).read_bytes()
            try:
                raw.decode(e.encoding)
            except UnicodeDecodeError as first:
                where = " line %d" % (raw.count(b"\n", 0, first.start) + 1)
        raise error(f"{kind}{where}: not {e.encoding} text: {e.reason}") from e


def write_embeddings(X, sink):
    """Write an (n_items, dim) matrix in the binary embedding format to a path or binary file object."""
    arr = np.ascontiguousarray(X, dtype="<f4")
    with _opened(sink, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, *arr.shape))
        f.write(arr.tobytes())


def read_embeddings(source) -> np.ndarray:
    """Read the binary embedding format from a path or binary file object as an (n_items, dim) array."""
    with _opened(source, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedPayloadError(f"header is {len(head)} bytes, need {_HEADER.size}")
        magic, version, n_items, dim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported version {version}, expected {VERSION}")
        if not f.seekable():  # a pipe: its length shows only once it is read
            f = io.BytesIO(f.read())
        here = f.tell()
        size = f.seek(0, io.SEEK_END) - here
        f.seek(here)
        expected = n_items * dim * 4
        if size != expected:
            raise TruncatedPayloadError(f"payload is {size} bytes, expected {expected}")
        # before the allocation: with dim 0 the header may give n_items >= 2**63, beyond any shape
        _check_sizes(n_items, dim, NonFinitePayloadError)
        values = np.empty((n_items, dim), dtype="<f4")
        size = f.readinto(memoryview(values).cast("B"))
        if size != expected:  # the file shrank since it was measured
            raise TruncatedPayloadError(f"payload is {size} bytes, expected {expected}")
    return check_embeddings(values, NonFinitePayloadError)


def read_embeddings_tsv(source) -> np.ndarray:
    """Read a text table: per line an item ordinal then d reals, comma or whitespace separated.

    The float32 (n_items, d) array keeps file order; the leading ordinal is ignored. Ragged rows,
    bad bytes, and numbers unparsable or not finite as float32 raise TsvFormatError naming the line.
    """
    rows, lines = [], []
    dim = None
    with _opened_text(source, TsvFormatError, "TSV embeddings") as f:
        for lineno, line in enumerate(f, start=1):
            fields = [tok for tok in line.replace(",", " ").split() if tok]
            if not fields:
                continue
            if len(fields) < 2:
                raise TsvFormatError(f"line {lineno}: need an id and at least one value")
            try:
                vals = [float(tok) for tok in fields[1:]]
            except ValueError as e:
                raise TsvFormatError(f"line {lineno}: {e}") from e
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise TsvFormatError(
                    f"line {lineno}: {len(vals)} values, expected {dim} like earlier rows"
                )
            rows.append(vals)
            lines.append(lineno)
    if not rows:
        raise TsvFormatError("no data rows")
    with np.errstate(over="ignore"):  # beyond float32's range becomes inf, rejected below
        arr = np.asarray(rows, dtype=np.float32)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise TsvFormatError(f"line {lines[int(np.argmin(finite))]}: non-finite value")
    return arr


def write_embeddings_tsv(X, sink):
    """Write an (n_items, dim) matrix as a text table: item ordinal then comma-separated values.

    Values are cast to float32 and carry 9 significant digits, so they round-trip exactly.
    """
    arr = np.asarray(X, dtype=np.float32)
    with _opened(sink, "w") as f:
        for i, row in enumerate(arr):
            f.write(f"{i}\t" + ",".join(f"{v:.9g}" for v in row) + "\n")


def write_tree(t: IdentifierTree, sink):
    """Serialize a tree to canonical JSON (fixed key order, no whitespace)."""
    doc = {
        "format": TREE_FORMAT,
        "k": t.k,
        "depth": t.depth,
        "n_items": t.n_items,
        "pad_token": t.pad_token,
        "paths": t.paths.tolist(),
    }
    text = json.dumps(doc, separators=(",", ":"))
    with _opened(sink, "w") as f:
        f.write(text)
        f.write("\n")


_INT = "(0|[1-9][0-9]{0,17})"  # below 10**18, no leading zero
_CANONICAL_HEAD = re.compile(
    rf'\{{"format":"{TREE_FORMAT}","k":{_INT},"depth":{_INT},"n_items":{_INT},"pad_token":{_INT},'
    r'"paths":\['
)


def _canonical_tree(text: str):
    """The document of write_tree's exact text, paths parsed by numpy; None for any other text.

    The header must be write_tree's, and the paths N rows of D tokens of 1-10
    digits without leading zeros, N, D >= 1, with no other byte.
    """
    head = _CANONICAL_HEAD.match(text)
    end = len(text) - text.endswith("\n") - 2
    if head is None or text[end : end + 2] != "]}" or not text.isascii():
        return None
    k, depth, n_items, pad = map(int, head.groups())
    body = np.frombuffer(text[head.end() : end].encode() + b",", dtype=np.uint8)
    digit = body - np.uint8(48)  # separators wrap past 9
    sep = np.flatnonzero(digit > 9)  # each row: [ D-1 commas ] ,
    if depth < 1 or n_items < 1 or sep.size != n_items * (depth + 2):
        return None
    row = np.frombuffer(b"[" + b"," * (depth - 1) + b"],", dtype=np.uint8)
    if not np.array_equal(body[sep], np.tile(row, n_items)):
        return None
    gap = (np.diff(sep, prepend=-1) - 1).reshape(n_items, depth + 2)  # digits before each separator
    length, last = gap[:, 1:-1], sep.reshape(n_items, depth + 2)[:, 1:-1] - 1
    longest = int(length.max())
    if gap[:, 0].any() or gap[:, -1].any() or length.min() < 1 or longest > 10:
        return None
    if longest > 1 and ((length > 1) & (digit[last - length + 1] == 0)).any():  # a leading zero
        return None
    paths = digit[last].astype(np.int64)
    for j in range(1, longest):
        paths += np.where(length > j, digit[last - j], np.uint8(0)) * np.int64(10**j)
    return {"format": TREE_FORMAT, "k": k, "depth": depth, "n_items": n_items, "pad_token": pad,
            "paths": paths}


def read_tree(source) -> IdentifierTree:
    """Parse tree JSON and build its tree with IdentifierTree.from_paths.

    write_tree's canonical text is parsed by numpy and any other JSON by the
    json module; both documents then pass the same checks. Header fields and
    tokens must be JSON integers; nothing is coerced. from_paths' violations
    are raised as TreeFormatError with the same text.
    """
    try:
        with _opened(source, "r") as f:
            text = f.read()
        doc = _canonical_tree(text) or json.loads(text)
    # ValueError covers undecodable bytes, malformed JSON and integers of over 4,300 digits
    except (ValueError, RecursionError) as e:
        raise TreeFormatError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
        raise TreeFormatError(f"expected a {TREE_FORMAT} object")
    for key in ("k", "depth", "n_items", "pad_token"):
        if type(doc.get(key)) is not int:
            raise TreeFormatError(f"{key} must be a JSON integer, got {doc.get(key)!r:.40}")
    k, depth, n_items, pad = (doc[key] for key in ("k", "depth", "n_items", "pad_token"))
    check_k(k, TreeFormatError)
    if pad != k:
        raise TreeFormatError(f"pad_token must equal k={k}, got {pad}")
    try:
        paths = np.asarray(doc.get("paths"))
    except ValueError as e:  # ragged rows
        raise TreeFormatError(f"paths must be a matrix: {e}") from e
    if paths.dtype.kind not in "iu":
        raise TreeFormatError(f"paths must be a matrix of 64-bit JSON integers, read as {paths.dtype}")
    if paths.shape != (n_items, depth):
        raise TreeFormatError(
            f"paths shape {paths.shape} does not match n_items={n_items}, depth={depth}"
        )
    # booleans among integers infer an integer dtype, and need the literals
    literal = "true" in text or "false" in text
    if literal and any(type(x) is bool for row in doc["paths"] for x in row):
        raise TreeFormatError("paths must hold JSON integers, got a boolean")
    try:
        return IdentifierTree.from_paths(k, paths)
    except TreeStructureError as e:
        raise TreeFormatError(str(e)) from e


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def write_eval_report(report: EvalReport, sink):
    """Eval CSV: metric,cutoff,value with values at 6 significant digits."""
    with _opened(sink, "w") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["metric", "cutoff", "value"])
        for (metric, cutoff) in sorted(report.values):
            w.writerow([metric, cutoff, _fmt(report.values[(metric, cutoff)])])


def write_bench_rows(rows, sink):
    """Bench CSV: method,n_items,dim,k,seed,build_seconds,total_sse."""
    with _opened(sink, "w") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["method", "n_items", "dim", "k", "seed", "build_seconds", "total_sse"])
        for r in rows:
            w.writerow(
                [r.method, r.n_items, r.dim, r.k, r.seed, _fmt(r.build_seconds), _fmt(r.total_sse)]
            )


def write_ranking(results, sink):
    """Ranking CSV: query,rank,item,score rows for every query's result list."""
    with _opened(sink, "w") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["query", "rank", "item", "score"])
        for qid, ranked in enumerate(results):
            for rank, (item, score) in enumerate(ranked, start=1):
                w.writerow([qid, rank, item, _fmt(float(score))])


def _int_rows(reader, n: int, name: str):
    """The first n fields of each non-empty CSV row as integers; FileFormatError names the line."""
    for row in reader:
        if not row:
            continue
        if len(row) < n:
            raise FileFormatError(f"{name} line {reader.line_num}: {len(row)} fields, need {n}")
        try:
            values = [int(tok) for tok in row[:n]]
        except ValueError as e:
            raise FileFormatError(f"{name} line {reader.line_num}: {e}") from e
        yield values


def read_ranking(source) -> dict[int, list[int]]:
    """Read a ranking CSV back into query -> ordered item list."""
    per_query: dict[int, list[tuple[int, int]]] = {}
    with _opened_text(source, FileFormatError, "ranking CSV") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or header[:3] != ["query", "rank", "item"]:
            raise FileFormatError("ranking CSV must start with header query,rank,item[,score]")
        for q, rank, item in _int_rows(reader, 3, "ranking CSV"):
            per_query.setdefault(q, []).append((rank, item))
    return {q: [item for _, item in sorted(pairs)] for q, pairs in per_query.items()}


def read_truth(source) -> dict[int, set[int]]:
    """Read a truth CSV (header query,item) into query -> relevant item set."""
    truth: dict[int, set[int]] = {}
    with _opened_text(source, FileFormatError, "truth CSV") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or header[:2] != ["query", "item"]:
            raise FileFormatError("truth CSV must start with header query,item")
        for q, item in _int_rows(reader, 2, "truth CSV"):
            truth.setdefault(q, set()).add(item)
    return truth
