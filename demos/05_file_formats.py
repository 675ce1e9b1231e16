"""The on-disk formats: binary embeddings, TSV embeddings, tree JSON, CSVs.

Embeddings use a fixed little-endian binary layout (magic SEMB); trees are
canonical single-line JSON keyed by item paths; evaluation and benchmark
results are plain CSVs. All round trips are exact.
"""

import io
import json

import numpy as np

from treeid import BlobSpec, TreeBuildConfig, build_tree, gen_blobs
from treeid.io import (
    read_embeddings,
    read_embeddings_tsv,
    read_tree,
    write_embeddings,
    write_embeddings_tsv,
    write_tree,
)

items = gen_blobs(BlobSpec(n_items=64, dim=4, n_blobs=8, blob_spread=0.5, seed=2))

# binary round trip is bit-exact
buf = io.BytesIO()
write_embeddings(items, buf)
raw = buf.getvalue()
print(f"binary file: {len(raw)} bytes, header magic {raw[:4]!r}")
back = read_embeddings(io.BytesIO(raw))
print(f"bit-identical after round trip: {np.array_equal(back, items)}")

# text form carries 9 significant digits so float32 survives parsing
text = io.StringIO()
write_embeddings_tsv(items, text)
print(f"tsv first line: {text.getvalue().splitlines()[0]}")
parsed = read_embeddings_tsv(io.StringIO(text.getvalue()))
print(f"tsv equals binary values: {np.array_equal(parsed, items)}")

# trees serialize to canonical JSON; write -> read -> write is byte identical
tree = build_tree(items, TreeBuildConfig(k=4, seed=0))
first = io.StringIO()
write_tree(tree, first)
doc = json.loads(first.getvalue())
print(f"\ntree json keys: {list(doc)}")
print(f"item 0 path: {doc['paths'][0]} (pad token = {doc['pad_token']})")
reread = read_tree(io.StringIO(first.getvalue()))
second = io.StringIO()
write_tree(reread, second)
print(f"write/read/write byte identical: {second.getvalue() == first.getvalue()}")

# malformed inputs raise typed errors instead of returning partial data
try:
    read_embeddings(io.BytesIO(b"XEMB" + raw[4:]))
except Exception as e:
    print(f"\nbad magic -> {type(e).__name__}: {e}")
bad = dict(doc)
bad["paths"] = doc["paths"][:1] + doc["paths"][:1] + doc["paths"][2:]
try:
    read_tree(io.StringIO(json.dumps(bad)))
except Exception as e:
    print(f"duplicate path -> {type(e).__name__}")
