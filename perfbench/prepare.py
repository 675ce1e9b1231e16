"""Build the serving fixture for serve-decode and train-losses.

    python3 perfbench/prepare.py OUT_DIR

Generates the build-greedy catalog with `treeid gen-synth`, builds its tree
with the build-greedy settings, checks the tree, and stores the checker's
arrays (canonical node ids and per-node means) beside it. It runs in its own
process so that none of this counts toward the measuring process's memory.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import BUILD_SEED, GREEDY_CATALOG, K, cli  # noqa: E402


def main(out: Path) -> int:
    os.environ["TREEID_THREADS"] = "1"
    catalog, tree = out / "catalog.semb", out / "tree.json"
    for argv in (
        ("gen-synth", *GREEDY_CATALOG, "--out", catalog),
        ("build-tree", "--embeddings", catalog, "--method", "greedy", "--k", K,
         "--seed", BUILD_SEED, "--out", tree),
    ):
        code, _ = cli(*argv)
        if code != 0:
            print(f"treeid {argv[0]} exited with {code}", file=sys.stderr)
            return 1
    problems, view = checks.check_tree_doc(checks.load_tree_doc(tree))
    sse = None
    if view is not None:
        X = checks.read_semb(catalog)
        checks.attach_means(view, X)
        sse = checks.tree_sse(view, X)
        np.savez(
            out / "view.npz", depth=view.depth, n_nodes=view.n_nodes, paths=view.paths,
            lengths=view.lengths, node_of=view.node_of, means=view.means,
        )
    (out / "meta.json").write_text(json.dumps({"problems": problems, "tree_sse": sse}))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
