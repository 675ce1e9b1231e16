"""Command-line entry point wiring the library into reproducible workflows.

Each subparser binds its handler with set_defaults, and run calls it. Exit
codes: 0 success, 1 usage error (a malformed command line, or option values
that TreeBuildConfig, BeamConfig or BlobSpec rejects), 2 data or validation
error. Reruns with the same arguments, input files, and seed produce
byte-identical output files.
No command starts worker threads of its own. build-tree, decode and bench
accept and ignore --threads, and TREEID_THREADS has no effect either; both
stay accepted so that existing scripts keep working.
"""

import argparse
import sys
from dataclasses import replace

from . import bench as bench_mod
from . import io as tio
from .core import METHODS, TreeBuildConfig
from .decode import BeamConfig, beam_search_batch, dot_scorer
from .metrics import evaluate_run
from .mincostflow import CostOverflowError
from .treebuild import build_tree, node_embeddings


_DEFAULTS = TreeBuildConfig(k=8)  # the build options' defaults


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_embeddings_any(path):
    """Binary when the magic matches or the head looks binary, TSV otherwise."""
    with open(path, "rb") as f:
        head = f.read(64)
    if head[:4] == tio.MAGIC or b"\x00" in head:
        return tio.read_embeddings(path)
    return tio.read_embeddings_tsv(path)


def _build_parser() -> _Parser:
    p = _Parser(prog="treeid", description="balanced k-ary identifier trees")
    sub = p.add_subparsers(dest="command", required=True)

    def add_threads(sp):
        sp.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    def add_build_common(sp):
        sp.add_argument("--k", type=int, default=_DEFAULTS.k)
        sp.add_argument("--threshold", type=int, default=_DEFAULTS.greedy_threshold)
        sp.add_argument("--seed", type=int, default=_DEFAULTS.seed)
        sp.add_argument("--lloyd-iters", type=int, default=_DEFAULTS.lloyd_max_iters)

    g = sub.add_parser("gen-synth", help="generate a synthetic blob embedding file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--blobs", type=int, default=64)
    g.add_argument("--spread", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", choices=("bin", "tsv"), default="bin")
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_synth)

    b = sub.add_parser("build-tree", help="build an identifier tree from embeddings")
    b.add_argument("--embeddings", required=True)
    b.add_argument("--method", choices=METHODS, default=_DEFAULTS.method)
    add_build_common(b)
    b.add_argument("--lloyd-tol", type=float, default=_DEFAULTS.lloyd_tol)
    b.add_argument("--outer-iters", type=int, default=_DEFAULTS.outer_max_iters)
    add_threads(b)
    b.add_argument("--out", required=True)
    b.set_defaults(handler=_cmd_build_tree)

    v = sub.add_parser("verify", help="validate a serialized tree")
    v.add_argument("--tree", required=True)
    v.set_defaults(handler=_cmd_verify)

    d = sub.add_parser("decode", help="beam-search retrieval for query vectors")
    d.add_argument("--tree", required=True)
    d.add_argument("--embeddings", required=True)
    d.add_argument("--queries", required=True)
    d.add_argument("--beam", type=int, default=50)
    d.add_argument("--top", type=int, default=20)
    add_threads(d)
    d.add_argument("--out", required=True)
    d.set_defaults(handler=_cmd_decode)

    e = sub.add_parser("eval", help="score a ranking CSV against a truth CSV")
    e.add_argument("--runs", required=True)
    e.add_argument("--truth", required=True)
    e.add_argument("--cutoffs", default="20,50")
    e.add_argument("--out", required=True)
    e.set_defaults(handler=_cmd_eval)

    bn = sub.add_parser("bench", help="construction-time benchmarks")
    bsub = bn.add_subparsers(dest="bench_command", required=True)

    def add_bench_common(sp):
        sp.add_argument("--dim", type=int, default=16)
        sp.add_argument("--blobs", type=int, default=64)
        sp.add_argument("--spread", type=float, default=1.0)
        sp.add_argument("--data-seed", type=int, default=0)
        add_build_common(sp)
        sp.add_argument("--outer-iters", type=int, default=_DEFAULTS.outer_max_iters)
        add_threads(sp)
        sp.add_argument("--out", required=True)

    bs = bsub.add_parser("scaling", help="build times across sizes")
    bs.add_argument("--sizes", required=True, help="ascending, e.g. 1000,4000")
    bs.add_argument("--methods", default=",".join(METHODS))
    bs.add_argument("--repeats", type=int, default=3)
    bs.add_argument("--no-warmup", action="store_true")
    add_bench_common(bs)
    bs.set_defaults(handler=_cmd_bench_scaling)

    bc = bsub.add_parser("compare", help="all methods on one dataset")
    bc.add_argument("--n", type=int, required=True)
    bc.add_argument("--repeats", type=int, default=1)
    bc.add_argument("--warmup", action="store_true")
    add_bench_common(bc)
    bc.set_defaults(handler=_cmd_bench_compare)

    return p


def _int_list(text: str, option: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from e
    if not values:
        raise _UsageError(f"{option} must name at least one integer")
    return values


def _checked(make, *args, **fields):
    """make(*args, **fields), its ValueError turned into a usage error."""
    try:
        return make(*args, **fields)
    except ValueError as e:
        raise _UsageError(str(e)) from e


def _tree_config(args) -> TreeBuildConfig:
    opts = dict(k=args.k, greedy_threshold=args.threshold, seed=args.seed,
                lloyd_max_iters=args.lloyd_iters, outer_max_iters=args.outer_iters)
    if args.command == "build-tree":  # bench picks each row's method and keeps the default tol
        opts.update(method=args.method, lloyd_tol=args.lloyd_tol)
    return _checked(TreeBuildConfig, **opts)


def _cmd_gen_synth(args) -> int:
    spec = _checked(bench_mod.BlobSpec, n_items=args.n, dim=args.dim, n_blobs=args.blobs,
                    blob_spread=args.spread, seed=args.seed)
    m = bench_mod.gen_blobs(spec)
    if args.format == "bin":
        tio.write_embeddings(m, args.out)
    else:
        tio.write_embeddings_tsv(m, args.out)
    return 0


def _cmd_build_tree(args) -> int:
    cfg = _tree_config(args)
    m = _read_embeddings_any(args.embeddings)
    tree = build_tree(m, cfg)
    tio.write_tree(tree, args.out)
    return 0


def _cmd_verify(args) -> int:
    tree = tio.read_tree(args.tree)
    print(f"ok: {tree.n_items} items, k={tree.k}, depth={tree.depth}")
    return 0


def _cmd_decode(args) -> int:
    cfg = _checked(BeamConfig, beam_width=args.beam, top_n=args.top)
    tree = tio.read_tree(args.tree)
    m = _read_embeddings_any(args.embeddings)
    queries = _read_embeddings_any(args.queries)
    scorer = dot_scorer(node_embeddings(tree, m), tree)
    results = beam_search_batch(tree, scorer, queries.as_array(), cfg)
    tio.write_ranking(results, args.out)
    return 0


def _cmd_eval(args) -> int:
    cutoffs = _int_list(args.cutoffs, "--cutoffs")
    runs = tio.read_ranking(args.runs)
    truth = tio.read_truth(args.truth)
    users = []
    for q in sorted(runs):
        if q not in truth:
            raise ValueError(f"query {q} has no truth rows")
        users.append((runs[q], truth[q]))
    report = evaluate_run(users, cutoffs=tuple(cutoffs))
    tio.write_eval_report(report, args.out)
    return 0


def _blob_spec(args, n_items: int) -> bench_mod.BlobSpec:
    return _checked(bench_mod.BlobSpec, n_items=n_items, dim=args.dim, n_blobs=args.blobs,
                    blob_spread=args.spread, seed=args.data_seed)


def _cmd_bench_scaling(args) -> int:
    sizes = _int_list(args.sizes, "--sizes")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg = _tree_config(args)
    for m in methods:  # each row's config, checked before any build runs
        _checked(replace, cfg, method=m)
    rows = bench_mod.time_builds(
        sizes,
        methods,
        _blob_spec(args, sizes[0]),
        cfg,
        repeats=args.repeats,
        warmup=not args.no_warmup,
    )
    tio.write_bench_rows(rows, args.out)
    return 0


def _cmd_bench_compare(args) -> int:
    cfg = _tree_config(args)
    cmp = bench_mod.compare_methods(
        args.n,
        _blob_spec(args, args.n),
        cfg,
        repeats=args.repeats,
        warmup=args.warmup,
    )
    tio.write_bench_rows([cmp.rows[m] for m in METHODS], args.out)
    for m in ("greedy", "hybrid"):
        print(
            f"{m}/constrained: time {cmp.time_ratio(m):.4f}, sse {cmp.sse_ratio(m):.6f}"
        )
    return 0


# built once: argparse leaves reference cycles behind each add_argument, and
# parsing does not change the parser
_PARSER = _build_parser()


def run(argv) -> int:
    """Parse argv (without the program name) and run one command."""
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as e:  # argparse --help
            return 0 if e.code in (0, None) else 1
        return args.handler(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    # FileFormatError, InvalidEmbeddingsError and InfeasibleBoundsError are ValueErrors
    except (ValueError, CostOverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    try:
        sys.exit(run(sys.argv[1:]))
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
