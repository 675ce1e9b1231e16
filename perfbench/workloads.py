"""The four workloads: their inputs, set-up, measured rounds and output checks.

Every workload drives the program through its public entry points: the
`treeid` CLI, called in-process through `treeid.cli.run`, and the
`treeid.objectives` functions, which have no CLI. Functions are looked up on
their modules at call time so that the tracer's wrappers take effect.

The catalogs and build seeds are pinned: build time swings by a fifth from
one catalog or build seed to the next (see README), which would drown any
change a later version makes. The benchmark seed draws the serving queries
and the training examples.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import treeid.cli
import treeid.io
import treeid.objectives
import treeid.treebuild

K = 8
DIM = 16
BUILD_SEED = "7"
HYBRID_CATALOG = ["--n", "10000", "--dim", "16", "--blobs", "64", "--spread", "1.0", "--seed", "0"]
GREEDY_CATALOG = ["--n", "100000", "--dim", "16", "--blobs", "5000", "--spread", "0.3", "--seed", "0"]
HERE = Path(__file__).resolve().parent

QUERIES_PER_ROUND = 1000
QUERY_NOISE = 0.3
BEAM, TOP = 50, 20
EVAL_CUTOFFS = (10, 20)
# hit@20 is 0.66-0.68 at the commit that set this (README); the beam check
# below catches a search that differs, this one a search that gets worse
HIT_FLOOR = 0.6
EXAMPLES_PER_ROUND = 99
TAU = 1.0
MARGIN = 1.0

# Fixed alignment-loss inputs where the parent's logit leads each negative by
# 40: the loss is log1p(7 e^-40) ~ 3e-17, which lse(z) - z[0] rounds to zero.
PROBE_CHILD = np.full(DIM, 1.0)
PROBE_PARENT = np.full(DIM, 2.5)
PROBE_NEGATIVES = np.zeros((K - 1, DIM))


@dataclass
class Round:
    """One round of operations: what was timed, attempted, failed and produced."""

    op_seconds: float  # wall time of the command or pass that op_ms divides
    wall: float  # every timed step of the round
    ops: int  # operations attempted
    timed_ops: int  # operations op_seconds covers
    failed: int = 0
    digest: str = ""  # of the output files or values
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def cli(*argv) -> tuple[int, float]:
    """Run one treeid command in-process; return (exit code, wall seconds)."""
    t0 = time.perf_counter()
    code = treeid.cli.run([str(a) for a in argv])
    return code, time.perf_counter() - t0


def sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def value_digest(obj, h=None) -> str:
    """Digest of nested tuples/lists of numbers and arrays, bit for bit."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            value_digest(item, h)
    else:
        arr = np.asarray(obj)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode() + arr.tobytes())
    return h.hexdigest() if top else ""


class Workload:
    """Base: `setup` is timed several times, `run_round` repeatedly, then `check`."""

    n_setup = 3
    threads = "1"

    def __init__(self, run_dir: Path, cache_dir: Path, seed: int):
        self.dir = run_dir
        self.cache = cache_dir
        self.seed = seed
        self.tree_sse = float("nan")

    def prepare(self) -> None:
        os.environ["TREEID_THREADS"] = self.threads

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, i: int, tag: str = "") -> Round:
        raise NotImplementedError

    def check(self, rounds: list) -> list:
        return []

    def summary(self, rounds: list) -> dict:
        """Extra figures for the human-readable report and the traced run."""
        return {}


class Build(Workload):
    """One `treeid build-tree` per round over a pinned catalog."""

    def __init__(self, run_dir, cache_dir, seed, catalog, method, threads, n_setup):
        super().__init__(run_dir, cache_dir, seed)
        self.catalog_args = catalog
        self.method = method
        self.threads = threads
        self.n_setup = n_setup
        self.catalog = run_dir / "catalog.semb"

    def setup(self) -> None:
        code, _ = cli("gen-synth", *self.catalog_args, "--out", self.catalog)
        if code != 0:
            raise RuntimeError(f"gen-synth exited with {code}")

    def run_round(self, i, tag=""):
        out = self.dir / f"tree{i}{tag}.json"
        code, dt = cli(
            "build-tree", "--embeddings", self.catalog, "--method", self.method,
            "--k", K, "--seed", BUILD_SEED, "--out", out,
        )
        if code != 0:
            return Round(dt, dt, 1, 1, failed=1)
        digest = sha256(out)
        if i > 0 or tag:
            out.unlink()
        return Round(dt, dt, 1, 1, digest=digest)

    def check(self, rounds):
        ok = [r for r in rounds if not r.failed]
        if not ok:
            return ["no round completed a build"]
        problems = []
        if len({r.digest for r in ok}) != 1:
            problems.append("rebuilding the same catalog with the same seed changed the tree")
        found, view = checks.check_tree_doc(checks.load_tree_doc(self.dir / "tree0.json"))
        problems += found
        if view is not None:
            X = checks.read_semb(self.catalog)
            checks.attach_means(view, X)
            self.tree_sse = checks.tree_sse(view, X)
        return problems


class Serving(Workload):
    """Shared fixture: the build-greedy catalog and its tree, built once per program version."""

    def prepare(self):
        super().prepare()
        fixture = self.cache / f"serving-{fixture_key()}"
        if not (fixture / "meta.json").is_file():
            build_serving_fixture(fixture)
        self.catalog = fixture / "catalog.semb"
        self.tree = fixture / "tree.json"
        self.fixture = fixture
        meta = json.loads((fixture / "meta.json").read_text())
        if meta["problems"]:
            raise RuntimeError("the serving tree fails its checks: " + "; ".join(meta["problems"]))
        self.tree_sse = meta["tree_sse"]
        self.X = checks.read_semb(self.catalog)

    def load_view(self) -> checks.TreeView:
        with np.load(self.fixture / "view.npz") as z:
            view = checks.TreeView(K, int(z["depth"]), z["paths"], z["lengths"], z["node_of"], int(z["n_nodes"]))
            view.means = z["means"]
        return view


class ServeDecode(Serving):
    """`treeid decode` of noisy catalog copies, then `treeid eval` of the ranking."""

    def prepare(self):
        super().prepare()
        q0, _ = self.queries(0)
        checks.write_semb(self.dir / "query0.semb", q0[:1])

    def queries(self, i):
        rng = np.random.default_rng([self.seed, i])
        src = rng.integers(self.X.shape[0], size=QUERIES_PER_ROUND)
        noise = rng.normal(0.0, QUERY_NOISE, size=(QUERIES_PER_ROUND, DIM))
        return (self.X[src] + noise).astype(np.float32), src

    def setup(self):
        code, _ = cli(
            "decode", "--tree", self.tree, "--embeddings", self.catalog,
            "--queries", self.dir / "query0.semb", "--beam", BEAM, "--top", TOP,
            "--out", self.dir / "setup-ranking.csv",
        )
        if code != 0:
            raise RuntimeError(f"one-query decode exited with {code}")

    def run_round(self, i, tag=""):
        qfile, truth = self.dir / f"queries{i}.semb", self.dir / f"truth{i}.csv"
        if not qfile.exists():
            q, src = self.queries(i)
            checks.write_semb(qfile, q)
            truth.write_text("query,item\n" + "".join(f"{j},{s}\n" for j, s in enumerate(src)))
        ranking, report = self.dir / f"ranking{i}{tag}.csv", self.dir / f"eval{i}{tag}.csv"
        code, dt = cli(
            "decode", "--tree", self.tree, "--embeddings", self.catalog, "--queries", qfile,
            "--beam", BEAM, "--top", TOP, "--out", ranking,
        )
        if code != 0:
            return Round(dt, dt, QUERIES_PER_ROUND, QUERIES_PER_ROUND, failed=QUERIES_PER_ROUND)
        code, dt_eval = cli(
            "eval", "--runs", ranking, "--truth", truth,
            "--cutoffs", ",".join(map(str, EVAL_CUTOFFS)), "--out", report,
        )
        r = Round(dt, dt + dt_eval, QUERIES_PER_ROUND, QUERIES_PER_ROUND, digest=sha256(ranking, report))
        if code != 0:
            r.problems.append(f"eval exited with {code}")
        r.extra = {"round": i, "ranking": ranking, "eval": report}
        return r

    def check(self, rounds):
        problems = []
        view = self.load_view()
        hits = []
        for r in rounds:
            if r.failed:
                continue
            i = r.extra["round"]
            q, src = self.queries(i)
            problems += checks.check_ranking(r.extra["ranking"], view, q, TOP)
            problems += checks.check_eval(r.extra["eval"], r.extra["ranking"], src, EVAL_CUTOFFS)
            problems += checks.check_beam(r.extra["ranking"], view, q, BEAM, TOP)
            hits.append(checks.hit_rate(r.extra["ranking"], src, TOP))
            if i == 0:
                one = (self.dir / "setup-ranking.csv").read_text().splitlines()
                full = r.extra["ranking"].read_text().splitlines()[: TOP + 1]
                if one != full:
                    problems.append("decoding query 0 alone ranks it differently from the full file")
        if not hits:
            return problems + ["no round completed a decode"]
        self.hit_at_20 = float(np.mean(hits))
        floor = max(100 * TOP / self.X.shape[0], HIT_FLOOR)
        if self.hit_at_20 < floor:
            problems.append(f"hit@{TOP} {self.hit_at_20:.4f} is below {floor:.4f}")
        return problems

    def summary(self, rounds):
        return {"hit_at_20": getattr(self, "hit_at_20", 0.0)}


class TrainLosses(Serving):
    """Per example: triplet_sampler, generation_loss, alignment_loss per level, ranking_loss."""

    def prepare(self):
        super().prepare()
        view = self.load_view()
        self.paths, self.lengths, self.node_of, self.means = view.paths, view.lengths, view.node_of, view.means
        live = self.node_of >= 0
        self.node_size = np.bincount(self.node_of[live], minlength=view.n_nodes)
        self.kids = checks.children_table(view)
        self.Xd = self.X.astype(np.float64)

    def setup(self):
        tree = treeid.io.read_tree(self.tree)
        m = treeid.io.read_embeddings(self.catalog)
        self.state = (tree, treeid.treebuild.node_embeddings(tree, m))

    def examples(self, i):
        """(target, prefix depth, sampler seed): depths that leave both sides non-empty."""
        rng = np.random.default_rng([self.seed, i, 1])
        out = []
        for t in rng.integers(self.paths.shape[0], size=EXAMPLES_PER_ROUND).tolist():
            sizes = self.node_size[self.node_of[t, 1 : self.lengths[t] + 1]]
            depths = 1 + np.nonzero(sizes >= 2)[0]
            out.append((t, int(rng.choice(depths)), int(rng.integers(2**31))))
        return out

    def run_round(self, i, tag=""):
        tree, embs = self.state
        X, kids_of, obj = self.Xd, self.kids, treeid.objectives
        specs = self.examples(i)
        results = []
        failed = 0
        t0 = time.perf_counter()
        for t, d, s in specs:
            try:
                pos, neg = obj.triplet_sampler(tree, t, d, s)
                nodes = self.node_of[t, : self.lengths[t] + 1]
                kids = [kids_of[n][kids_of[n] >= 0] for n in nodes[:-1]]
                steps = [embs[kk] @ X[t] for kk in kids]
                gen = obj.generation_loss(steps, self.paths[t], pad_token=K)
                aligns = []
                for level in range(1, nodes.size):
                    sib = kids[level - 1][kids[level - 1] != nodes[level]]
                    if sib.size:
                        res = obj.alignment_loss(embs[nodes[level]], embs[nodes[level - 1]], embs[sib], tau=TAU)
                        aligns.append((nodes[level], nodes[level - 1], sib, res))
                rank = obj.ranking_loss(X[t], X[pos], X[neg], margin=MARGIN)
            except (ValueError, IndexError):
                failed += 1
                continue
            results.append((t, d, pos, neg, steps, gen, aligns, rank))
        dt = time.perf_counter() - t0

        probe = obj.alignment_loss(PROBE_CHILD, PROBE_PARENT, PROBE_NEGATIVES, tau=TAU)
        if not checks.alignment_value_exact(probe[0], PROBE_CHILD, PROBE_PARENT, PROBE_NEGATIVES, TAU):
            failed += 1
        r = Round(dt, dt, EXAMPLES_PER_ROUND + 1, EXAMPLES_PER_ROUND, failed=failed)
        r.digest = value_digest([res[2:] for res in results])
        gen_inexact = align_inexact = 0
        for t, d, pos, neg, steps, gen, aligns, rank in results:
            r.problems += checks.check_triplet(self.paths, t, d, pos, neg)
            r.problems += checks.check_generation(steps, self.paths[t], K, *gen)
            gen_inexact += not checks.generation_value_exact(gen[0], steps, self.paths[t], K)
            for c, p, sib, res in aligns:
                r.problems += checks.check_alignment(embs[c], embs[p], embs[sib], TAU, res)
                align_inexact += not checks.alignment_value_exact(res[0], embs[c], embs[p], embs[sib], TAU)
            r.problems += checks.check_ranking_loss(X[t], X[pos], X[neg], MARGIN, rank)
        r.extra = {
            "generation_inexact": gen_inexact,
            "alignment_inexact": align_inexact,
            "alignments": sum(len(res[6]) for res in results),
            "examples": len(results),
        }
        return r

    def check(self, rounds):
        problems = [] if any(r.extra.get("examples") for r in rounds) else ["no round completed an example"]
        embs = self.state[1]
        if embs.shape != self.means.shape or not np.allclose(embs, self.means, rtol=1e-9, atol=1e-9):
            problems.append("node_embeddings differ from the per-node means of the tree's items")
        return problems

    def summary(self, rounds):
        keys = ("generation_inexact", "alignment_inexact", "alignments")
        return {key: float(np.mean([r.extra[key] for r in rounds if r.extra])) for key in keys}


def fixture_key() -> str:
    """Digest of the program's sources and of what makes the serving fixture.

    The fixture is rebuilt whenever the code under test or the fixture's
    settings change, so a run never serves a tree that other code built.
    """
    h = hashlib.sha256(repr((GREEDY_CATALOG, BUILD_SEED, K)).encode())
    src = HERE.parent / "src" / "treeid"
    files = sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for p in files + [HERE / "prepare.py", HERE / "checks.py"]:
        h.update(str(p.relative_to(HERE.parent)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def build_serving_fixture(fixture: Path) -> None:
    """Build the serving fixture in a child process, so its memory stays out."""
    for stale in fixture.parent.glob("serving*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = fixture.with_name(fixture.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), str(tmp)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"preparing the serving fixture failed:\n{done.stderr}")
        os.rename(tmp, fixture)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


WORKLOADS = {
    # a 10k gen-synth takes about 10 ms, so build-hybrid takes more set-up samples
    "build-hybrid": lambda d, c, s: Build(d, c, s, HYBRID_CATALOG, "hybrid", "2", n_setup=31),
    "build-greedy": lambda d, c, s: Build(d, c, s, GREEDY_CATALOG, "greedy", "1", n_setup=7),
    "serve-decode": ServeDecode,
    "train-losses": TrainLosses,
}
