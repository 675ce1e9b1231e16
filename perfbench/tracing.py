"""Spans and counts recorded around the program's layer functions.

The tracer wraps public functions of the `treeid` modules from outside the
program: each wrapper opens a span (name, start, end, parent, thread, phase)
and closes it when the call returns. Every module-level binding of a wrapped
function is replaced, so `from .io import read_tree` style imports are traced
too, and `uninstall` puts the originals back. A function that a later version
of the program no longer has is recorded as absent and its metrics are left
out of the result instead of failing the run.

Spans live in flat arrays in memory and are written out once, at the end of
the run. A span's self time is its duration minus the part of it that its
child spans cover; children on other threads can overlap, so their cover is
taken as the union of their intervals.
"""

import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP, ROUND = 0, 1  # span phases

# (module, attribute, span name); attribute "Class.method" names a classmethod
LAYER_FUNCTIONS = [
    ("treeid.mincostflow", "solve_balanced_transport", "mincostflow.solve"),
    ("treeid.clustering", "kmeanspp_init", "clustering.kmeanspp"),
    ("treeid.clustering", "lloyd", "clustering.lloyd"),
    ("treeid.clustering", "greedy_assign", "clustering.greedy_assign"),
    ("treeid.clustering", "constrained_assign", "clustering.constrained_assign"),
    ("treeid.clustering", "cluster_level", "clustering.cluster_level"),
    ("treeid.treebuild", "build_tree_with_stats", "treebuild.build"),
    ("treeid.treebuild", "node_embeddings", "treebuild.node_embeddings"),
    ("treeid.core", "IdentifierTree.from_paths", "core.from_paths"),
    ("treeid.core", "validate_paths", "core.validate_paths"),
    ("treeid.io", "read_embeddings", "io.read_embeddings"),
    ("treeid.io", "read_tree", "io.read_tree"),
    ("treeid.io", "write_tree", "io.write_tree"),
    ("treeid.io", "write_ranking", "io.write_ranking"),
    ("treeid.decode", "beam_search", "decode.beam_search"),
    ("treeid.decode", "dot_scorer", "decode.dot_scorer"),
    ("treeid.objectives", "triplet_sampler", "objectives.triplet_sampler"),
    ("treeid.objectives", "generation_loss", "objectives.generation_loss"),
    ("treeid.objectives", "alignment_loss", "objectives.alignment_loss"),
    ("treeid.objectives", "ranking_loss", "objectives.ranking_loss"),
    ("treeid.metrics", "evaluate_run", "metrics.evaluate_run"),
    ("treeid.cli", "run", "cli"),
]

CLI_COMMANDS = ("gen-synth", "build-tree", "decode", "eval")

# names recorded only through another wrapped function, absent with it
DERIVED = {"mincostflow.solve": ("mincostflow.rows",), "decode.dot_scorer": ("decode.scorer",)}

# per-layer metric -> (kind, source); kinds: "self" seconds of a span name,
# "calls" of a span name, "count" recorded by a hook or by the runner
PER_LAYER = {
    "mincostflow.solve_s": ("self", "mincostflow.solve"),
    "mincostflow.solves": ("calls", "mincostflow.solve"),
    "mincostflow.rows": ("count", "mincostflow.rows"),
    "clustering.kmeanspp_s": ("self", "clustering.kmeanspp"),
    "clustering.lloyd_s": ("self", "clustering.lloyd"),
    "clustering.greedy_assign_s": ("self", "clustering.greedy_assign"),
    "clustering.constrained_assign_self_s": ("self", "clustering.constrained_assign"),
    "clustering.cluster_level_self_s": ("self", "clustering.cluster_level"),
    "clustering.distance_evals": ("count", "clustering.distance_evals"),
    "treebuild.build_self_s": ("self", "treebuild.build"),
    "treebuild.splits": ("calls", "clustering.cluster_level"),
    "treebuild.node_embeddings_s": ("self", "treebuild.node_embeddings"),
    "core.from_paths_s": ("self", "core.from_paths"),
    "core.validate_paths_s": ("self", "core.validate_paths"),
    "io.read_embeddings_s": ("self", "io.read_embeddings"),
    "io.read_tree_s": ("self", "io.read_tree"),
    "io.write_tree_s": ("self", "io.write_tree"),
    "io.write_ranking_s": ("self", "io.write_ranking"),
    "decode.beam_search_s": ("self", "decode.beam_search"),
    "decode.queries": ("calls", "decode.beam_search"),
    "decode.dot_scorer_s": ("self", "decode.dot_scorer"),
    "decode.scorer_calls": ("calls", "decode.scorer"),
    "decode.scorer_s": ("self", "decode.scorer"),
    "objectives.triplet_sampler_s": ("self", "objectives.triplet_sampler"),
    "objectives.generation_loss_s": ("self", "objectives.generation_loss"),
    "objectives.alignment_loss_s": ("self", "objectives.alignment_loss"),
    "objectives.ranking_loss_s": ("self", "objectives.ranking_loss"),
    "metrics.evaluate_run_s": ("self", "metrics.evaluate_run"),
    **{f"cli.{c}_s": ("self", f"cli.{c}") for c in CLI_COMMANDS},
}


class Tracer:
    """In-memory span recorder; `phase` tags each span as set-up or round work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)  # (count name, phase) -> total
        self.absent: set[str] = set()
        self.phase = SETUP
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.get_ident() & 0x7FFFFFFF
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # a worker thread's outermost span belongs to the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        nid = self._name_ids.get(name)
        with self._lock:
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.thread.append(self._local.thread)
            self.phase_of.append(self.phase)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[(name, self.phase)] += value

    def wrap(self, fn, name, after=None):
        """fn with a span named `name` (or name(args)) and an optional after(result, args)."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, args)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # --- installing wrappers ------------------------------------------------

    def _count_rows(self, result, args) -> None:
        shape = getattr(getattr(args[0] if args else None, "costs", None), "shape", None)
        if shape:
            self.add("mincostflow.rows", shape[0])

    def _absent(self, span: str) -> None:
        self.absent.add(span)
        self.absent.update(DERIVED.get(span, ()))

    def install(self) -> None:
        """Replace every treeid binding of each layer function with a traced one."""
        for module_name, attr, span in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._absent(span)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if not callable(original):
                self._absent(span)
                continue
            name = (lambda args: "cli." + str(args[0][0])) if span == "cli" else span
            after = self._count_rows if span == "mincostflow.solve" else None
            if owner_name:  # a classmethod: rewrap the underlying function
                raw = vars(owner).get(leaf)
                if not isinstance(raw, classmethod):
                    self._absent(span)
                    continue
                self._patch(owner, leaf, classmethod(self.wrap(raw.__func__, name, after)), raw)
                continue
            traced = self.wrap(original, name, after)
            if span == "decode.dot_scorer":
                traced = self._scorer_factory(traced)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "treeid" and not mod_name.startswith("treeid."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced, original)

    def _scorer_factory(self, traced_dot_scorer):
        def dot_scorer(*args, **kwargs):
            return self.wrap(traced_dot_scorer(*args, **kwargs), "decode.scorer")

        dot_scorer.__wrapped__ = traced_dot_scorer
        return dot_scorer

    def _patch(self, owner, key, new, old) -> None:
        setattr(owner, key, new)
        self._restore.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # --- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self, a: dict) -> np.ndarray:
        """Per span: duration minus the union of its children's intervals."""
        dur = a["end"] - a["start"]
        parent, thread = a["parent"], a["thread"]
        child = parent >= 0
        same = child.copy()
        same[child] = thread[child] == thread[parent[child]]
        covered = np.bincount(parent[same], weights=dur[same], minlength=dur.size)
        for p in np.unique(parent[child & ~same]):
            kids = np.nonzero(parent == p)[0]
            lo = np.maximum(a["start"][kids], a["start"][p])
            hi = np.minimum(a["end"][kids], a["end"][p])
            order = np.argsort(lo, kind="stable")
            total, reach = 0.0, a["start"][p]
            for s, e in zip(lo[order], hi[order]):
                if e > reach:
                    total += e - max(s, reach)
                    reach = e
            covered[p] = total
        return dur - covered

    def write(self, path) -> None:
        """Write every span and the name table to an .npz file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def per_layer(self, reps: dict) -> dict:
        """Per-layer metrics for one set-up plus one round.

        reps maps each phase index to how many set-ups or rounds ran traced;
        each phase's totals are divided by its count and the shares added.
        """
        a = self.arrays()
        self_s = self.self_times(a)
        n_names = len(self.names)
        totals = {}
        for ph, n in reps.items():
            sel = a["phase"] == ph
            totals[("self", ph)] = np.bincount(a["name_id"][sel], weights=self_s[sel], minlength=n_names)
            totals[("calls", ph)] = np.bincount(a["name_id"][sel], minlength=n_names)
        out = {}
        for metric, (kind, source) in PER_LAYER.items():
            if source in self.absent or (source.startswith("cli.") and "cli" in self.absent):
                continue
            value = 0.0
            for ph, n in reps.items():
                if kind == "count":
                    value += self.counts.get((source, ph), 0.0) / n
                elif source in self._name_ids:
                    value += float(totals[(kind, ph)][self._name_ids[source]]) / n
            out[metric] = value
        return out
