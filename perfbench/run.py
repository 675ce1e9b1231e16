"""Run one workload of the treeid benchmark and print its result.

    python3 perfbench/run.py --workload build-greedy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`, and
inputs, outputs and the cached serving fixture go under `.bench_build/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps the program's layer functions and
reports the per-layer metrics instead (see README.md).
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("build-hybrid", "build-greedy", "serve-decode", "train-losses")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_rounds(wl, seconds):
    """Whole rounds until `seconds` have passed since the first began (at least one)."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(wl.run_round(len(rounds)))
    return rounds


def measure(wl, seconds):
    setups = [timed(wl.setup) for _ in range(wl.n_setup)]
    rounds = run_rounds(wl, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = wl.check(rounds)
    ok = [r for r in rounds if r.failed < r.ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms": (1000.0 * statistics.median(r.op_seconds / r.timed_ops for r in ok) if ok else float("nan"), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "tree_sse": (wl.tree_sse, "sqdist"),
    }
    return rounds, problems, metrics, setups


def measure_traced(wl, seconds, trace_path):
    """Per-layer metrics, from a run whose outputs must match an untraced round's."""
    import tracing
    import treeid.clustering

    wl.setup()
    plain = wl.run_round(0, "-plain")
    tracer = tracing.Tracer()
    count = getattr(treeid.clustering, "distance_eval_count", None)
    if count is None:
        tracer.absent.add("clustering.distance_evals")
    tracer.install()
    try:
        c0 = count() if count else 0
        for _ in range(wl.n_setup):
            wl.setup()
        c1 = count() if count else 0
        tracer.phase = tracing.ROUND
        rounds = run_rounds(wl, seconds)
        c2 = count() if count else 0
    finally:
        tracer.uninstall()
    problems = wl.check(rounds)
    if plain.digest != rounds[0].digest:
        problems.append("the traced run's outputs differ from the untraced run's")
    if count:
        tracer.counts[("clustering.distance_evals", tracing.SETUP)] = c1 - c0
        tracer.counts[("clustering.distance_evals", tracing.ROUND)] = c2 - c1
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    values = tracer.per_layer({tracing.SETUP: wl.n_setup, tracing.ROUND: len(rounds)})
    summary = wl.summary([plain] + rounds)
    values["trace.overhead_s"] = rounds[0].wall - plain.wall
    values["objectives.generation_inexact"] = summary.get("generation_inexact", 0.0)
    values["objectives.alignment_inexact"] = summary.get("alignment_inexact", 0.0)
    values["decode.hit_at_20"] = summary.get("hit_at_20", 0.0)
    units = {name: ("count" if not name.endswith("_s") else "s") for name in values}
    units["decode.hit_at_20"] = "fraction"
    metrics = {name: (v, units[name]) for name, v in values.items()}
    return [plain] + rounds, problems, metrics, []


def report(name, args, rounds, problems, metrics, summary, setups):
    """Human-readable lines: the workload's own figures and any failed check."""
    lines = [
        f"workload {name} seed {args.seed} trace {args.trace}: {len(rounds)} rounds",
        "  set-up seconds: " + (" ".join(f"{t:.3f}" for t in setups) or "(not timed when traced)"),
        "  round seconds: " + " ".join(f"{r.wall:.3f}" for r in rounds),
    ]
    for metric, (value, unit) in metrics.items():
        lines.append(f"  {metric} = {value:.6g} {unit}")
    for key, value in summary.items():
        lines.append(f"  {key} = {value:.6g}")
    for p in problems[:20]:
        lines.append(f"  CHECK FAILED: {p}")
    print("\n".join(lines))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "treeid" / "__init__.py").is_file():
        print(f"no treeid sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # numpy asks for transparent huge pages on large arrays, and whether the
    # kernel grants them depends on the machine's free memory at the time;
    # peak_rss_mb should not
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    import workloads

    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "runs"))
    try:
        wl = workloads.WORKLOADS[args.workload](run_dir, WORK, args.seed)
        wl.prepare()
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.npz"
            rounds, problems, metrics, setups = measure_traced(wl, args.seconds, trace_path)
        else:
            rounds, problems, metrics, setups = measure(wl, args.seconds)
        summary = {**wl.summary(rounds), **workload_figures(args.workload, metrics)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += [p for r in rounds for p in r.problems]
    report(args.workload, args, rounds, problems, metrics, summary, setups)
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        # a broken output can leave a metric undefined; JSON has no NaN
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def workload_figures(name, metrics) -> dict:
    """The figures each workload is known by, derived from op_ms."""
    if "op_ms" not in metrics:
        return {}
    op_ms = metrics["op_ms"][0]
    if name.startswith("build-"):
        return {"build_s": op_ms / 1000.0}
    if name == "serve-decode":
        return {"decode_qps": 1000.0 / op_ms}
    return {"train_examples_per_s": 1000.0 / op_ms}


if __name__ == "__main__":
    sys.exit(main())
